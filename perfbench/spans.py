"""Spans recorded around calls into the package's layers.

`Tracer.install` replaces each traced function in every module that holds
it, so a call from one layer into another becomes a child span of the
caller.  Spans stay in memory until the run writes them out.  Functions
that are called too often for a span each are only counted.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# Public functions traced per layer (module of the package).
TRACED = {
    "instances": [
        "gen_regular",
        "gen_random_plane_deg4",
        "gen_random_bounded_degree",
        "gen_random_outerplane",
        "gen_henneberg_laman",
    ],
    "fileio": ["parse_instance", "serialize_instance", "serialize_cover"],
    "core": ["validate_graph", "trace_faces", "check_cover"],
    "solve": [
        "solve_deg4",
        "solve_no_deg3",
        "solve_sextet",
        "oracle_solve",
        "solve_outerplane",
    ],
    "transform": ["medial_graph", "build_gmat", "blowup2"],
    "allocate": ["optimal_allocation", "max_matching_general"],
    "density": ["check_low_density", "max_bipartite_matching"],
    "thickness": ["blowup_decomposition", "verify_decomposition"],
    "reduce": [
        "reduce_3col",
        "reduce_wide",
        "reduce_2angle_deg8",
        "extract_3colouring",
    ],
}
COUNTED = {"solve": ["min_arc_cover"]}

# Span fields; SIZE is the length of a text first argument.
NAME, START, END, PARENT, OP, OUTCOME, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            size = len(args[0]) if args and isinstance(args[0], str) else 0
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), None, parent, self.op, "raised", size]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                span[OUTCOME] = getattr(out, "verdict", "returned")
                return out
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "anglecover"):
        """Patch every traced function wherever a module of `package`
        refers to it; `uninstall` restores the originals."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for kinds, make in ((TRACED, self._span), (COUNTED, self._counter)):
            for layer, names in kinds.items():
                home = sys.modules[f"{package}.{layer}"]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapped = make(f"{layer}.{fname}", orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, attr, wrapped)
                                self._undo.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()


def aggregate(spans) -> dict:
    """Per function: total time, self time (duration minus the time its
    child spans cover) and call count."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, list] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s[NAME], [0.0, 0.0, 0])
        dur = s[END] - s[START]
        agg[0] += dur
        agg[1] += dur - child_time[i]
        agg[2] += 1
    return out
