"""Reference checks that share no code with the package under test.

Every check returns a list of problems; an empty list means the output is
correct.  Graphs are plain `Graph` records, read either from instance text
by `parse_graph` or from any object with `vertices`, `edges` and
`rotation` attributes by `graph_of`.  Output text that cannot be read
raises ValueError or LookupError, which the run reports as a rejected
output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    vertices: frozenset
    edges: dict  # edge id -> (u, v)
    rotation: dict  # vertex -> tuple of edge ids, a loop listed twice

    def deg(self, v) -> int:
        return len(self.rotation.get(v, ()))


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line


def parse_graph(text: str) -> Graph:
    """Read `v`, `e` and `rot` records; a vertex without a `rot` record
    gets its incident edges in ascending id order, loops twice."""
    vertices, edges, rotation = set(), {}, {}
    for toks in _lines(text):
        if toks[0] == "v":
            vertices.add(int(toks[1]))
        elif toks[0] == "e":
            e, u, v = int(toks[1]), int(toks[2]), int(toks[3])
            edges[e] = (u, v)
            vertices.update((u, v))
        elif toks[0] == "rot":
            v = int(toks[1].rstrip(":"))
            vertices.add(v)
            rotation[v] = tuple(int(t) for t in toks[2:])
    missing = vertices - rotation.keys()
    if missing:
        incident = {v: [] for v in missing}
        for e in sorted(edges):
            for w in edges[e]:
                if w in incident:
                    incident[w].append(e)
        rotation.update((v, tuple(es)) for v, es in incident.items())
    return Graph(frozenset(vertices), edges, rotation)


def graph_of(obj) -> Graph:
    return Graph(frozenset(obj.vertices), dict(obj.edges), dict(obj.rotation))


def parse_cover(text: str) -> list[tuple[int, int, int]]:
    """`angle <v> <start> <width>` records; other records are ignored."""
    return [
        (int(t[1]), int(t[2]), int(t[3]))
        for t in _lines(text)
        if t[0] == "angle" and len(t) == 4
    ]


def angles_of(assignment) -> list[tuple[int, int, int]]:
    return [(a.vertex, a.start, a.width) for a in assignment.all_angles()]


def verdict_problems(expected: str | None, verdict: str) -> list[str]:
    if expected is not None and verdict != expected:
        return [f"verdict {verdict}, expected {expected}"]
    return []


def counting_bound_no(g: Graph, a: int, m: int) -> bool:
    """True when every vertex covers at most a*m edge ends and there are
    more edges than the vertices can cover, so no (a, m) cover exists."""
    return len(g.edges) > sum(min(a * m, g.deg(v)) for v in g.vertices)


def cover_problems(g: Graph, angles, a: int, m: int) -> list[str]:
    """At most `a` angles per vertex, each of width min(m, deg) starting
    on an existing slot, and some endpoint slot of every edge inside an
    angle."""
    problems = []
    per_vertex = Counter()
    covered = set()
    for v, start, width in angles:
        rot = g.rotation.get(v)
        if rot is None or not 0 <= start < len(rot):
            problems.append(f"angle ({v}, {start}, {width}) names no slot")
            continue
        per_vertex[v] += 1
        d = len(rot)
        if width != min(m, d):
            problems.append(
                f"vertex {v}: angle width {width}, expected {min(m, d)}"
            )
            continue
        for i in range(width):
            e = rot[(start + i) % d]
            if v in g.edges.get(e, ()):
                covered.add(e)
    problems += [
        f"vertex {v}: {k} angles exceed {a}" for v, k in per_vertex.items() if k > a
    ]
    uncovered = sorted(e for e in g.edges if e not in covered)
    if uncovered:
        problems.append(f"{len(uncovered)} uncovered edges, first {uncovered[:5]}")
    return problems


def allocation_problems(g: Graph, angles, size: int, exact: bool) -> list[str]:
    """A valid cover with any number of 2-wide angles, whose reported size
    is its angle count and at least ceil(|E|/2); equal to it if `exact`."""
    problems = cover_problems(g, angles, max(1, len(angles)), 2)
    if size != len(angles):
        problems.append(f"reported size {size} but {len(angles)} angles")
    floor = math.ceil(len(g.edges) / 2)
    if len(angles) < floor:
        problems.append(f"{len(angles)} angles cannot cover {len(g.edges)} edges")
    if exact and len(angles) != floor:
        problems.append(f"{len(angles)} angles, optimum is {floor}")
    return problems


def density_problems(g: Graph, low_density: bool, matching, witness) -> list[str]:
    """YES: the matching saturates the edge side of the edge/doubled-vertex
    graph.  NO: the witness S spans more than 2|S| edges."""
    if low_density:
        used = set()
        for e, (u, v) in g.edges.items():
            slot = matching.get(e)
            if slot is None or slot[0] not in (u, v) or slot[1] not in (0, 1):
                return [f"edge {e} is not matched to a copy of an endpoint"]
            if slot in used:
                return [f"vertex copy {slot} is matched twice"]
            used.add(slot)
        return []
    s = set(witness or ())
    inside = sum(1 for u, v in g.edges.values() if u in s and v in s)
    if inside <= 2 * len(s):
        return [f"witness spans {inside} edges on {len(s)} vertices, not > 2|S|"]
    return []


def blowup_union_problems(g: Graph, layers) -> list[str]:
    """The multiset union of the layers' edges is the 2-blowup: copies
    2v and 2v+1 of each vertex, all four copies of each edge."""
    want = Counter()
    for u, v in g.edges.values():
        for cu in (0, 1):
            for cv in (0, 1):
                want[frozenset((2 * u + cu, 2 * v + cv))] += 1
    got = Counter(frozenset(pair) for layer in layers for pair in layer)
    if got != want:
        return [
            f"layer union differs from the 2-blowup: {sum((want - got).values())}"
            f" missing, {sum((got - want).values())} excess"
        ]
    return []


def colouring_problems(edges, colouring: dict) -> list[str]:
    bad = [(u, v) for u, v in edges if colouring.get(u) == colouring.get(v)]
    if any(c not in (0, 1, 2) for c in colouring.values()):
        return ["colour outside {0, 1, 2}"]
    if bad:
        return [f"{len(bad)} monochromatic edges, first {bad[0]}"]
    return []
