"""The benchmark's workloads: each builds its operations from the seed.

An operation takes one instance from its serialized text through parse,
`validate_graph`, a solver, allocation or density test, and then a
reference check from `refcheck`, which shares no code with the package.
Package functions are looked up on their modules at call time, so the
tracer's patches see every call.

Random instance k of a workload run with seed s uses generator seed
100 * s + k.  Instances whose cost or outcome is a coin toss between
generator seeds are pinned instead (`BOUNDED_SEED`, `PLANE_ALLOCATIONS`).
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import refcheck as ref

LAYERS = (
    "instances", "fileio", "core", "solve", "transform", "density",
    "reduce", "allocate", "thickness",
)


@dataclass
class Op:
    name: str
    run: Callable[[], dict]  # program stages; raises or returns outputs
    check: Callable[[dict], list]  # reference check of the outputs
    record: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    deadline: float  # seconds per operation
    build: Callable  # (package, seed, context) -> list[Op]


def load_package() -> SimpleNamespace:
    return SimpleNamespace(
        **{n: importlib.import_module(f"anglecover.{n}") for n in LAYERS}
    )


def _record(generator, g, seed=None, expected=None, **params) -> dict:
    rec = {"generator": generator, **params, "seed": seed, "expected": expected}
    rec.update(vertices=len(g.vertices), edges=len(g.edges), darts=2 * len(g.edges))
    return rec


def _load(pkg, text):
    g = pkg.fileio.parse_instance(text)
    issues = pkg.core.validate_graph(g)
    if issues:
        raise ValueError(f"generated instance is invalid: {issues[:3]}")
    return g


def _source_text(edges) -> str:
    """Instance text of a small source graph with default rotations."""
    return "".join(f"e {i} {u} {v}\n" for i, (u, v) in enumerate(edges))


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _wheel(n):
    return _cycle(n) + [(n, i) for i in range(n)]


K3 = _cycle(3)
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
# Fixed colourability: K4 and the odd wheel W5 need four colours.
SOURCES = {"K4": (K4, "NO"), "W5": (_wheel(5), "NO"), "C5": (_cycle(5), "YES"),
           "W6": (_wheel(6), "YES")}


def _cover_op(pkg, name, text, record, solve, spec, extra=None) -> Op:
    """Solve one instance; a YES answer must carry an (a, m) cover."""

    def run():
        g = _load(pkg, text)
        cert = solve(g)
        out = {"verdict": cert.verdict}
        if cert.is_yes:
            out["cover"] = pkg.fileio.serialize_cover(cert.assignment)
            if extra:
                out.update(extra(g, cert))
        return out

    def check(out):
        problems = ref.verdict_problems(record["expected"], out["verdict"])
        if out["verdict"] == "YES":
            g = ref.parse_graph(text)
            problems += ref.cover_problems(g, ref.parse_cover(out["cover"]), *spec)
            if "layers" in out:
                if not out["verified"]:
                    problems.append("no decomposition that verify_decomposition accepts")
                problems += ref.blowup_union_problems(g, out["layers"])
        return problems

    return Op(name, run, check, record)


def _decompose(pkg):
    def extra(g, cert):
        # Refusing the input is an answer about the cover, not a crash:
        # the reference check then says which side is wrong.
        try:
            d = pkg.thickness.blowup_decomposition(g, cert.assignment)
        except pkg.core.UnsupportedInputError:
            return {"verified": False, "layers": []}
        chk = pkg.thickness.verify_decomposition(g, d)
        return {
            "verified": chk.valid,
            "layers": [list(d.h.edges.values()), list(d.h_tilde.edges.values())],
        }

    return extra


def _reduction_op(pkg, name, reduce, spec, expected, source, colour) -> Op:
    """Reduce a small source graph, decide the output with the oracle and,
    for the 3-colouring reduction, read a colouring off a YES cover."""
    text = _source_text(source)

    def run():
        src = pkg.fileio.instance_to_multigraph(_load(pkg, text))
        h, gmap = reduce(src)
        cert = pkg.solve.oracle_solve(h, pkg.core.CoverSpec(*spec))
        out = {"verdict": cert.verdict}
        if cert.is_yes:
            out["graph"] = ref.graph_of(h)
            out["angles"] = ref.angles_of(cert.assignment)
            if colour:
                out["colouring"] = pkg.reduce.extract_3colouring(h, cert.assignment, gmap)
        return out

    def check(out):
        problems = ref.verdict_problems(expected, out["verdict"])
        if out["verdict"] == "YES":
            problems += ref.cover_problems(out["graph"], out["angles"], *spec)
            if colour:
                problems += ref.colouring_problems(source, out["colouring"])
        return problems

    record = {"generator": name.split("/")[0], "source": name.split("/")[1],
              "spec": list(spec), "expected": expected,
              "source_vertices": len({w for e in source for w in e}),
              "source_edges": len(source)}
    return Op(name, run, check, record)


# ---------------------------------------------------------------------------
# linear: the linear-time layers at the sizes the algorithms are about.


BOUNDED_SEED = 3


def _linear(pkg, seed, ctx):
    inst, sv = pkg.instances, pkg.solve
    ser = pkg.fileio.serialize_instance
    ops = []

    def add(name, g, record, solve, spec, extra=None):
        ops.append(_cover_op(pkg, name, ser(g), record, solve, spec, extra))

    s = 100 * seed
    g = inst.gen_regular(100_000, 4, s + 1)
    add("deg4/regular4-n100000", g, _record("gen_regular", g, s + 1, "YES", n=100_000, d=4),
        lambda g: sv.solve_deg4(g), (1, 2))
    g = inst.gen_random_plane_deg4(10_000, s + 2)
    add("deg4+decompose/plane-n10000", g,
        _record("gen_random_plane_deg4", g, s + 2, "YES", n=10_000),
        lambda g: sv.solve_deg4(g), (1, 2), _decompose(pkg))
    # Pinned: the generator draws 0 to n extra edges, which swings its
    # O(n^2) set-up and the padding work of solve_deg4 several-fold
    # between seeds.  Seed 3 gives 15777 edges, 385 of them loops.
    g = inst.gen_random_bounded_degree(10_000, 4, BOUNDED_SEED)
    add("deg4/bounded4-n10000", g,
        _record("gen_random_bounded_degree", g, BOUNDED_SEED, "YES", n=10_000, dmax=4),
        lambda g: sv.solve_deg4(g), (1, 2))
    g = inst.gen_regular(20_000, 4, s + 4)
    add("2sat/regular4-n20000", g, _record("gen_regular", g, s + 4, "YES", n=20_000, d=4),
        lambda g: sv.solve_no_deg3(g), (1, 2))
    g = inst.gen_regular(5_000, 16, s + 5)
    no = ref.counting_bound_no(ref.graph_of(g), 1, 2)
    add("2sat/regular16-n5000", g,
        _record("gen_regular", g, s + 5, "NO" if no else None, n=5_000, d=16),
        lambda g: sv.solve_no_deg3(g), (1, 2))
    g = inst.gen_regular(20_000, 6, s + 6)
    add("sextet/regular6-n20000", g, _record("gen_regular", g, s + 6, "YES", n=20_000, d=6),
        lambda g: sv.solve_sextet(g, 6), (2, 2))
    return ops


# ---------------------------------------------------------------------------
# search: the oracle and outerplane layers on small, hard inputs.


def _search(pkg, seed, ctx):
    inst, sv, rd = pkg.instances, pkg.solve, pkg.reduce
    ser = pkg.fileio.serialize_instance
    ops = []
    for name in inst.instance_names():
        cat = inst.get_instance(name)
        if cat.expected:
            ops.append(_cover_op(
                pkg, f"oracle/{name}", ser(cat.graph),
                _record("catalogue", cat.graph, None, cat.expected, name=name),
                lambda g: sv.oracle_solve(g), (1, 2)))
    for src, (edges, colourable) in SOURCES.items():
        ops.append(_reduction_op(pkg, f"reduce_3col/{src}", lambda m: rd.reduce_3col(m),
                                 (1, 2), colourable, edges, True))
        ops.append(_reduction_op(pkg, f"reduce_wide/{src}",
                                 lambda m: (rd.reduce_wide(m, 3), None),
                                 (1, 3), colourable, edges, False))
    s = 100 * seed
    for n, k in ((400, 1), (1000, 2)):
        g = inst.gen_regular(n, 3, s + k)
        ops.append(_cover_op(pkg, f"oracle/regular3-n{n}", ser(g),
                             _record("gen_regular", g, s + k, "YES", n=n, d=3),
                             lambda g: sv.oracle_solve(g), (1, 2)))
    for n, k in ((600, 3), (1000, 4)):
        g = inst.gen_random_outerplane(n, s + k)
        ops.append(_cover_op(pkg, f"outerplane/n{n}", ser(g),
                             _record("gen_random_outerplane", g, s + k, None, n=n),
                             lambda g: sv.solve_outerplane(g), (1, 2)))
    # K3 is 3-colourable, so its degree-8 reduction has a 2-angle cover.
    ops.append(_reduction_op(pkg, "reduce_2angle_deg8/K3",
                             lambda m: (rd.reduce_2angle_deg8(m), None),
                             (2, 2), "YES", K3, False))
    return ops


# ---------------------------------------------------------------------------
# matching: allocation through the medial matching, and the density test.

# Plane allocation instances are pinned: whether optimal_allocation
# finishes depends on the instance (generator seeds 1 and 3 at n = 500 do
# not), so seed-derived ones would make the failure count a coin toss.
PLANE_ALLOCATIONS = ((500, 1), (500, 2), (500, 3), (1000, 0))


def _allocation_op(pkg, name, g, record, exact):
    text = pkg.fileio.serialize_instance(g)

    def run():
        asg, size = pkg.allocate.optimal_allocation(_load(pkg, text))
        return {"cover": pkg.fileio.serialize_cover(asg), "size": size}

    def check(out):
        g = ref.parse_graph(text)
        return ref.allocation_problems(g, ref.parse_cover(out["cover"]), out["size"], exact)

    return Op(name, run, check, record)


def _density_op(pkg, name, g, record):
    text = pkg.fileio.serialize_instance(g)

    def run():
        rep = pkg.density.check_low_density(_load(pkg, text))
        return {"verdict": "YES" if rep.low_density else "NO",
                "matching": rep.matching, "witness": rep.witness}

    def check(out):
        problems = ref.verdict_problems(record["expected"], out["verdict"])
        return problems + ref.density_problems(
            ref.parse_graph(text), out["verdict"] == "YES", out["matching"], out["witness"])

    return Op(name, run, check, record)


def _matching(pkg, seed, ctx):
    inst = pkg.instances
    s = 100 * seed
    # On a 4-regular graph the medial matching is perfect: |E|/2 angles.
    g = inst.gen_regular(1500, 4, s + 1)
    ops = [_allocation_op(pkg, "allocate/regular4-n1500", g,
                          _record("gen_regular", g, s + 1, "|E|/2", n=1500, d=4), True)]
    for n, pinned in PLANE_ALLOCATIONS:
        g = inst.gen_random_plane_deg4(n, pinned)
        ops.append(_allocation_op(
            pkg, f"allocate/plane-n{n}-s{pinned}", g,
            _record("gen_random_plane_deg4", g, pinned, ">= |E|/2", n=n), False))
    g = inst.gen_regular(30_000, 4, s + 2)
    ops.append(_density_op(pkg, "density/regular4-n30000", g,
                           _record("gen_regular", g, s + 2, "YES", n=30_000, d=4)))
    g = inst.gen_regular(30_000, 5, s + 3)
    ops.append(_density_op(pkg, "density/regular5-n30000", g,
                           _record("gen_regular", g, s + 3, "NO", n=30_000, d=5)))
    steps = inst.random_henneberg_steps(10_000 - 2, s + 4)
    g = inst.gen_henneberg_laman(steps, s + 4)
    ops.append(_density_op(pkg, "density/laman-n10000", g,
                           _record("gen_henneberg_laman", g, s + 4, "YES", n=10_000)))
    return ops


# ---------------------------------------------------------------------------
# cli: sequential `python -m anglecover.cli` calls on small instances.

CROSSING = "e 0 0 1\ne 1 2 3\nrot 0: 0\nrot 1: 0\nrot 2: 1\nrot 3: 1\nx 0 0 1 0\nseq 0: 0\nseq 1: 0\n"


def cli_env(ctx) -> dict:
    return {**os.environ, "PYTHONPATH": ctx["src"]}


def _cli_op(ctx, args, expected_exit, check_stdout=None) -> Op:
    """One CLI call; `expected_exit` None accepts YES (0, checked) or NO (1)."""
    workdir = ctx["workdir"]

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "anglecover.cli", *args], cwd=workdir,
            env=cli_env(ctx), capture_output=True, text=True)
        if "Traceback (most recent call last)" in proc.stderr:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1])
        verdict = "INDETERMINATE" if proc.returncode == 3 else f"exit {proc.returncode}"
        return {"verdict": verdict, "exit": proc.returncode, "stdout": proc.stdout}

    def check(out):
        code = out["exit"]
        if code != expected_exit and not (expected_exit is None and code in (0, 1)):
            return [f"exit {code}, expected {expected_exit}"]
        if check_stdout and (expected_exit is not None or code == 0):
            return check_stdout(out["stdout"])
        return []

    return Op("cli " + " ".join(args), run, check,
              {"subcommand": args[0], "args": list(args), "expected_exit": expected_exit})


def _graph_file(ctx, name) -> ref.Graph:
    with open(os.path.join(ctx["workdir"], name), encoding="utf-8") as fh:
        return ref.parse_graph(fh.read())


def _expect_cover(ctx, name, a=1, m=2):
    return lambda out: ref.cover_problems(_graph_file(ctx, name), ref.parse_cover(out), a, m)


def _expect_shape(pred, what):
    return lambda out: [] if pred(ref.parse_graph(out)) else [f"output is not {what}"]


def _expect_allocation(ctx, name, exact):
    def check(out):
        size = int(next((l for l in out.splitlines() if l.startswith("# size")), "").split()[2])
        return ref.allocation_problems(_graph_file(ctx, name), ref.parse_cover(out), size, exact)

    return check


def _expect_witness(ctx, name):
    def check(out):
        line = next((l for l in out.splitlines() if l.startswith("witness:")), "witness:")
        witness = [int(t) for t in line.split()[1:]]
        return ref.density_problems(_graph_file(ctx, name), False, {}, witness)

    return check


def _expect_layers(ctx, name):
    def check(out):
        parts = out.split("# layer 2")
        if len(parts) != 2:
            return ["decompose output lacks two layers"]
        layers = [list(ref.parse_graph(p).edges.values()) for p in parts]
        return ref.blowup_union_problems(_graph_file(ctx, name), layers)

    return check


def _expect_blowup(ctx, name):
    return lambda out: ref.blowup_union_problems(
        _graph_file(ctx, name), [list(ref.parse_graph(out).edges.values())])


def _cli(pkg, seed, ctx):
    inst, fio = pkg.instances, pkg.fileio
    workdir, s = ctx["workdir"], 100 * seed
    files = {
        "r4.inst": inst.gen_regular(200, 4, s + 1),
        "r5.inst": inst.gen_regular(200, 5, s + 2),
        "r16.inst": inst.gen_regular(120, 16, s + 3),
        "r6.inst": inst.gen_regular(100, 6, s + 4),
        "r3.inst": inst.gen_regular(100, 3, s + 5),
        "b4.inst": inst.gen_random_bounded_degree(200, 4, s + 6),
        "p4.inst": inst.gen_random_plane_deg4(200, s + 7),
        "op.inst": inst.gen_random_outerplane(200, s + 8),
        "lm.inst": inst.gen_henneberg_laman(inst.random_henneberg_steps(150, s + 9), s + 9),
    }
    texts = {name: fio.serialize_instance(g) for name, g in files.items()}
    for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4-no", "fig4-yes", "laman-fig6"):
        texts[f"{name}.inst"] = fio.serialize_instance(inst.get_instance(name).graph)
    fig1_cover = inst.get_instance("fig1").cover
    texts["fig1.cover"] = fio.serialize_cover(fig1_cover)
    texts["fig1-broken.cover"] = "".join(texts["fig1.cover"].splitlines(True)[1:])
    texts["cross.inst"] = CROSSING
    for src, edges in (("k3", K3), ("k4", K4), ("c5", _cycle(5))):
        texts[f"{src}.inst"] = _source_text(edges)
    for name, text in texts.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def degrees(pred):
        return lambda g: bool(g.vertices) and all(pred(g.deg(v)) for v in g.vertices)

    ops = [
        _cli_op(ctx, ["instance", "fig1"], 0, _expect_shape(lambda g: len(g.edges) == 16, "fig1")),
        _cli_op(ctx, ["instance", "fig2a"], 0, _expect_shape(lambda g: len(g.edges) == 42, "fig2a")),
        _cli_op(ctx, ["instance", "fig3"], 0, _expect_shape(lambda g: len(g.edges) == 30, "fig3")),
        _cli_op(ctx, ["instance", "laman-fig6"], 0, _expect_shape(lambda g: len(g.edges) == 15, "laman-fig6")),
        _cli_op(ctx, ["instance", "t-graph"], 0, _expect_shape(lambda g: len(g.edges) == 37, "the T fragment")),
        _cli_op(ctx, ["gen", "deg4", "-n", "200", "--seed", str(s + 10)], 0,
                _expect_shape(degrees(lambda d: d <= 4), "of max degree 4")),
        _cli_op(ctx, ["gen", "regular", "-n", "200", "--degree", "4", "--seed", str(s + 11)], 0,
                _expect_shape(degrees(lambda d: d == 4), "4-regular")),
        _cli_op(ctx, ["gen", "laman", "--steps", "150", "--seed", str(s + 12)], 0,
                _expect_shape(lambda g: len(g.edges) == 2 * len(g.vertices) - 3, "a Laman count")),
        _cli_op(ctx, ["gen", "outerplane", "-n", "200", "--seed", str(s + 13)], 0,
                _expect_shape(lambda g: len(g.vertices) == 200, "on 200 vertices")),
    ]
    for name, verdict in (("fig1", 0), ("fig2a", 1), ("fig2b", 1), ("fig3", 1),
                          ("fig4-no", 1), ("fig4-yes", 0), ("laman-fig6", 1)):
        ops.append(_cli_op(ctx, ["solve", "--verify", f"{name}.inst"], verdict,
                           None if verdict else _expect_cover(ctx, f"{name}.inst")))
    ops += [
        _cli_op(ctx, ["solve", "--verify", "b4.inst"], 0, _expect_cover(ctx, "b4.inst")),
        _cli_op(ctx, ["solve", "--algo", "deg4", "--verify", "p4.inst"], 0, _expect_cover(ctx, "p4.inst")),
        _cli_op(ctx, ["solve", "--algo", "2sat", "--verify", "r4.inst"], 0, _expect_cover(ctx, "r4.inst")),
        _cli_op(ctx, ["solve", "--algo", "2sat", "r16.inst"], 1),
        _cli_op(ctx, ["solve", "--algo", "sextet", "--verify", "r6.inst"], 0,
                _expect_cover(ctx, "r6.inst", 2, 2)),
        _cli_op(ctx, ["solve", "--algo", "oracle", "--verify", "r3.inst"], 0, _expect_cover(ctx, "r3.inst")),
        _cli_op(ctx, ["solve", "--algo", "outerplane", "--verify", "op.inst"], None,
                _expect_cover(ctx, "op.inst")),
        _cli_op(ctx, ["check", "fig1.inst", "fig1.cover"], 0),
        _cli_op(ctx, ["check", "fig1.inst", "fig1-broken.cover"], 1),
        _cli_op(ctx, ["density", "r4.inst"], 0),
        _cli_op(ctx, ["density", "r5.inst"], 1, _expect_witness(ctx, "r5.inst")),
        _cli_op(ctx, ["density", "lm.inst"], 0),
        _cli_op(ctx, ["allocate", "--verify", "r4.inst"], 0, _expect_allocation(ctx, "r4.inst", True)),
        _cli_op(ctx, ["allocate", "--verify", "fig1.inst"], 0, _expect_allocation(ctx, "fig1.inst", True)),
        _cli_op(ctx, ["planarize", "cross.inst"], 0,
                _expect_shape(lambda g: len(g.vertices) == 5 and len(g.edges) == 4, "one crossing vertex")),
        _cli_op(ctx, ["planarize", "fig1.inst"], 0,
                _expect_shape(lambda g: len(g.vertices) == 8 and len(g.edges) == 16, "fig1 unchanged")),
        _cli_op(ctx, ["medial", "r4.inst"], 0,
                _expect_shape(lambda g: len(g.vertices) == 400, "one vertex per edge")),
        _cli_op(ctx, ["blowup", "p4.inst"], 0, _expect_blowup(ctx, "p4.inst")),
        _cli_op(ctx, ["decompose", "--verify", "p4.inst"], 0, _expect_layers(ctx, "p4.inst")),
        _cli_op(ctx, ["decompose", "--verify", "fig1.inst"], 0, _expect_layers(ctx, "fig1.inst")),
        _cli_op(ctx, ["reduce", "3col", "k4.inst"], 0,
                _expect_shape(lambda g: len(g.edges) == 21 * 6, "21|E| edges")),
        _cli_op(ctx, ["reduce", "3col", "c5.inst"], 0,
                _expect_shape(lambda g: len(g.edges) == 21 * 5, "21|E| edges")),
        _cli_op(ctx, ["reduce", "wide", "--width", "3", "c5.inst"], 0,
                _expect_shape(lambda g: len(g.edges) > 21 * 5, "wider than the basic reduction")),
        _cli_op(ctx, ["reduce", "2angle8", "k3.inst"], 0,
                _expect_shape(degrees(lambda d: d <= 8), "of max degree 8")),
    ]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear", 20.0, _linear),
        Workload("search", 5.0, _search),
        Workload("matching", 6.0, _matching),
        Workload("cli", 10.0, _cli),
    )
}
