"""Command-line front end.

Exit codes: 0 = YES / valid, 1 = NO / invalid, 2 = usage or input error,
3 = solver budget exhausted (INDETERMINATE), 4 = internal error.  solve,
decompose and reduce witness take the node budget from the ANGLESET_BUDGET
environment variable, read by `main`; for solve and reduce witness, which
have a --budget option, that option takes precedence (decompose has none).
A bad value, like a non-positive --budget, is a usage error.  `solve --algo`
with a special solver exits 2 for a spec that solver does not decide.
"""

from __future__ import annotations

import argparse
import os
import sys

from .allocate import optimal_allocation
from .core import (
    BASIC_SPEC,
    CoverSpec,
    MalformedAssignmentError,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    validate_graph,
)
from .density import check_low_density
from .fileio import (
    FormatError,
    instance_to_multigraph,
    parse_cover,
    parse_instance,
    serialize_cover,
    serialize_instance,
    serialize_multigraph,
)
from .instances import (
    gen_henneberg_laman,
    gen_random_bounded_degree,
    gen_random_outerplane,
    gen_regular,
    get_instance,
    instance_names,
    random_henneberg_steps,
)
from .reduce import (
    reduce_2angle_deg8,
    reduce_3col,
    reduce_multi,
    reduce_wide,
    reduce_witness,
)
from .solve import (
    DEFAULT_BUDGET,
    oracle_solve,
    solve_deg4,
    solve_no_deg3,
    solve_outerplane,
    solve_sextet,
)
from .thickness import blowup_decomposition, verify_decomposition
from .transform import TopologicalGraph, blowup2, medial_graph, planarize

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> RotationGraph:
    g = parse_instance(_read(path))
    if isinstance(g, TopologicalGraph):
        raise UnsupportedInputError(
            "this command takes a plain instance; run planarize first"
        )
    issues = validate_graph(g)
    if issues:
        raise UnsupportedInputError("; ".join(issues))
    return g


def _spec(args) -> CoverSpec:
    return CoverSpec(getattr(args, "angles", 1), getattr(args, "width", 2))


def _cmd_solve(args) -> int:
    spec = _spec(args)
    algo = args.algo
    # The special solvers read no spec, so each accepts only what it decides.
    if algo in ("deg4", "2sat", "outerplane") and spec != BASIC_SPEC:
        raise UnsupportedInputError(f"--algo {algo} decides only --angles 1 --width 2")
    if algo == "sextet" and spec.m != 2:
        raise UnsupportedInputError(
            "--algo sextet decides only --width 2 (the angle count follows"
            " from the maximum degree)"
        )
    g = _load_graph(args.file)
    if algo == "auto":
        if spec != BASIC_SPEC:
            algo = "oracle"
        elif g.max_degree() <= 4:
            algo = "deg4"
        elif all(g.deg(v) != 3 for v in g.vertices):
            algo = "2sat"
        else:
            algo = "oracle"
    if algo == "oracle":
        cert = oracle_solve(g, spec, budget=args.budget)
    elif algo == "deg4":
        cert = solve_deg4(g)
    elif algo == "2sat":
        cert = solve_no_deg3(g)
    elif algo == "sextet":
        top = g.max_degree()
        delta = max(2, top + top % 2)  # the smallest valid even delta
        cert = solve_sextet(g, delta)
        spec = CoverSpec(delta // 2 - delta // 6, 2)
    else:  # outerplane
        cert = solve_outerplane(g, budget=args.budget)
    if cert.verdict == "INDETERMINATE":
        print("INDETERMINATE: node budget exhausted", file=sys.stderr)
        return EXIT_INDETERMINATE
    if cert.verdict == "NO":
        return EXIT_NO
    if args.verify:
        chk = check_cover(g, cert.assignment, spec)
        if not chk.valid:
            print(f"internal error: emitted cover fails check: {chk}", file=sys.stderr)
            return EXIT_USAGE
    sys.stdout.write(serialize_cover(cert.assignment))
    return EXIT_YES


def _cmd_check(args) -> int:
    g = _load_graph(args.file)
    asg = parse_cover(_read(args.coverfile))
    chk = check_cover(g, asg, _spec(args))
    if chk.valid:
        return EXIT_YES
    print(
        f"invalid: uncovered={list(chk.uncovered_edges)}"
        f" violations={list(chk.violations)}",
        file=sys.stderr,
    )
    return EXIT_NO


def _cmd_density(args) -> int:
    g = _load_graph(args.file)
    rep = check_low_density(g)
    if rep.low_density:
        print("low-density: yes")
        return EXIT_YES
    print("low-density: no")
    print("witness:", " ".join(str(v) for v in sorted(rep.witness)))
    return EXIT_NO


def _cmd_allocate(args) -> int:
    g = _load_graph(args.file)
    asg, size = optimal_allocation(g)
    if args.verify:
        spec = CoverSpec(max(1, len(g.edges)), 2)
        if not check_cover(g, asg, spec).valid:
            print("internal error: allocation fails check", file=sys.stderr)
            return EXIT_USAGE
    print(f"# size {size}")
    sys.stdout.write(serialize_cover(asg))
    return EXIT_YES


def _cmd_planarize(args) -> int:
    obj = parse_instance(_read(args.file))
    if not isinstance(obj, TopologicalGraph):
        obj = TopologicalGraph(obj, {}, {})
    sys.stdout.write(serialize_instance(planarize(obj)))
    return EXIT_YES


def _cmd_medial(args) -> int:
    g = _load_graph(args.file)
    med, _ = medial_graph(g)
    sys.stdout.write(serialize_multigraph(med))
    return EXIT_YES


def _cmd_blowup(args) -> int:
    g = _load_graph(args.file)
    sys.stdout.write(serialize_multigraph(blowup2(g)))
    return EXIT_YES


def _cmd_decompose(args) -> int:
    g = _load_graph(args.file)
    if args.coverfile:
        asg = parse_cover(_read(args.coverfile))
    else:
        cert = (
            solve_deg4(g)
            if g.max_degree() <= 4
            else oracle_solve(g, budget=args.budget)
        )
        if cert.verdict == "INDETERMINATE":
            print("INDETERMINATE: node budget exhausted", file=sys.stderr)
            return EXIT_INDETERMINATE
        if cert.verdict == "NO":
            print("no cover; cannot decompose", file=sys.stderr)
            return EXIT_NO
        asg = cert.assignment
    d = blowup_decomposition(g, asg)
    if args.verify:
        chk = verify_decomposition(g, d)
        if not chk.valid:
            print(
                "internal error: decomposition fails verification: "
                + "; ".join(chk.violations),
                file=sys.stderr,
            )
            return EXIT_USAGE
    print("# layer 1")
    sys.stdout.write(serialize_instance(d.h))
    print("# layer 2")
    sys.stdout.write(serialize_instance(d.h_tilde))
    return EXIT_YES


def _cmd_reduce(args) -> int:
    g = _load_graph(args.file)
    if args.variant == "3col":
        out, _ = reduce_3col(instance_to_multigraph(g))
    elif args.variant == "multi":
        out = reduce_multi(instance_to_multigraph(g), args.angles)
    elif args.variant == "2angle8":
        out = reduce_2angle_deg8(instance_to_multigraph(g))
    elif args.variant == "wide":
        out = reduce_wide(instance_to_multigraph(g), args.width)
    else:  # witness
        if not args.witness:
            raise UnsupportedInputError("witness variant needs --witness FILE")
        w = _load_graph(args.witness)
        out = reduce_witness(g, w, args.angles, budget=args.budget)
    sys.stdout.write(serialize_instance(out))
    return EXIT_YES


def _cmd_instance(args) -> int:
    try:
        inst = get_instance(args.name)
    except KeyError as exc:
        raise UnsupportedInputError(str(exc)) from exc
    sys.stdout.write(serialize_instance(inst.graph))
    return EXIT_YES


def _cmd_gen(args) -> int:
    if args.kind == "deg4":
        g = gen_random_bounded_degree(args.vertices, 4, args.seed)
    elif args.kind == "regular":
        g = gen_regular(args.vertices, args.degree, args.seed)
    elif args.kind == "laman":
        steps = random_henneberg_steps(args.steps, args.seed)
        g = gen_henneberg_laman(steps, args.seed)
    else:  # outerplane
        g = gen_random_outerplane(args.vertices, args.seed)
    sys.stdout.write(serialize_instance(g))
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anglecover",
        description="Angle covers on graphs with rotation systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def spec_flags(sp):
        sp.add_argument("--angles", type=int, default=1, metavar="A")
        sp.add_argument("--width", type=int, default=2, metavar="M")

    sp = sub.add_parser("solve", help="decide the cover problem")
    sp.add_argument(
        "--algo",
        choices=["auto", "oracle", "deg4", "2sat", "sextet", "outerplane"],
        default="auto",
    )
    spec_flags(sp)
    sp.add_argument("--budget", type=int, default=None, metavar="N")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("check", help="validate a cover file")
    spec_flags(sp)
    sp.add_argument("file")
    sp.add_argument("coverfile")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("density", help="low edge density test")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_density)

    sp = sub.add_parser("allocate", help="optimal angle allocation")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_allocate)

    sp = sub.add_parser("planarize", help="replace crossings by vertices")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_planarize)

    sp = sub.add_parser("medial", help="emit the medial graph")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_medial)

    sp = sub.add_parser("blowup", help="emit the 2-blowup")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_blowup)

    sp = sub.add_parser("decompose", help="two isomorphic planar layers")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("file")
    sp.add_argument("coverfile", nargs="?", default=None)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("reduce", help="hardness reduction generators")
    sp.add_argument(
        "variant", choices=["3col", "multi", "2angle8", "wide", "witness"]
    )
    sp.add_argument("--angles", type=int, default=2, metavar="A")
    sp.add_argument("--width", type=int, default=3, metavar="M")
    sp.add_argument("--witness", default=None, metavar="FILE")
    sp.add_argument("--budget", type=int, default=None, metavar="N")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("instance", help="emit a built-in instance")
    sp.add_argument("name", help=f"one of: {', '.join(instance_names())}")
    sp.set_defaults(func=_cmd_instance)

    sp = sub.add_parser("gen", help="random instance generators")
    sp.add_argument("kind", choices=["deg4", "regular", "laman", "outerplane"])
    sp.add_argument("-n", "--vertices", type=int, default=10)
    sp.add_argument("--degree", type=int, default=4)
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = os.environ.get("ANGLESET_BUDGET", str(DEFAULT_BUDGET))
        if not raw.isdecimal() or int(raw) < 1:
            raise ValueError(f"ANGLESET_BUDGET is not a positive integer: {raw!r}")
        if getattr(args, "budget", None) is None:
            args.budget = int(raw)
        elif args.budget < 1:
            raise ValueError(f"--budget is not a positive integer: {args.budget}")
        return args.func(args)
    except (
        FormatError,
        MalformedAssignmentError,
        UnsupportedInputError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Any other failure is a fault of the program; exit 1 would read as NO.
        msg = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
