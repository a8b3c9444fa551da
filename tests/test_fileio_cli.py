import os
import re
import subprocess
import sys
import time

import pytest

import anglecover
from anglecover.cli import main
from anglecover.core import (
    Angle,
    AngleAssignment,
    CoverCheck,
    CoverSpec,
    RotationGraph,
    check_cover,
    validate_graph,
)
from anglecover.fileio import (
    FormatError,
    parse_cover,
    parse_instance,
    serialize_cover,
    serialize_instance,
    serialize_multigraph,
)
from anglecover.instances import (
    gen_henneberg_laman,
    gen_random_bounded_degree,
    gen_random_outerplane,
    gen_random_plane_deg4,
    gen_regular,
    get_instance,
    instance_names,
    random_henneberg_steps,
)
from anglecover.thickness import DecompositionCheck
from anglecover.transform import (
    Crossing,
    Multigraph,
    TopologicalGraph,
    blowup2,
    medial_graph,
)
from conftest import (
    K4_PLANE_ROTATION,
    complete_rotation_graph,
    reference_serialize_instance,
    rotation_graph,
)


def test_instance_round_trip_is_identity():
    for name in instance_names():
        text = serialize_instance(get_instance(name).graph)
        assert serialize_instance(parse_instance(text)) == text


def test_parse_defaults_rotation():
    g = parse_instance("e 0 0 1\ne 1 1 2\ne 2 0 0\n")
    assert g.rotation[0] == (0, 2, 2)
    assert g.rotation[1] == (0, 1)


def test_parse_default_rotations_in_linear_time():
    # A scan of every edge per vertex took tens of seconds here.
    n = 20_000
    text = "".join(f"e {i} {i} {(i + 1) % n}\n" for i in range(n))
    start = time.perf_counter()
    g = parse_instance(text)
    assert time.perf_counter() - start < 5.0
    assert g.rotation[0] == (0, n - 1) and g.rotation[1] == (0, 1)


def test_parse_comments_and_blank_lines():
    g = parse_instance("# a triangle\n\ne 0 0 1 # first\ne 1 1 2\ne 2 2 0\n")
    assert len(g.edges) == 3


def test_parse_topological_round_trip():
    text = (
        "e 0 0 1\ne 1 2 3\n"
        "rot 0: 0\nrot 1: 0\nrot 2: 1\nrot 3: 1\n"
        "x 0 0 1 0\nseq 0: 0\nseq 1: 0\n"
    )
    tg = parse_instance(text)
    assert isinstance(tg, TopologicalGraph)
    assert serialize_instance(parse_instance(serialize_instance(tg))) == \
        serialize_instance(tg)


def _serializer_corpus():
    graphs = [get_instance(name).graph for name in instance_names()]
    for seed in range(4):
        graphs += [
            gen_regular(30, 4, seed),
            gen_regular(12, 7, seed),
            gen_random_bounded_degree(40, 5, seed),
            gen_random_plane_deg4(50, seed),
            gen_random_outerplane(20, seed),
            gen_henneberg_laman(random_henneberg_steps(25, seed), seed),
        ]
    graphs += [
        RotationGraph((), {}, {}),
        RotationGraph((0, 3, 7), {}, {}),  # isolated, no rotation entries
        RotationGraph((0, 1, 2), {0: (0, 1)}, {0: (0,), 1: (0,)}),  # 2 has none
        RotationGraph((0, 1), {0: (0, 0), 1: (0, 1)}, {0: (0, 1, 0), 1: (1,)}),
        RotationGraph((-3, -1, 0), {-2: (-3, -1), 4: (-1, -1)},
                      {-3: (-2,), -1: (4, -2, 4), 0: ()}),
    ]
    base = parse_instance("e 0 0 1\ne 1 2 3\ne 2 4 5\n")
    graphs.append(TopologicalGraph(base, {0: Crossing(0, 1, 0)}, {0: (0,), 1: (0,), 2: ()}))
    return graphs


def test_serialize_instance_matches_the_line_by_line_reference():
    for g in _serializer_corpus():
        assert serialize_instance(g) == reference_serialize_instance(g)
    crossed = _serializer_corpus()[-1]
    assert serialize_instance(crossed).endswith("x 0 0 1 0\nseq 0: 0\nseq 1: 0\nseq 2:\n")
    assert serialize_instance(RotationGraph((), {}, {})) == ""


def test_serialize_multigraph_matches_the_line_by_line_reference():
    for g in _serializer_corpus():
        g = getattr(g, "base", g)
        multigraphs = [Multigraph(tuple(sorted(g.vertices)), g.edges), medial_graph(g)[0]]
        if not g.has_loops():
            multigraphs.append(blowup2(g))
        for m in multigraphs:
            expected = [f"v {v}" for v in sorted(m.vertices)]
            expected += [f"e {e} {u} {v}" for e, (u, v) in sorted(m.edges.items())]
            assert serialize_multigraph(m) == "".join(line + "\n" for line in expected)


def test_parse_rejects_garbage():
    for bad in ("q 1 2\n", "e 0 0\n", "e 0 0 1\ne 0 1 2\n", "angle 0 0 2\n"):
        with pytest.raises(FormatError):
            parse_instance(bad)


def test_parse_rejects_duplicate_rotation():
    with pytest.raises(FormatError) as exc:
        parse_instance("e 0 0 1\nrot 0: 0 1\nrot 0: 1 0\n")
    assert str(exc.value) == "line 3: duplicate rotation for vertex 0"


# A topological instance with one crossing; each case repeats one record.
CROSSED = "e 0 0 1\ne 1 2 3\nx 0 0 1 0\nseq 0: 0\nseq 1: 0\n"
REPEATED = [
    (CROSSED + "x 0 0 1 1\n", "line 6: duplicate crossing id 0"),
    (CROSSED + "seq 1: 0\n", "line 6: duplicate sequence for edge 1"),
]


@pytest.mark.parametrize("text, message", REPEATED, ids=["x", "seq"])
def test_parse_rejects_repeated_topological_records(text, message):
    with pytest.raises(FormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


# Each crossing must sit once in the sequence of each of its two edges;
# the last two list it twice on one edge and never on the other.
INCONSISTENT_CROSSINGS = [
    "e 0 0 1\ne 1 2 3\nx 0 0 1 0\nseq 0: 0\n",
    "e 0 0 1\ne 1 2 3\nx 0 0 1 0\nseq 0: 0 0\n",
    "e 0 0 1\ne 1 2 3\ne 3 4 5\nx 0 1 3 0\nseq 1:\nseq 3: 0 0\n",
]


def test_parse_rejects_inconsistent_crossing():
    for text in INCONSISTENT_CROSSINGS:
        with pytest.raises(FormatError):
            parse_instance(text)


def test_cover_round_trip():
    asg = AngleAssignment.build({2: [Angle(2, 1, 2)], 0: [Angle(0, 0, 2)]})
    text = serialize_cover(asg)
    assert text == "angle 0 0 2\nangle 2 1 2\n"
    assert serialize_cover(parse_cover(text)) == text


def test_empty_graph_serializes_as_the_empty_string(tmp_path, capsys):
    assert serialize_instance(parse_instance("")) == ""
    assert serialize_multigraph(Multigraph((), {})) == ""
    f = write(tmp_path, "empty.inst", "")
    assert main(["reduce", "3col", f]) == 0
    assert capsys.readouterr().out == ""
    assert main(["decompose", "--verify", f]) == 0
    assert capsys.readouterr().out == "# layer 1\n# layer 2\n"


def test_parse_cover_rejects_garbage():
    with pytest.raises(FormatError):
        parse_cover("angle 0 0\n")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def inst_file(tmp_path, name):
    return write(
        tmp_path, f"{name}.inst", serialize_instance(get_instance(name).graph)
    )


def test_cli_solve_exit_codes(tmp_path, capsys):
    assert main(["solve", "--verify", inst_file(tmp_path, "fig1")]) == 0
    cover = capsys.readouterr().out
    assert cover.startswith("angle ")
    assert main(["solve", inst_file(tmp_path, "fig2a")]) == 1
    assert main(["solve", "--algo", "oracle", inst_file(tmp_path, "fig3")]) == 1


def test_cli_solve_sextet_rounds_delta_up(tmp_path, capsys):
    # Odd maximum degree 5 runs the sextet solver at delta 6, a = 2.
    g = gen_regular(20, 5, 1)
    f = write(tmp_path, "r5.inst", serialize_instance(g))
    assert main(["solve", "--algo", "sextet", "--verify", f]) == 0
    asg = parse_cover(capsys.readouterr().out)
    assert check_cover(g, asg, CoverSpec(2, 2)).valid
    edgeless = write(tmp_path, "e.inst", serialize_instance(rotation_graph([], n=3)))
    assert main(["solve", "--algo", "sextet", "--verify", edgeless]) == 0
    assert capsys.readouterr().out == ""


def test_cli_solve_budget_indeterminate(tmp_path):
    f = inst_file(tmp_path, "fig2a")
    assert main(["solve", "--algo", "oracle", "--budget", "1", f]) == 3


def test_cli_budget_env_bad_value(monkeypatch, capsys):
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("ANGLESET_BUDGET", bad)
        assert main(["instance", "fig1"]) == 2
        assert capsys.readouterr().err.startswith("error: ANGLESET_BUDGET")


def test_cli_budget_env_override(tmp_path, monkeypatch):
    f = inst_file(tmp_path, "fig2a")
    monkeypatch.setenv("ANGLESET_BUDGET", "1")
    assert main(["solve", "--algo", "oracle", f]) == 3
    assert main(["solve", "--algo", "oracle", "--budget", "100000", f]) == 1
    monkeypatch.setenv("ANGLESET_BUDGET", "100000")
    assert main(["solve", "--algo", "oracle", f]) == 1


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_cli_budget_flag_non_positive(tmp_path, capsys, budget):
    fig1 = inst_file(tmp_path, "fig1")
    tri = write(tmp_path, "tri.inst", "e 0 0 1\ne 1 1 2\ne 2 2 0\n")
    witness = ["reduce", "witness", "--angles", "1", "--witness", fig1, tri]
    for argv in (["solve", fig1], witness):
        assert main([*argv[:-1], "--budget", budget, argv[-1]]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --budget is not a positive integer: {budget}\n"
    # decompose has no --budget flag (it reads ANGLESET_BUDGET only), so
    # argparse itself rejects the flag as a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--budget", budget, fig1])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "algo, flags, graph",
    [
        ("2sat", ["--width", "3"], lambda: get_instance("laman-fig6").graph),
        ("deg4", ["--width", "3"], lambda: get_instance("fig1").graph),
        ("deg4", ["--angles", "2"], lambda: get_instance("fig1").graph),
        ("outerplane", ["--angles", "2"], lambda: gen_random_outerplane(12, 0)),
        ("sextet", ["--width", "3"], lambda: get_instance("fig1").graph),
    ],
    ids=["2sat-width3", "deg4-width3", "deg4-angles2", "outerplane-angles2",
         "sextet-width3"],
)
def test_cli_special_solver_rejects_other_specs(tmp_path, capsys, algo, flags, graph):
    # These solvers once ignored the flags: 2sat said NO to a valid (1, 3)
    # instance and deg4 printed width-2 angles as a width-3 cover.
    f = write(tmp_path, "g.inst", serialize_instance(graph()))
    assert main(["solve", "--algo", algo, *flags, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(anglecover.__file__))
    code = "import sys, anglecover.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"


# Standard modules that only record or introspection code would load;
# `dataclasses` imports `inspect`, which costs every CLI call about 10 ms.
HEAVY_STDLIB = {"dataclasses", "inspect"}


def _modules_loaded(tmp_path, argv):
    """The anglecover modules, and those of HEAVY_STDLIB, that a fresh
    interpreter holds after importing the CLI and, unless `argv` is None,
    running it on `argv` with exit 0."""
    code = (
        "import sys\n"
        "from anglecover.cli import main\n"
        f"argv = {argv!r}\n"
        "status = 0 if argv is None else main(argv)\n"
        f"heavy = {HEAVY_STDLIB!r}\n"
        "print(status, *(m for m in sys.modules\n"
        "                if m.startswith('anglecover') or m in heavy))\n"
    )
    src = os.path.dirname(os.path.dirname(anglecover.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    status, *loaded = proc.stdout.splitlines()[-1].split()
    assert status == "0", proc.stderr
    return set(loaded)


def test_cli_import_loads_only_core_and_fileio(tmp_path):
    assert _modules_loaded(tmp_path, None) == {
        "anglecover",
        "anglecover.cli",
        "anglecover.core",
        "anglecover.fileio",
    }


NO_REDUCE = {"anglecover.solve", "anglecover.reduce"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, set()),
        (["instance", "fig1"], NO_REDUCE),
        (["gen", "regular", "-n", "20", "--seed", "1"], NO_REDUCE),
        (["check", "fig1.inst", "fig1.cover"], NO_REDUCE),
        # Only `reduce witness` searches; the other reductions just build.
        (["reduce", "3col", "tri.inst"], {"anglecover.solve"}),
        (["instance", "t-graph"], {"anglecover.solve", "anglecover.transform"}),
        # The orientation both searches share lives in core.
        (["solve", "fig1.inst"], {f"anglecover.{m}" for m in ("density", "allocate", "transform")}),
        # The matching reference is not the density test.
        (["density", "tri.inst"], {f"anglecover.{m}" for m in ("solve", "allocate", "transform")}),
    ],
    ids=["import", "instance", "gen", "check", "reduce-3col", "instance-t-graph", "solve",
         "density"],
)
def test_cli_light_commands_load_no_solver(tmp_path, argv, absent):
    fig1 = get_instance("fig1")
    write(tmp_path, "fig1.inst", serialize_instance(fig1.graph))
    write(tmp_path, "fig1.cover", serialize_cover(fig1.cover))
    write(tmp_path, "tri.inst", serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 0)])))
    loaded = _modules_loaded(tmp_path, argv)
    assert "anglecover.cli" in loaded
    assert not loaded & absent
    assert not loaded & HEAVY_STDLIB


def test_cli_check(tmp_path, capsys):
    f = inst_file(tmp_path, "fig1")
    assert main(["solve", f]) == 0
    cover = write(tmp_path, "c.cover", capsys.readouterr().out)
    assert main(["check", f, cover]) == 0
    bad = write(tmp_path, "bad.cover", "angle 0 0 2\n")
    assert main(["check", f, bad]) == 1


def test_cli_density(tmp_path, capsys):
    tri = write(
        tmp_path,
        "tri.inst",
        serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 0)])),
    )
    assert main(["density", tri]) == 0
    import itertools

    k6 = write(
        tmp_path,
        "k6.inst",
        serialize_instance(
            rotation_graph(list(itertools.combinations(range(6), 2)))
        ),
    )
    assert main(["density", k6]) == 1
    assert "witness:" in capsys.readouterr().out


def test_cli_allocate(tmp_path, capsys):
    sq = write(
        tmp_path,
        "sq.inst",
        serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 3), (3, 0)])),
    )
    assert main(["allocate", "--verify", sq]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# size 2\n")


def test_cli_decompose(tmp_path, capsys):
    text = (
        "e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\n"
        "rot 0: 3 0\nrot 1: 0 1\nrot 2: 1 2\nrot 3: 2 3\n"
    )
    f = write(tmp_path, "sq.inst", text)
    assert main(["decompose", "--verify", f]) == 0
    out = capsys.readouterr().out
    assert "# layer 1" in out and "# layer 2" in out


def test_cli_decompose_rejects_a_partial_cover(tmp_path, capsys):
    tri = write(tmp_path, "tri.inst", serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 0)])))
    part = write(tmp_path, "part.cover", "angle 0 0 2\n")
    assert main(["decompose", tri, part]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: assignment is not a cover: "
        "CoverCheck(valid=False, uncovered_edges=(1,), violations=())\n"
    )


def test_cli_decompose_solves_as_solve_auto(tmp_path, capsys):
    # Maximum degree 5 and no degree-3 vertex: auto picks 2-SAT, whose
    # cover differs from the oracle's.
    star = rotation_graph([(0, i) for i in range(1, 6)])
    f = write(tmp_path, "star.inst", serialize_instance(star))
    assert main(["solve", f]) == 0
    cover = write(tmp_path, "star.cov", capsys.readouterr().out)
    assert main(["decompose", f, cover]) == 0
    layers = capsys.readouterr().out
    assert main(["decompose", f]) == 0
    assert capsys.readouterr().out == layers


def test_cli_reduce_and_resolve(tmp_path, capsys):
    tri = write(
        tmp_path,
        "tri.inst",
        serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 0)])),
    )
    assert main(["reduce", "3col", tri]) == 0
    reduced = write(tmp_path, "red.inst", capsys.readouterr().out)
    assert main(["solve", reduced]) == 0


@pytest.mark.parametrize("variant", ["3col", "multi", "2angle8"])
def test_cli_reduce_isolated_source_vertex(tmp_path, capsys, variant):
    f = write(tmp_path, "tri.inst", "e 0 0 1\ne 1 1 2\ne 2 2 0\nv 3\n")
    assert main(["reduce", variant, f]) == 0
    assert validate_graph(parse_instance(capsys.readouterr().out)) == []


@pytest.mark.parametrize(
    "variant", [["3col"], ["multi", "--angles", "2"], ["2angle8"], ["wide", "--width", "3"]],
    ids=["3col", "multi", "2angle8", "wide"],
)
@pytest.mark.parametrize(
    "edges, message",
    [
        ("e 0 0 0\ne 1 0 1\n", "input graph must be loop-free"),
        ("e 0 0 1\ne 1 0 1\ne 2 1 2\n", "input graph must be simple"),
    ],
    ids=["loop", "parallel"],
)
def test_cli_reduce_rejects_a_non_simple_source(tmp_path, capsys, variant, edges, message):
    f = write(tmp_path, "src.inst", edges)
    assert main(["reduce", *variant, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_reduce_witness_with_long_path(tmp_path, capsys):
    # fig2a plus a disjoint 1100-vertex path is still a witness; the
    # maximum-coverage search once recursed per vertex and hit the limit.
    w = get_instance("fig2a").graph
    edges, rotation = dict(w.edges), {v: list(r) for v, r in w.rotation.items()}
    path = range(max(w.vertices) + 1, max(w.vertices) + 1101)
    for v in path:
        rotation[v] = []
    for e, u in enumerate(path[:-1], start=max(edges) + 1):
        edges[e] = (u, u + 1)
        rotation[u].append(e)
        rotation[u + 1].append(e)
    witness = RotationGraph.build([*w.vertices, *path], edges, rotation)
    wf = write(tmp_path, "w.inst", serialize_instance(witness))
    tri = write(
        tmp_path,
        "tri.inst",
        serialize_instance(rotation_graph([(0, 1), (1, 2), (2, 0)])),
    )
    assert main(["reduce", "witness", "--angles", "1", "--witness", wf, tri]) == 0
    assert validate_graph(parse_instance(capsys.readouterr().out)) == []


def test_cli_reduce_witness_fig2b_is_fast(tmp_path, capsys):
    # The maximum-coverage search once took about 40 s on this witness.
    w = inst_file(tmp_path, "fig2b")
    tri = write(tmp_path, "tri.inst", "e 0 0 1\ne 1 1 2\ne 2 2 0\n")
    start = time.perf_counter()
    assert main(["reduce", "witness", "--angles", "1", "--witness", w, tri]) == 0
    assert time.perf_counter() - start < 5.0
    h = parse_instance(capsys.readouterr().out)
    assert validate_graph(h) == [] and len(h.edges) == 3  # |D| = 1 copy


def test_cli_gen_pipes_into_solve(tmp_path, capsys):
    assert main(["gen", "laman", "--steps", "5", "--seed", "3"]) == 0
    f = write(tmp_path, "g.inst", capsys.readouterr().out)
    assert main(["solve", f]) in (0, 1)


def test_cli_instance_unknown_name(capsys):
    assert main(["instance", "nope"]) == 2
    # str() of the KeyError once wrapped this line in double quotes.
    assert capsys.readouterr().err == (
        "error: unknown instance 'nope'; known: fig1, fig2a, fig2b, fig3,"
        " fig4-no, fig4-yes, laman-fig6, t-graph\n"
    )


def test_cli_instance_help_lists_the_catalogue(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a name
    with pytest.raises(SystemExit) as exit_info:
        main(["instance", "--help"])
    assert exit_info.value.code == 0
    listed = re.search(r"one of: (.*)", capsys.readouterr().out).group(1)
    assert listed.split(", ") == instance_names()


def test_cli_gen_laman_at_scale():
    src = os.path.dirname(os.path.dirname(anglecover.__file__))
    t0 = time.perf_counter()
    cmd = ["gen", "laman", "--steps", "40000", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "anglecover.cli", *cmd],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - t0 < 5.0
    assert proc.returncode == 0, proc.stderr
    g = parse_instance(proc.stdout)
    assert validate_graph(g) == []
    assert len(g.vertices) == 40_002 and len(g.edges) == 2 * 40_002 - 3


def test_cli_gen_laman_rejects_negative_steps(capsys):
    # A negative count once ran as 0 and printed the seed edge.
    assert main(["gen", "laman", "--steps", "-1", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_io_error():
    assert main(["solve", "/does/not/exist.inst"]) == 2


def test_cli_rejects_duplicate_rotation(tmp_path, capsys):
    f = write(tmp_path, "d.inst", "e 0 0 0\nrot 0: 0 0\nrot 0: 0 0\n")
    assert main(["solve", f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 3: duplicate rotation for vertex 0"]


def test_cli_rejects_topological_input_to_solve(tmp_path):
    text = (
        "e 0 0 1\ne 1 2 3\n"
        "rot 0: 0\nrot 1: 0\nrot 2: 1\nrot 3: 1\n"
        "x 0 0 1 0\nseq 0: 0\nseq 1: 0\n"
    )
    f = write(tmp_path, "t.inst", text)
    assert main(["solve", f]) == 2
    assert main(["planarize", f]) == 0


@pytest.mark.parametrize("text, message", REPEATED, ids=["x", "seq"])
def test_cli_planarize_rejects_repeated_topological_records(tmp_path, capsys, text, message):
    f = write(tmp_path, "t.inst", text)
    assert main(["planarize", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_cli_planarize_rejects_negative_edge_id(tmp_path, capsys):
    # Piece ids of a negative edge id collide with another edge's pieces.
    f = write(tmp_path, "n.inst", "e -1 0 1\ne 0 1 2\n")
    assert main(["planarize", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: edge -1: negative edge id"]


# Each base rotation is invalid; every other command rejects the first.
BAD_ROTATION = [
    ("e 0 0 1\ne 1 1 2\nrot 1: 1 0 1\n",
     "edge 1=(1,2) occurs 2 times in rotation of 1, expected 1"),
    (CROSSED + "rot 4: 0\n", "vertex 4: rotation lists non-incident edge 0"),
]


@pytest.mark.parametrize("text, message", BAD_ROTATION, ids=["plain", "crossed"])
def test_cli_planarize_rejects_an_invalid_rotation(tmp_path, capsys, text, message):
    f = write(tmp_path, "r.inst", text)
    assert main(["planarize", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("text", INCONSISTENT_CROSSINGS[1:], ids=["one-seq", "empty-seq"])
def test_cli_planarize_rejects_a_crossing_twice_on_one_edge(tmp_path, capsys, text):
    f = write(tmp_path, "x.inst", text)
    assert main(["planarize", f]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: crossing 0: ")


@pytest.mark.parametrize(
    "rotation", [K4_PLANE_ROTATION, None], ids=["plane", "nonplane"]
)
def test_cli_solve_outerplane_rejects_k4(tmp_path, capsys, rotation):
    g = complete_rotation_graph(4, rotation)
    f = write(tmp_path, "k4.inst", serialize_instance(g))
    assert main(["solve", "--algo", "outerplane", f]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_internal_error_exits_4_with_one_line(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver fault\nsecond line")

    monkeypatch.setattr("anglecover.solve.oracle_solve", broken)
    assert main(["solve", "--algo", "oracle", inst_file(tmp_path, "fig1")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: solver fault second line\n"


def test_cli_failed_self_check_exits_4(tmp_path, monkeypatch, capsys):
    # A cover or decomposition that fails its own check is a fault of the
    # program; it once exited 2, which reads as a usage error.
    monkeypatch.setattr(
        "anglecover.cli.check_cover", lambda *args: CoverCheck(False, (0,), ())
    )
    monkeypatch.setattr(
        "anglecover.thickness.verify_decomposition",
        lambda *args: DecompositionCheck(False, ("layer 1 not plane",)),
    )
    f = inst_file(tmp_path, "fig1")
    for command in ("solve", "allocate", "decompose"):
        assert main([command, "--verify", f]) == 4, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: RuntimeError: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "gen, algo",
    [
        (["regular", "-n", "1000", "--degree", "3"], "oracle"),
        (["outerplane", "-n", "1500"], "outerplane"),
    ],
)
def test_cli_solve_large_search_inputs(tmp_path, capsys, gen, algo):
    # Both searches once recursed per step and died at the default
    # recursion limit; the CLI then exited 1, which reads as NO.
    assert main(["gen", *gen, "--seed", "5"]) == 0
    f = write(tmp_path, "big.inst", capsys.readouterr().out)
    src = os.path.dirname(os.path.dirname(anglecover.__file__))
    cmd = ["solve", "--algo", algo, "--verify", f]
    proc = subprocess.run(
        [sys.executable, "-m", "anglecover.cli", *cmd],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("angle ")


def test_cli_reduce_witness_budget_exhausted_is_indeterminate(
    tmp_path, capsys, monkeypatch
):
    w = inst_file(tmp_path, "fig2a")
    tri = write(tmp_path, "tri.inst", "e 0 0 1\ne 1 1 2\ne 2 2 0\n")
    argv = ["reduce", "witness", "--angles", "1", "--witness", w, tri]
    assert main([*argv[:2], "--budget", "1", *argv[2:]]) == 3
    assert capsys.readouterr() == ("", "INDETERMINATE: search budget exhausted\n")
    monkeypatch.setenv("ANGLESET_BUDGET", "1")
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "INDETERMINATE: search budget exhausted\n")
