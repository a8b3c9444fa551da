import hashlib
import itertools
import random
import time

import pytest

from anglecover.core import (
    BASIC_SPEC,
    CoverSpec,
    UnsupportedInputError,
    check_cover,
    validate_graph,
)
from anglecover.fileio import serialize_instance
from anglecover.reduce import (
    InvalidWitnessError,
    _build_witness_reduction,
    build_T,
    extract_3colouring,
    max_coverage,
    reduce_2angle_deg8,
    reduce_3col,
    reduce_multi,
    reduce_wide,
    reduce_witness,
)
from anglecover.solve import oracle_solve
from anglecover.transform import Multigraph
from conftest import (
    brute_3col,
    check_3colouring,
    complete_graph,
    connected_simple_graphs,
    edge_slots,
    multigraph,
    random_fixed_degree_graph,
    rotation_graph,
)


def all_small_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1, 2 ** len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if bits >> i & 1]
        if {v for p in chosen for v in p} == set(range(n)):
            yield multigraph(n, chosen)


def test_reduce_3col_sizes():
    for g in (complete_graph(3), complete_graph(4)):
        h, _ = reduce_3col(g)
        n, m = len(g.vertices), len(g.edges)
        assert len(h.vertices) == n + 18 * m
        assert len(h.edges) == 21 * m
        assert h.max_degree() <= 5
        assert validate_graph(h) == []


def test_reduce_3col_k3_yes_with_proper_extraction():
    g = complete_graph(3)
    h, gmap = reduce_3col(g)
    cert = oracle_solve(h)
    assert cert.is_yes
    col = extract_3colouring(h, cert.assignment, gmap)
    assert check_3colouring(g, col)


def test_reduce_3col_k4_no():
    h, _ = reduce_3col(complete_graph(4))
    assert oracle_solve(h).is_no


def test_reduce_3col_matches_bruteforce_small():
    rng = random.Random(9)
    cases = list(all_small_graphs(3)) + list(all_small_graphs(4))
    for _ in range(15):
        pairs = list(itertools.combinations(range(5), 2))
        chosen = [p for p in pairs if rng.random() < 0.5]
        if {v for p in chosen for v in p} != set(range(5)):
            continue
        cases.append(multigraph(5, chosen))
    for g in cases:
        h, gmap = reduce_3col(g)
        cert = oracle_solve(h)
        assert cert.verdict == brute_3col(g)
        if cert.is_yes:
            col = extract_3colouring(h, cert.assignment, gmap)
            assert check_3colouring(g, col)


def test_reduce_3col_rejects_loops_and_parallels():
    with pytest.raises(UnsupportedInputError):
        reduce_3col(Multigraph((0, 1), {0: (0, 0), 1: (0, 1)}))
    with pytest.raises(UnsupportedInputError):
        reduce_3col(Multigraph((0, 1), {0: (0, 1), 1: (0, 1)}))


def test_reduce_multi_degree_bounds():
    g = complete_graph(3)
    for a in (2, 3):
        h = reduce_multi(g, a)
        assert h.max_degree() == 4 * a + 1
        assert validate_graph(h) == []


def test_build_t_shape():
    t = build_T()
    internal = [v for v in t.graph.vertices if v != t.external]
    assert len(internal) == 9 and len(t.graph.edges) == 37
    assert all(t.graph.deg(v) == 8 for v in internal)
    assert validate_graph(t.graph) == []


def test_t_fragment_free_yes_forced_no():
    t = build_T()
    spec = CoverSpec(2, 2)
    cert = oracle_solve(t.graph, spec)
    assert cert.is_yes
    assert check_cover(t.graph, cert.assignment, spec).valid
    hubs = {e: [w for w in t.graph.edges[e] if w != t.external][0]
            for e in t.stub_edges}
    forced = {e: hubs[e] for e in t.stub_edges}
    assert oracle_solve(t.graph, spec, forced=forced).is_no


def test_reduce_2angle_deg8_bounds():
    h = reduce_2angle_deg8(complete_graph(3))
    assert h.max_degree() == 8
    assert validate_graph(h) == []


@pytest.mark.parametrize(
    "reduce",
    [lambda g: reduce_multi(g, 2), lambda g: reduce_multi(g, 3), reduce_2angle_deg8],
    ids=["multi-a2", "multi-a3", "2angle8"],
)
def test_isolated_source_vertex_keeps_a_bare_centre(reduce):
    # Blockers once hung on the isolated vertex's bare centre, and the
    # centre-degree self-check failed.
    h = reduce(complete_graph(3))
    h_iso = reduce(multigraph(4, [(0, 1), (0, 2), (1, 2)]))
    assert validate_graph(h_iso) == []
    assert len(h_iso.vertices) == len(h.vertices) + 1
    assert len(h_iso.edges) == len(h.edges)
    assert [h_iso.deg(v) for v in h_iso.vertices].count(0) == 1
    assert len(reduce(multigraph(2, [])).edges) == 0


def test_reduce_wide_equivalence():
    spec = CoverSpec(1, 3)
    assert oracle_solve(reduce_wide(complete_graph(3), 3), spec).is_yes
    assert oracle_solve(reduce_wide(complete_graph(4), 3), spec).is_no


def test_reduce_wide_degree():
    for m in (3, 4):
        h = reduce_wide(complete_graph(3), m)
        assert h.max_degree() == 2 * m + 1
        assert validate_graph(h) == []


def test_max_coverage_exact():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    best, asg = max_coverage(g, CoverSpec(1, 2))
    assert best == 3
    assert check_cover(g, asg, CoverSpec(1, 2)).valid


def test_max_coverage_uncoverable_instance():
    from anglecover.instances import get_instance

    g = get_instance("fig2a").graph
    best, asg = max_coverage(g, BASIC_SPEC)
    assert best == len(covered_edges(g, asg))
    assert best == len(g.edges) - 1  # one short of a full basic cover


def test_max_coverage_skips_counting_bound_steps():
    # The slowest of 300 such graphs: its optimum leaves 6 edges
    # uncovered, which is exactly |E| minus the slots its vertices can
    # cover, so no step below 6 needs a search.
    rng = random.Random(1)
    for _ in range(67):
        g = random_fixed_degree_graph(rng, rng.randint(3, 10), (3, 4, 5, 6))
    assert (len(g.vertices), len(g.edges)) == (10, 26)
    t0 = time.perf_counter()
    best, asg = max_coverage(g, BASIC_SPEC)
    assert time.perf_counter() - t0 < 1.0
    assert best == len(g.edges) - 6
    chk = check_cover(g, asg, BASIC_SPEC)
    assert len(chk.uncovered_edges) == 6 and not chk.violations


_K3, _K4 = complete_graph(3), complete_graph(4)
_C5 = multigraph(5, [(i, (i + 1) % 5) for i in range(5)])
_K3_ISO = multigraph(4, [(0, 1), (0, 2), (1, 2)])  # K3 plus an isolated vertex

# sha256 of serialize_instance of each reduction output.
PINNED_REDUCTIONS = [
    ("3col-K4", lambda: reduce_3col(_K4)[0],
     "896099b2a15cbb5d3cace199a8fb6a0ddb8da953a0022aaaf30525d385b70b23"),
    ("3col-C5", lambda: reduce_3col(_C5)[0],
     "a948f609192b353f48975289eb18f8c7d17021c3dd12e49fc92b9f9034dc70d9"),
    ("multi-K4-a2", lambda: reduce_multi(_K4, 2),
     "96ae2f34a47ab591c9415c05940c03b0042c1e2d3ce76b31b8bd2fca029a3144"),
    ("multi-K3-a3", lambda: reduce_multi(_K3, 3),
     "7c9c7acdd85b69c854ecb4bd015bf7ade4d6690b7fd2353a7dd82b242f42b052"),
    ("multi-K3iso-a2", lambda: reduce_multi(_K3_ISO, 2),
     "c7a166a31969fd603f51f93bd2b585b11433f6ce831e385bed1fc395926f84bb"),
    ("2angle8-K4", lambda: reduce_2angle_deg8(_K4),
     "c68fd9e0542ea3449ad2dd2627706749f02db3a753fa359bf53ffd1310b80da0"),
    ("2angle8-K3iso", lambda: reduce_2angle_deg8(_K3_ISO),
     "87b6629fc76727da4cdabcb9d615165ae0020cc1b7338e8e340ccb1d673efb35"),
    ("wide-K4-m3", lambda: reduce_wide(_K4, 3),
     "8a21ad6360afbcf025f81ae99cbfc70dfb6d7c12441255de82b20e0f093f3765"),
    ("wide-C5-m4", lambda: reduce_wide(_C5, 4),
     "ddb8f107db30cd1bcfe6283e03a85138c459307cfd93ba6cb705bc6337e5a2ee"),
    ("T", lambda: build_T().graph,
     "f402cb9f441e4b700be421c075add690669bfe05a9d0106d6269cc2e59919a82"),
]


@pytest.mark.parametrize(
    "build, digest",
    [p[1:] for p in PINNED_REDUCTIONS],
    ids=[p[0] for p in PINNED_REDUCTIONS],
)
def test_reduction_bytes_are_pinned(build, digest):
    text = serialize_instance(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def covered_edges(g, asg):
    covered = set()
    slots = {v: {s for a in asg.angles.get(v, ()) for s in a.slots(g.deg(v))}
             for v in g.vertices}
    for e, (u, v) in g.edges.items():
        for w in (u, v):
            if any(s in slots[w] for s in edge_slots(g, w).get(e, ())):
                covered.add(e)
    return covered


def test_reduce_witness_rejects_coverable_witness():
    tri = rotation_graph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidWitnessError):
        reduce_witness(tri, tri, 2)


def test_reduce_witness_rejects_budget_exhaustion():
    from anglecover.instances import get_instance

    w = get_instance("fig2a").graph
    tri = rotation_graph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidWitnessError):
        reduce_witness(tri, w, 1, budget=1)


def test_reduce_witness_a1_triangle():
    from anglecover.instances import get_instance

    w = get_instance("fig2a").graph
    tri = rotation_graph([(0, 1), (1, 2), (2, 0)])
    h = reduce_witness(tri, w, 1)
    assert validate_graph(h) == []
    assert h.max_degree() <= 5
    # a = 1: no witness copies are stacked, just |D| relabelled input copies.
    cert = oracle_solve(h, CoverSpec(1, 2))
    assert cert.verdict == oracle_solve(tri, CoverSpec(1, 2)).verdict


# Two witnesses with loops; each D list holds loops and an edge listed
# from its larger end (W1's edge 1, W2's edge 5), in no sorted order.
_W1 = rotation_graph([(0, 0), (1, 0), (1, 2), (2, 2), (2, 0)],
                     {0: (0, 1, 0, 4), 1: (2, 1), 2: (3, 4, 2, 3)})
_W2 = rotation_graph([(0, 1), (1, 1), (1, 2), (2, 0), (0, 0), (2, 1)],
                     {0: (4, 0, 3, 4), 1: (1, 5, 0, 2, 1), 2: (3, 5, 2)})
_SRC = rotation_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
# sha256 of serialize_instance of `_build_witness_reduction(_SRC, W, D, a)`.
PINNED_WITNESS_REDUCTIONS = [
    ("W1-a1", _W1, [0, 1, 3], 1,
     "dbc37708c713e5fdffb8c190670d128af74a81d7a48643113e2442b033a00050"),
    ("W1-a2", _W1, [0, 1, 3], 2,
     "01051f3f2b90f7a7d00ffb1038159a6f44b5abcf0b4fd8f1db794010331e7a0b"),
    ("W1-a3", _W1, [0, 1, 3], 3,
     "a77a21460996c5cfd37e2c55b3c88af3b4a20aeb7a54f4c2ed0cd7eaadd028b8"),
    ("W2-a1", _W2, [4, 1, 5, 0], 1,
     "6decd47bfd7976542bc959f6e1b0f08781502ae4d3e24e0f8cdf677f9cab5d2c"),
    ("W2-a2", _W2, [4, 1, 5, 0], 2,
     "0e5d3e30002e85ecdc6a31ee7778da0c0d6bdf384de152cfa02b4fdde461c27e"),
    ("W2-a3", _W2, [4, 1, 5, 0], 3,
     "3819e41a686e95c7998d557a58a0a70511659f99dcee937ba238b993b246a501"),
]


@pytest.mark.parametrize(
    "witness, d_edges, a, digest",
    [p[1:] for p in PINNED_WITNESS_REDUCTIONS],
    ids=[p[0] for p in PINNED_WITNESS_REDUCTIONS],
)
def test_witness_reduction_bytes_are_pinned(witness, d_edges, a, digest):
    h = _build_witness_reduction(_SRC, witness, d_edges, a)
    assert validate_graph(h) == []
    text = serialize_instance(h)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reduce_witness_degree_bound():
    from anglecover.instances import get_instance

    w = get_instance("fig2a").graph
    sq = rotation_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    h = reduce_witness(sq, w, 1)
    assert h.max_degree() <= 2 * 1 + 3


@pytest.mark.parametrize(
    "reduce",
    [reduce_2angle_deg8, lambda g: reduce_multi(g, 2)],
    ids=["2angle_deg8", "multi-a2"],
)
def test_two_angle_reductions_are_equivalences_on_k3_and_k4(reduce):
    # K3 is 3-colourable and K4 is not; the oracle decides both outputs.
    spec = CoverSpec(2, 2)
    h = reduce(complete_graph(3))
    cert = oracle_solve(h, spec)
    assert cert.is_yes
    assert check_cover(h, cert.assignment, spec).valid
    assert oracle_solve(reduce(complete_graph(4)), spec).is_no


def _equivalence_sources():
    """Every connected source with at most 4 vertices (44), then 25 random
    5-vertex sources: rng seed 6, each pair an edge with probability 0.6
    (21 are 3-colourable)."""
    sources = [g for n in range(1, 5) for g in connected_simple_graphs(n)]
    rng = random.Random(6)
    pairs = list(itertools.combinations(range(5), 2))
    for _ in range(25):
        sources.append(multigraph(5, [p for p in pairs if rng.random() < 0.6]))
    return sources


@pytest.mark.parametrize(
    "reduce, spec",
    [
        (lambda g: reduce_multi(g, 2), CoverSpec(2, 2)),
        (lambda g: reduce_multi(g, 3), CoverSpec(3, 2)),
        (reduce_2angle_deg8, CoverSpec(2, 2)),
    ],
    ids=["multi-a2", "multi-a3", "2angle_deg8"],
)
def test_reduction_verdict_is_brute_3col(reduce, spec):
    sources = _equivalence_sources()
    want = [brute_3col(g) for g in sources]
    assert len(sources) == 69 and want[44:].count("YES") == 21
    failures = []
    for g, expected in zip(sources, want):
        h = reduce(g)
        cert = oracle_solve(h, spec)
        if cert.verdict != expected:
            failures.append((sorted(g.edges.values()), cert.verdict, expected))
        elif cert.is_yes and not check_cover(h, cert.assignment, spec).valid:
            failures.append((sorted(g.edges.values()), "invalid cover", expected))
    assert not failures, failures


def test_brute_3col_known_values():
    assert brute_3col(complete_graph(3)) == "YES"
    assert brute_3col(complete_graph(4)) == "NO"
    cycle5 = multigraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert brute_3col(cycle5) == "YES"
