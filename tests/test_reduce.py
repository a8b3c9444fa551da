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
from anglecover.reduce import (
    InvalidWitnessError,
    brute_3col,
    build_T,
    check_3colouring,
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
    complete_graph,
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


def covered_edges(g, asg):
    covered = set()
    slots = {v: {s for a in asg.angles.get(v, ()) for s in a.slots(g.deg(v))}
             for v in g.vertices}
    for e, (u, v) in g.edges.items():
        for w in (u, v):
            if any(s in slots[w] for s in g.edge_slots(w).get(e, ())):
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


def test_reduce_witness_degree_bound():
    from anglecover.instances import get_instance

    w = get_instance("fig2a").graph
    sq = rotation_graph([(0, 1), (1, 2), (2, 3), (3, 0)])
    h = reduce_witness(sq, w, 1)
    assert h.max_degree() <= 2 * 1 + 3


def test_brute_3col_known_values():
    assert brute_3col(complete_graph(3)) == "YES"
    assert brute_3col(complete_graph(4)) == "NO"
    cycle5 = multigraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert brute_3col(cycle5) == "YES"
