import itertools
import random
import time

import pytest

from anglecover.core import (
    BASIC_SPEC,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    trace_faces,
)
from anglecover.instances import (
    gen_random_bounded_degree,
    gen_random_outerplane,
    gen_regular,
    get_instance,
)
from anglecover.reduce import reduce_2angle_deg8
from anglecover.solve import (
    min_allocation_bruteforce,
    min_arc_cover,
    oracle_solve,
    solve_deg4,
    solve_no_deg3,
    solve_outerplane,
    solve_sextet,
)
from conftest import (
    K4_PLANE_ROTATION,
    complete_graph,
    complete_rotation_graph,
    disjoint_union,
    naive_cover_search,
    random_fixed_degree_graph,
    random_rotation_graph,
    rotation_graph,
)


def brute_arc_cover(deg, slots, m):
    pts = sorted(slots)
    for k in range(1, len(pts) + 1):
        for starts in itertools.combinations(range(deg), k):
            covered = {(s + t) % deg for s in starts for t in range(min(m, deg))}
            if all(p in covered for p in pts):
                return k
    return 0


def test_min_arc_cover_vs_bruteforce():
    rng = random.Random(17)
    for _ in range(1500):
        deg = rng.randint(1, 10)
        m = rng.randint(1, 4)
        k = rng.randint(0, deg)
        slots = set(rng.sample(range(deg), k))
        count, arcs = min_arc_cover(deg, slots, m)
        assert count == brute_arc_cover(deg, slots, m)
        covered = {(s + t) % deg for s in arcs for t in range(min(m, deg))}
        assert slots <= covered and len(arcs) == count


def test_min_arc_cover_wrapped_points():
    # Points straddling the wrap; first-start candidates must sweep cyclically.
    count, _ = min_arc_cover(8, {0, 3, 6}, 2)
    assert count == 3


def test_oracle_matches_naive_search():
    rng = random.Random(23)
    for _ in range(150):
        g = random_rotation_graph(rng, n_max=5, e_max=7, loops=True)
        a = rng.randint(1, 3)
        m = rng.randint(2, 3)
        spec = CoverSpec(a, m)
        cert = oracle_solve(g, spec)
        assert cert.verdict == naive_cover_search(g, spec)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, spec).valid


def test_oracle_on_figure_corpus():
    for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4-no", "fig4-yes"):
        inst = get_instance(name)
        cert = oracle_solve(inst.graph)
        assert cert.verdict == inst.expected, name
        if cert.is_yes:
            assert check_cover(inst.graph, cert.assignment, BASIC_SPEC).valid


def test_oracle_budget_indeterminate():
    g = complete_rotation_graph(8)
    assert oracle_solve(g, BASIC_SPEC, budget=1).verdict == "INDETERMINATE"


def test_oracle_budget_bounds_an_undecided_search():
    # The degree-8 reduction of K3 is YES, but the oracle cannot decide it
    # in reasonable time; a small budget must stop it with INDETERMINATE.
    h = reduce_2angle_deg8(complete_graph(3))
    t0 = time.perf_counter()
    cert = oracle_solve(h, CoverSpec(2, 2), budget=5000)
    assert cert.verdict == "INDETERMINATE"
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_regular3_n1000(seed):
    # Runs at the default recursion limit: the search is a loop.
    g = gen_regular(1000, 3, seed)
    cert = oracle_solve(g)
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_outerplane_n1500(seed):
    g = gen_random_outerplane(1500, seed)
    cert = solve_outerplane(g)
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def doubled_every_fifth_edge(g):
    """`g` with a parallel copy of every edge whose id is 0 mod 5, drawn
    next to it: right after it at its first endpoint, right before it at
    its second, so the embedding stays outerplane."""
    edges = dict(g.edges)
    rotation = {v: list(r) for v, r in g.rotation.items()}
    copy = max(edges) + 1
    for e in sorted(g.edges):
        if e % 5:
            continue
        u, v = edges[copy] = g.edges[e]
        rotation[u].insert(rotation[u].index(e) + 1, copy)
        rotation[v].insert(rotation[v].index(e), copy)
        copy += 1
    return RotationGraph.build(g.vertices, edges, rotation)


@pytest.mark.parametrize("n", [16, 20])
def test_solve_outerplane_multigraph(n):
    # A backtracking peel took 4.9 s at n = 16 and over 50 s at n = 20.
    g = doubled_every_fifth_edge(gen_random_outerplane(n, 0))
    start = time.perf_counter()
    cert = solve_outerplane(g)
    assert time.perf_counter() - start < 2.0
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


@pytest.mark.parametrize(
    "rotation", [K4_PLANE_ROTATION, None], ids=["plane", "nonplane"]
)
def test_solve_outerplane_rejects_non_outerplane(rotation):
    g = complete_rotation_graph(4, rotation)
    assert trace_faces(g).is_plane == (rotation is not None)
    with pytest.raises(UnsupportedInputError):
        solve_outerplane(g)


def test_oracle_forced_flips_verdict():
    spec = CoverSpec(1, 2)
    star = rotation_graph([(0, 1), (0, 2), (0, 3)])
    assert oracle_solve(star, spec).is_yes
    # Leaves are free; force all edges to the centre instead.
    forced = {e: 0 for e in star.edges}
    assert oracle_solve(star, spec, forced=forced).is_no


def test_solve_deg4_matches_oracle():
    rng = random.Random(31)
    for _ in range(200):
        g = random_fixed_degree_graph(rng, rng.randint(2, 9), (1, 2, 3, 4))
        cert = solve_deg4(g)
        assert cert.verdict == oracle_solve(g).verdict
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def test_solve_deg4_on_generator_output():
    for seed in range(20):
        g = gen_random_bounded_degree(40, 4, seed)
        # A disjoint union pads deficient vertices across its components.
        union = disjoint_union(g, gen_random_bounded_degree(seed + 1, 4, seed + 50))
        for h in (g, union):
            cert = solve_deg4(h)
            assert cert.verdict in ("YES", "NO")
            if cert.is_yes:
                assert check_cover(h, cert.assignment, BASIC_SPEC).valid


def test_solve_no_deg3_matches_oracle():
    rng = random.Random(41)
    for _ in range(150):
        g = random_fixed_degree_graph(rng, rng.randint(2, 8), (1, 2, 4, 5))
        cert = solve_no_deg3(g)
        assert cert.verdict == oracle_solve(g).verdict
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def _with_loops(rng, g):
    """g plus a loop, both slots at random places, at some vertices of
    degree >= 2, so no vertex reaches degree 3."""
    edges = dict(g.edges)
    rotation = {v: list(g.rotation[v]) for v in g.vertices}
    for v in g.vertices:
        if g.deg(v) >= 2 and rng.random() < 0.5:
            e = len(edges)
            edges[e] = (v, v)
            for _ in range(2):
                rotation[v].insert(rng.randint(0, len(rotation[v])), e)
    return RotationGraph.build(g.vertices, edges, rotation)


def test_solve_no_deg3_matches_oracle_at_high_degree():
    # Degrees up to 8, with and without extra loops, exercise the
    # per-dart variables at vertices with many slots.
    rng = random.Random(43)
    for i in range(300):
        g = random_fixed_degree_graph(rng, rng.randint(1, 7), (1, 2, 4, 6, 8))
        if i % 2:
            g = _with_loops(rng, g)
        cert = solve_no_deg3(g)
        assert cert.verdict == oracle_solve(g).verdict, i
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid, i


def test_solve_sextet_produces_valid_cover():
    # Delta mod 6 takes each of 0, 2 and 4.  The bounded-degree graphs are
    # non-regular and have loops, so they and their disjoint unions
    # exercise the padding.
    for delta in (2, 4, 6, 8, 10, 12, 14, 16):
        spec = CoverSpec(delta // 2 - delta // 6, 2)
        for seed in range(10):
            bounded = gen_random_bounded_degree(5 + 3 * seed, delta, seed)
            graphs = [
                gen_regular(18, delta, seed),
                bounded,
                disjoint_union(bounded, gen_random_bounded_degree(seed + 1, delta, seed + 50)),
            ]
            for g in graphs:
                cert = solve_sextet(g, delta)
                assert cert.is_yes
                assert check_cover(g, cert.assignment, spec).valid


def test_solve_outerplane_matches_oracle():
    for seed in range(30):
        g = gen_random_outerplane(9, seed)
        cert = solve_outerplane(g)
        assert cert.verdict == oracle_solve(g).verdict
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def test_min_allocation_bruteforce_triangle():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    size, asg = min_allocation_bruteforce(g)
    assert size == 2
    assert check_cover(g, asg, CoverSpec(3, 2)).valid


def test_min_allocation_bruteforce_cap():
    g = complete_rotation_graph(7)
    with pytest.raises(UnsupportedInputError):
        min_allocation_bruteforce(g)
