"""Acceptance gate: one test per criterion, one pass/fail line each."""

import itertools
import random
import time

import pytest

from anglecover.core import BASIC_SPEC, CoverSpec, check_cover, coverable_slots, trace_faces
from anglecover.density import check_low_density
from anglecover.instances import (
    gen_henneberg_laman,
    gen_random_bounded_degree,
    gen_random_plane_deg4,
    gen_regular,
    get_instance,
    random_henneberg_steps,
)
from anglecover.allocate import max_matching_general, optimal_allocation
from anglecover.reduce import (
    build_T,
    extract_3colouring,
    reduce_2angle_deg8,
    reduce_3col,
    reduce_multi,
    reduce_wide,
)
from anglecover.solve import (
    oracle_solve,
    solve_deg4,
    solve_no_deg3,
    solve_sextet,
)
from anglecover.thickness import blowup_decomposition, verify_decomposition
from anglecover.transform import Crossing, Multigraph, TopologicalGraph, medial_graph, planarize
from conftest import (
    brute_3col,
    check_3colouring,
    complete_graph,
    complete_rotation_graph,
    connected,
    connected_simple_graphs,
    min_allocation_bruteforce,
    multigraph,
    random_fixed_degree_graph,
    random_rotation_graph,
    rotation_graph,
)


def test_criterion_01_deg4_universality_and_scaling():
    rng = random.Random(1)
    for seed in range(500):
        g = gen_random_bounded_degree(rng.randint(2, 300), 4, seed)
        assert connected(g)
        cert = solve_deg4(g)
        assert cert.is_yes, seed
        assert check_cover(g, cert.assignment, BASIC_SPEC).valid, seed
    big = gen_regular(100_000, 4, 0)
    t0 = time.time()
    cert = solve_deg4(big)
    elapsed = time.time() - t0
    assert cert.is_yes and elapsed < 5.0, elapsed
    assert check_cover(big, cert.assignment, BASIC_SPEC).valid


def test_criterion_02_figure_corpus_verdicts():
    expected = {
        "fig1": "YES",
        "fig2a": "NO",
        "fig2b": "NO",
        "fig3": "NO",
        "fig4-yes": "YES",
        "fig4-no": "NO",
        "laman-fig6": "NO",
    }
    for name, want in expected.items():
        g = get_instance(name).graph
        t0 = time.time()
        cert = oracle_solve(g, BASIC_SPEC, budget=10**7)
        elapsed = time.time() - t0
        assert cert.verdict == want, (name, cert.verdict)
        assert elapsed < 60.0, (name, elapsed)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid, name


def test_criterion_03_no_degree3_equivalence():
    rng = random.Random(3)
    scc_no = 0  # NO answers that the slot count does not give
    for seed in range(200):
        g = random_fixed_degree_graph(rng, rng.randint(2, 12), (1, 2, 4, 5))
        cert = solve_no_deg3(g)
        assert cert.verdict == oracle_solve(g).verdict, seed
        scc_no += cert.is_no and len(g.edges) <= coverable_slots(g, BASIC_SPEC)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid, seed
    assert scc_no


def _random_topological(rng):
    while True:
        g = random_rotation_graph(rng, n_max=10, e_max=12, loops=False)
        disjoint = [
            (e, f)
            for e, f in itertools.combinations(sorted(g.edges), 2)
            if not set(g.edges[e]) & set(g.edges[f])
        ]
        if disjoint or rng.random() < 0.2:
            break
    rng.shuffle(disjoint)
    crossings = {}
    seqs: dict[int, list[int]] = {}
    for xid, (e, f) in enumerate(disjoint[: rng.randint(0, 3)]):
        crossings[xid] = Crossing(e, f, rng.randint(0, 1))
        seqs.setdefault(e, []).append(xid)
        seqs.setdefault(f, []).append(xid)
    for ids in seqs.values():
        rng.shuffle(ids)
    return TopologicalGraph(g, crossings, {e: tuple(v) for e, v in seqs.items()})


def test_criterion_04_planarization_preserves_verdict():
    rng = random.Random(4)
    for trial in range(100):
        tg = _random_topological(rng)
        before = oracle_solve(tg.base).verdict
        after = oracle_solve(planarize(tg)).verdict
        assert before == after, (trial, before, after)


def test_criterion_05_three_colouring_reduction():
    cases = []
    for n in range(1, 5):
        cases.extend(connected_simple_graphs(n))
    rng = random.Random(5)
    pairs = list(itertools.combinations(range(5), 2))
    while sum(1 for g in cases if len(g.vertices) == 5) < 30:
        chosen = [p for p in pairs if rng.random() < 0.5]
        g = multigraph(5, chosen)
        if connected(g):
            cases.append(g)
    for g in cases:
        h, gmap = reduce_3col(g)
        n, m = len(g.vertices), len(g.edges)
        assert len(h.vertices) == n + 18 * m and len(h.edges) == 21 * m
        cert = oracle_solve(h)
        assert cert.verdict == brute_3col(g), (n, sorted(g.edges.values()))
        if cert.is_yes:
            col = extract_3colouring(h, cert.assignment, gmap)
            assert check_3colouring(g, col)


def test_criterion_06_sextet_regular_covers():
    for delta in (6, 8, 12):
        a = delta // 2 - delta // 6
        spec = CoverSpec(a, 2)
        for seed in range(100):
            g = gen_regular(delta + 2 + (delta % 2), delta, seed)
            cert = solve_sextet(g, delta)
            assert cert.is_yes, (delta, seed)
            assert check_cover(g, cert.assignment, spec).valid, (delta, seed)


def test_criterion_07_allocation_optimality():
    rng = random.Random(7)
    done = 0
    while done < 200:
        g = random_rotation_graph(rng, n_max=7, e_max=18, loops=True)
        if len(g.edges) == 0:
            continue
        done += 1
        asg, size = optimal_allocation(g)
        assert size == min_allocation_bruteforce(g)[0], done
        med, _ = medial_graph(g)
        assert size == len(g.edges) - len(max_matching_general(med)), done
        spec = CoverSpec(len(g.edges), 2)
        assert check_cover(g, asg, spec).valid, done


def test_criterion_08_blowup_decomposition():
    for seed in range(100):
        g = gen_random_plane_deg4(rng_n(seed), seed)
        assert trace_faces(g).genus == 0, seed
        cert = solve_deg4(g)
        assert cert.is_yes, seed
        d = blowup_decomposition(g, cert.assignment)
        chk = verify_decomposition(g, d)
        assert chk.valid, (seed, chk.violations)


def rng_n(seed):
    return random.Random(seed).randint(4, 40)


def test_criterion_09_reduction_degree_bounds():
    failures = []
    k3 = complete_graph(3)
    for a in (2, 3):
        got = reduce_multi(k3, a).max_degree()
        if got != 4 * a + 1:
            failures.append(f"multi a={a}: max degree {got} != {4 * a + 1}")
    h = reduce_2angle_deg8(k3)
    if h.max_degree() != 8:
        failures.append(f"2angle8: max degree {h.max_degree()} != 8")
    for m in (3, 4):
        got = reduce_wide(k3, m).max_degree()
        if got != 3 * m - 3:
            failures.append(f"wide m={m}: max degree {got} != {3 * m - 3}")
    t = build_T()
    internal = [v for v in t.graph.vertices if v != t.external]
    if len(internal) != 9 or len(t.graph.edges) != 37:
        failures.append(
            f"T shape: {len(internal)} vertices / {len(t.graph.edges)} edges"
        )
    spec = CoverSpec(2, 2)
    if not oracle_solve(t.graph, spec).is_yes:
        failures.append("T with a free anchor has no 2-angle cover")
    hubs = {
        e: next(w for w in t.graph.edges[e] if w != t.external)
        for e in t.stub_edges
    }
    if not oracle_solve(t.graph, spec, forced=hubs).is_no:
        failures.append("T admits a cover with both stubs covered internally")
    assert not failures, "; ".join(failures)


def test_criterion_10_density_answers():
    for g in (
        complete_rotation_graph(5),
        get_instance("fig2a").graph,
        get_instance("fig2b").graph,
    ):
        assert check_low_density(g).low_density
    rng = random.Random(10)
    for seed in range(10):
        steps = random_henneberg_steps(rng.randint(1, 10), seed)
        assert check_low_density(gen_henneberg_laman(steps, seed)).low_density
    for g in (complete_rotation_graph(6), _overdense_graph(rng)):
        rep = check_low_density(g)
        assert not rep.low_density and rep.witness
        s = rep.witness
        inside = sum(1 for u, v in g.edges.values() if u in s and v in s)
        assert inside > 2 * len(s)


def _overdense_graph(rng):
    n = rng.randint(3, 9)
    edges = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(2 * n + 1)
    ]
    return rotation_graph(edges, n=n)


def test_criterion_11_wide_equivalence_small():
    spec = CoverSpec(1, 3)
    yes = oracle_solve(reduce_wide(complete_graph(3), 3), spec)
    no = oracle_solve(reduce_wide(complete_graph(4), 3), spec)
    for name, cert in (("K3", yes), ("K4", no)):
        if cert.verdict == "INDETERMINATE":
            pytest.fail(f"oracle exhausted its budget on reduce_wide({name}, 3)")
    assert yes.is_yes and no.is_no
