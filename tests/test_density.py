import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from anglecover.cli import main
from anglecover.core import RotationGraph
from anglecover.density import check_low_density, max_bipartite_matching
from anglecover.fileio import serialize_instance
from anglecover.instances import gen_henneberg_laman, random_henneberg_steps
from anglecover.transform import BipartiteGraph, build_gmat
from conftest import (
    brute_low_density,
    complete_rotation_graph,
    matching_density_witness,
    random_fixed_degree_graph,
    random_rotation_graph,
    rotation_graph,
)


def test_matching_small_bipartite():
    b = BipartiteGraph((0, 1), ("a", "b"), ((0, "a"), (1, "a"), (1, "b")))
    m = max_bipartite_matching(b)
    assert len(m) == 2
    assert set(m) == {0, 1} and len(set(m.values())) == 2


def test_matching_deficient_side():
    b = BipartiteGraph((0, 1, 2), ("a",), ((0, "a"), (1, "a"), (2, "a")))
    assert len(max_bipartite_matching(b)) == 1


def test_low_density_yes_cases():
    assert check_low_density(complete_rotation_graph(5)).low_density
    assert check_low_density(rotation_graph([(0, 1), (1, 2), (2, 0)])).low_density


def test_low_density_no_k6():
    rep = check_low_density(complete_rotation_graph(6))
    assert not rep.low_density
    assert rep.witness is not None
    s = rep.witness
    g = complete_rotation_graph(6)
    inside = sum(1 for u, v in g.edges.values() if u in s and v in s)
    assert inside > 2 * len(s)


def test_low_density_loops_count_once():
    # Two vertices, five parallel edges: 5 > 2*2.
    g = rotation_graph([(0, 1)] * 5)
    rep = check_low_density(g)
    assert not rep.low_density and rep.witness == frozenset({0, 1})


def test_laman_graphs_are_low_density():
    rng = random.Random(11)
    for seed in range(10):
        steps = random_henneberg_steps(rng.randint(2, 10), seed)
        g = gen_henneberg_laman(steps, seed)
        assert check_low_density(g).low_density


def test_random_witnesses_are_valid():
    rng = random.Random(5)
    for _ in range(200):
        g = random_rotation_graph(rng, n_max=6, e_max=14, loops=True)
        rep = check_low_density(g)
        if rep.low_density:
            assert len(rep.matching) == len(build_gmat(g).left)
        else:
            s = rep.witness
            inside = sum(
                1 for u, v in g.edges.values() if u in s and v in s
            )
            assert inside > 2 * len(s)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n_left: st.tuples(
            st.just(n_left),
            st.integers(1, 4),
            st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, 3))),
        )
    )
)
def test_bipartite_matching_matches_bruteforce(graph):
    n_left, n_right, pairs = graph
    edges = tuple({(l, ("r", r)) for l, r in pairs if r < n_right})
    b = BipartiteGraph(
        tuple(range(n_left)), tuple(("r", r) for r in range(n_right)), edges
    )
    m = max_bipartite_matching(b)
    assert all((l, r) in edges for l, r in m.items())
    assert len(set(m.values())) == len(m)
    best = max(
        k
        for k in range(len(edges) + 1)
        for chosen in itertools.combinations(edges, k)
        if len({l for l, _ in chosen}) == len({r for _, r in chosen}) == k
    )
    assert len(m) == best


def test_long_augmenting_path(tmp_path, capsys):
    # A doubled path plus a loop: low density, but saturating the edge
    # side needs an augmenting path through all 2000 vertices.
    pairs = [(i, i + 1) for i in range(1999) for _ in range(2)] + [(0, 0)]
    g = rotation_graph(pairs)
    assert check_low_density(g).low_density
    f = tmp_path / "path.inst"
    f.write_text(serialize_instance(g))
    assert main(["density", str(f)]) == 0
    assert capsys.readouterr().out == "low-density: yes\n"


def test_density_matches_subset_search_and_matching_witness():
    rng = random.Random(12)
    answers = set()
    for _ in range(1000):
        g = random_rotation_graph(rng, n_max=7, e_max=18, loops=True)
        rep = check_low_density(g)
        assert rep.low_density == brute_low_density(g)
        answers.add(rep.low_density)
        if rep.low_density:
            # Every edge holds its own copy of one of its endpoints.
            assert sorted(rep.matching) == sorted(g.edges)
            assert all(rep.matching[e][0] in ends for e, ends in g.edges.items())
            assert all(c in (0, 1) for _, c in rep.matching.values())
            assert len(set(rep.matching.values())) == len(g.edges)
        else:
            assert rep.witness == matching_density_witness(g)
    assert answers == {True, False}


def test_cli_density_witness_is_the_dense_part(tmp_path, capsys):
    # K6 with a 50-vertex path hanging from vertex 5: only K6 is dense.
    pairs = list(itertools.combinations(range(6), 2))
    pairs += [(v, v + 1) for v in range(5, 55)]
    f = tmp_path / "k6-path.inst"
    f.write_text(serialize_instance(rotation_graph(pairs)))
    assert main(["density", str(f)]) == 1
    assert capsys.readouterr().out == "low-density: no\nwitness: 0 1 2 3 4 5\n"
    f = tmp_path / "edgeless.inst"
    f.write_text(serialize_instance(rotation_graph([], n=4)))
    assert main(["density", str(f)]) == 0
    assert capsys.readouterr().out == "low-density: yes\n"


def test_failed_search_region_is_not_searched_again():
    # 5000 parallel edges on {0, 1}, and a 5000-vertex path from vertex 1:
    # all but a handful of the parallel edges stay unplaced, and each
    # must cost constant time once {0, 1} has failed.
    pairs = [(0, 1)] * 5000 + [(v, v + 1) for v in range(1, 5001)]
    t0 = time.perf_counter()
    rep = check_low_density(rotation_graph(pairs))
    assert time.perf_counter() - t0 < 1.0
    assert not rep.low_density and rep.witness == frozenset({0, 1})
    # With the pair to vertex 2 at vertex 0, vertex 0 holds one of its two
    # edges to vertex 2 (the walk enters it on one of the pair at slots 0
    # and 1, and keeps that first), so a failed search from {0, 1} crosses
    # the whole full doubled 5000-cycle through 2.  Only the dead-set rule
    # keeps the 4997 later searches from crossing it again, about 25
    # million vertex visits.  With the pair at vertex 1, vertex 0 passes
    # its extra edges to vertex 1, which then holds none into the cycle.
    cycle = [(v, 2 + (v - 1) % 5000) for v in range(2, 5002) for _ in range(2)]
    for hub in (1, 0):
        t0 = time.perf_counter()
        rep = check_low_density(rotation_graph([(hub, 2)] * 2 + [(0, 1)] * 5000 + cycle))
        assert time.perf_counter() - t0 < 1.0
        assert not rep.low_density and rep.witness == frozenset(range(5002))


# The orientation starts from the dart index's slot-pairing walk; these
# cases check it where the walk or the per-vertex arrays could go wrong.


def _check_density(g):
    """check_low_density against the references: the subset search where
    it is small enough, the matching witness always, and a valid map of
    every edge to a copy of an endpoint on YES.  Returns the verdict."""
    rep = check_low_density(g)
    witness = matching_density_witness(g)
    if len(g.vertices) <= 12:
        assert rep.low_density == brute_low_density(g)
    assert rep.low_density == (witness is None)
    if not rep.low_density:
        assert rep.witness == witness
        return False
    assert sorted(rep.matching) == sorted(g.edges)
    assert all(rep.matching[e][0] in ends for e, ends in g.edges.items())
    assert len(set(rep.matching.values())) == len(g.edges)
    copies = {}  # vertex -> its copies, in edge order
    for e in sorted(rep.matching):
        v, c = rep.matching[e]
        copies.setdefault(v, []).append(c)
    assert all(cs in ([0], [0, 1]) for cs in copies.values())
    return True


def _shuffled(rng, vertices, pairs):
    """RotationGraph on `vertices` with edges `pairs` and random rotations."""
    rotation = {v: [] for v in vertices}
    for e, (u, v) in enumerate(pairs):
        rotation[u].append(e)
        rotation[v].append(e)
    for rot in rotation.values():
        rng.shuffle(rot)
    return RotationGraph.build(vertices, dict(enumerate(pairs)), rotation)


def test_density_with_isolated_vertices_between_the_others():
    # Vertex v of a random graph becomes 2v + 1 and every even vertex is
    # isolated, so isolated vertices sit between the others in the dart
    # order and share their successor's slot-0 dart.
    rng = random.Random(21)
    answers = set()
    for _ in range(300):
        g = random_rotation_graph(rng, n_max=5, e_max=14, loops=True)
        pairs = [(2 * u + 1, 2 * v + 1) for u, v in g.edges.values()]
        h = _shuffled(rng, range(2 * len(g.vertices) + 1), pairs)
        answers.add(_check_density(h))
    assert answers == {True, False}


def test_density_with_loop_only_vertices():
    rng = random.Random(22)
    answers = set()
    for _ in range(300):
        g = random_rotation_graph(rng, n_max=6, e_max=12, loops=True)
        n = len(g.vertices)
        pairs = list(g.edges.values())
        extra = rng.randint(1, 3)
        for v in range(n, n + extra):
            pairs += [(v, v)] * rng.randint(1, 3)
        rng.shuffle(pairs)
        answers.add(_check_density(_shuffled(rng, range(n + extra), pairs)))
    assert answers == {True, False}


def test_density_with_odd_degrees():
    # Odd-degree vertices lack the partner of their last slot, so the walk
    # has open trails that start and end there.  Odd degrees need an even
    # number of vertices.
    rng = random.Random(23)
    answers = set()
    for _ in range(300):
        g = random_fixed_degree_graph(rng, 2 * rng.randint(1, 5), (1, 3, 5, 7))
        answers.add(_check_density(g))
    assert answers == {True, False}


def test_odd_degrees_on_an_odd_vertex_count_are_refused():
    # The degree sum is odd whatever the draw, so redrawing could never end.
    with pytest.raises(ValueError):
        random_fixed_degree_graph(random.Random(0), 1, (3,))


def test_density_with_a_hub_among_degree_2_and_3_vertices():
    # A hub joined to most vertices of a 1500-vertex path (the shape of a
    # Henneberg-built Laman graph): the walk directs about half of the
    # hub's edges into it, and all but two of them go to their other ends
    # or need a search.  The
    # fan is sparse; an extra K5 plus a parallel edge, hung from a path
    # vertex, makes it dense.  The subset search is out of reach here, so
    # the verdict is checked against the matching witness alone.
    rng = random.Random(24)
    for dense in (False, True):
        for _ in range(3):
            k = 1500
            pairs = [(v, v + 1) for v in range(1, k)]
            pairs += [(0, v) for v in range(1, k + 1) if v in (1, k) or rng.random() < 0.7]
            n = k + 1
            if dense:
                block = [(n + i, n + j) for i in range(5) for j in range(i + 1, 5)]
                pairs += block + [block[0], (n, rng.randint(1, k))]
                n += 5
            rng.shuffle(pairs)
            g = _shuffled(rng, range(n), pairs)
            assert g.deg(0) >= 1000
            assert _check_density(g) is not dense
