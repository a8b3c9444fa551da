import random

import pytest
from hypothesis import given, settings, strategies as st

from anglecover.allocate import (
    max_matching_general,
    optimal_allocation,
    tutte_berge_holds,
)
from anglecover.core import CoverSpec, check_cover
from anglecover.instances import gen_random_plane_deg4
from anglecover.transform import medial_graph
from conftest import (
    min_allocation_bruteforce,
    multigraph,
    random_rotation_graph,
    rotation_graph,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return rotation_graph(outer + inner + spokes)


def test_matching_sizes():
    assert len(max_matching_general(multigraph(3, [(0, 1), (1, 2), (2, 0)]))) == 1
    c6 = multigraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert len(max_matching_general(c6)) == 3


def test_matching_petersen_medial():
    med, _ = medial_graph(petersen())
    assert len(max_matching_general(med)) == len(med.vertices) // 2


def test_allocation_size_formula():
    g = petersen()
    med, _ = medial_graph(g)
    asg, size = optimal_allocation(g)
    assert size == len(g.edges) - len(max_matching_general(med))
    spec = CoverSpec(len(g.edges), 2)
    assert check_cover(g, asg, spec).valid


def test_allocation_triangle():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    _, size = optimal_allocation(g)
    assert size == 2


def test_allocation_single_edge():
    g = rotation_graph([(0, 1)])
    asg, size = optimal_allocation(g)
    assert size == 1
    assert check_cover(g, asg, CoverSpec(1, 2)).valid


def test_allocation_matches_bruteforce():
    rng = random.Random(61)
    for _ in range(150):
        g = random_rotation_graph(rng, n_max=6, e_max=10, loops=True)
        if len(g.edges) == 0:
            continue
        asg, size = optimal_allocation(g)
        assert size == min_allocation_bruteforce(g)[0]
        spec = CoverSpec(max(1, len(g.edges)), 2)
        assert check_cover(g, asg, spec).valid


def bruteforce_matching_size(pairs) -> int:
    """Size of a maximum matching by trying each edge in or out."""
    if not pairs:
        return 0
    (u, v), rest = pairs[0], pairs[1:]
    skip = bruteforce_matching_size(rest)
    if u == v:
        return skip
    free = [(a, b) for a, b in rest if not {a, b} & {u, v}]
    return max(skip, 1 + bruteforce_matching_size(free))


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_max_matching_general_matches_bruteforce(graph):
    n, pairs = graph
    matching = max_matching_general(multigraph(n, pairs))
    ends = [w for pair in matching for w in pair]
    assert len(ends) == len(set(ends))
    edge_set = {tuple(sorted(p)) for p in pairs}
    assert all(u < v and (u, v) in edge_set for u, v in matching)
    assert len(matching) == bruteforce_matching_size(pairs)


def test_tutte_berge_rejects_non_maximum_matching():
    p4 = [[1], [0, 2], [1, 3], [2]]
    assert not tutte_berge_holds(p4, [-1, 2, 1, -1], set())
    assert tutte_berge_holds(p4, [1, 0, 3, 2], set())


@pytest.mark.parametrize("seed", [1, 3])
def test_plane_allocation_finishes(seed):
    g = gen_random_plane_deg4(500, seed)
    asg, size = optimal_allocation(g)
    assert size >= (len(g.edges) + 1) // 2
    assert check_cover(g, asg, CoverSpec(len(g.edges), 2)).valid
