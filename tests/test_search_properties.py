"""Property tests for the oracle, with and without an uncovered-edge
allowance, against an independent exhaustive search."""

import itertools

from hypothesis import given, settings, strategies as st

from anglecover.core import CoverSpec, RotationGraph, check_cover
from anglecover.reduce import max_coverage
from anglecover.solve import oracle_solve
from conftest import naive_cover_search, naive_max_coverage


@st.composite
def rotation_graphs(draw, max_vertices=6, max_edges=9):
    """Multigraphs with loops and an arbitrary rotation at every vertex."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    edges = dict(enumerate(pairs))
    incident = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        incident[u].append(e)
        incident[v].append(e)  # a loop occupies two slots at u
    rotation = {v: draw(st.permutations(darts)) for v, darts in incident.items()}
    return RotationGraph.build(range(n), edges, rotation)


specs = st.builds(CoverSpec, st.integers(1, 3), st.integers(2, 3))


@settings(max_examples=200, deadline=None)
@given(rotation_graphs(), specs)
def test_oracle_agrees_with_exhaustive_searches(g, spec):
    cert = oracle_solve(g, spec)
    assert cert.verdict == naive_cover_search(g, spec)
    if cert.is_yes:
        assert check_cover(g, cert.assignment, spec).valid
    count, asg = max_coverage(g, spec)
    assert count == naive_max_coverage(g, spec)
    chk = check_cover(g, asg, spec)
    assert not chk.violations
    assert len(chk.uncovered_edges) == len(g.edges) - count



@st.composite
def tight_block_graphs(draw):
    """A clique K3-K5 hung by one or two stubs on a host of one or two
    vertices, plus at most one random edge (maybe a loop), with an
    arbitrary rotation.  At (1, 2) a K5 is exactly tight: its ten edges
    fill its five vertices, so its stubs must be covered by the host."""
    hosts = draw(st.integers(1, 2))
    size = draw(st.integers(3, 5))
    n = hosts + size
    pairs = [(0, 1)] * (hosts - 1)
    pairs += [(hosts + i, hosts + j) for i, j in itertools.combinations(range(size), 2)]
    stubs = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2, unique=True))
    pairs += [(hosts + b, draw(st.integers(0, hosts - 1))) for b in stubs]
    vertex = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=1))
    edges = dict(enumerate(pairs))
    incident = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        incident[u].append(e)
        incident[v].append(e)
    rotation = {v: draw(st.permutations(darts)) for v, darts in incident.items()}
    return RotationGraph.build(range(n), edges, rotation)


@settings(max_examples=100, deadline=None)
@given(tight_block_graphs())
def test_oracle_agrees_with_exhaustive_search_on_tight_blocks(g):
    for spec in (CoverSpec(1, 2), CoverSpec(2, 2), CoverSpec(1, 3)):
        cert = oracle_solve(g, spec)
        assert cert.verdict == naive_cover_search(g, spec), spec
        if cert.is_yes:
            assert check_cover(g, cert.assignment, spec).valid, spec
