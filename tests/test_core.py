import pytest
from hypothesis import given, settings, strategies as st

from anglecover.core import (
    Angle,
    AngleAssignment,
    BASIC_SPEC,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    trace_faces,
    validate_graph,
)
from anglecover.fileio import parse_instance, serialize_instance
from conftest import (
    complete_rotation_graph,
    reference_validate_graph,
    rotation_graph,
)


def test_validate_flags_missing_rotation_occurrence():
    g = RotationGraph.build(range(2), {0: (0, 1)}, {0: (0,), 1: ()})
    assert validate_graph(g)


@pytest.mark.parametrize(
    "vertices, edges, rotation, messages",
    [
        ([0], {0: (0, 1)}, {0: (0,)}, ["edge 0: endpoint 1 is not a vertex"]),
        (
            range(2),
            {0: (0, 1)},
            {0: (0, 5), 1: (0,)},
            ["vertex 0: rotation names unknown edge 5"],
        ),
        (
            range(3),
            {0: (0, 1)},
            {0: (0,), 1: (0,), 2: (0,)},
            ["vertex 2: rotation lists non-incident edge 0"],
        ),
        (
            [0],
            {0: (0, 0)},
            {0: (0,)},
            ["self-loop 0 at 0 occurs 1 times in rotation, expected 2"],
        ),
        (
            range(2),
            {0: (0, 1)},
            {0: (0,), 1: ()},
            ["edge 0=(0,1) occurs 0 times in rotation of 1, expected 1"],
        ),
        (
            range(2),
            {0: (0, 1)},
            {0: (0,)},
            [
                "edge 0=(0,1) occurs 0 times in rotation of 1, expected 1",
                "vertex 1: missing rotation",
            ],
        ),
    ],
)
def test_validate_graph_messages(vertices, edges, rotation, messages):
    g = RotationGraph.build(vertices, edges, rotation)
    assert validate_graph(g) == messages


def test_validate_graph_clean():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    assert validate_graph(g) == []


def test_loop_occupies_two_slots():
    g = rotation_graph([(0, 0), (0, 1)])
    assert g.deg(0) == 3
    assert g.edge_slots(0)[0] == [0, 1]


def test_angle_slots_wrap():
    assert Angle(0, 3, 2).slots(4) == [3, 0]


def test_check_cover_basic_yes():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    asg = AngleAssignment.build({v: [Angle(v, 0, 2)] for v in range(3)})
    assert check_cover(g, asg, BASIC_SPEC).valid


def test_check_cover_reports_uncovered():
    g = complete_rotation_graph(5)
    asg = AngleAssignment.build({v: [Angle(v, 0, 2)] for v in range(5)})
    chk = check_cover(g, asg, BASIC_SPEC)
    assert not chk.valid and chk.uncovered_edges


def test_check_cover_rejects_too_many_angles():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    asg = AngleAssignment.build({0: [Angle(0, 0, 2), Angle(0, 1, 2)]})
    chk = check_cover(g, asg, BASIC_SPEC)
    assert not chk.valid and chk.violations


def test_check_cover_loop_covered_by_either_slot():
    g = rotation_graph([(0, 0), (0, 1), (1, 2), (2, 0)])
    asg = AngleAssignment.build(
        {0: [Angle(0, 0, 2)], 1: [Angle(1, 0, 2)], 2: [Angle(2, 0, 2)]}
    )
    assert check_cover(g, asg, BASIC_SPEC).valid


def test_trace_faces_triangle_plane():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    fd = trace_faces(g)
    assert fd.genus == 0 and fd.num_faces == 2


def test_trace_faces_k5_default_rotation_not_plane():
    assert trace_faces(complete_rotation_graph(5)).genus > 0


def test_trace_faces_disjoint_triangles():
    g = rotation_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert trace_faces(g).genus == 0


def test_coverspec_validation():
    with pytest.raises(ValueError):
        CoverSpec(0, 2)
    with pytest.raises(ValueError):
        CoverSpec(1, 1)


def test_effective_width_small_degree():
    g = rotation_graph([(0, 1)])
    asg = AngleAssignment.build({0: [Angle(0, 0, 1)]})
    assert check_cover(g, asg, BASIC_SPEC).valid


def test_check_cover_loop_covered_by_second_slot_only():
    # Vertex 0's rotation is (loop 0, loop 0, edge 1, edge 3).
    g = rotation_graph([(0, 0), (0, 1), (1, 2), (2, 0)])
    rest = {1: [Angle(1, 0, 2)], 2: [Angle(2, 0, 2)]}
    asg = AngleAssignment.build({0: [Angle(0, 1, 2)], **rest})
    assert check_cover(g, asg, BASIC_SPEC).valid
    asg = AngleAssignment.build({0: [Angle(0, 2, 2)], **rest})
    assert check_cover(g, asg, BASIC_SPEC).uncovered_edges == (0,)


@st.composite
def rotation_graphs(draw):
    """Small rotation graphs with loops, parallel edges, isolated vertices
    and vertices listed out of order."""
    n = draw(st.integers(1, 6))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    )
    edges = dict(enumerate(pairs))
    incident = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        incident[u].append(e)
        incident[v].append(e)
    rotation = {v: draw(st.permutations(slots)) for v, slots in incident.items()}
    return RotationGraph.build(draw(st.permutations(range(n))), edges, rotation)


@settings(max_examples=200, deadline=None)
@given(rotation_graphs())
def test_dart_index_twin_is_a_fixed_point_free_involution(g):
    ix = g.dart_index
    assert len(ix.twin) == 2 * len(g.edges)
    for d, t in enumerate(ix.twin):
        assert t != d and ix.twin[t] == d and ix.edge[t] == ix.edge[d]
        assert g.rotation[ix.vertex[d]][ix.slot(d)] == ix.edge[d]


@settings(max_examples=200, deadline=None)
@given(rotation_graphs())
def test_ends_matches_a_rotation_scan(g):
    for e, (u, w) in g.edges.items():
        scan = tuple(
            (x, s)
            for x in ((u, w) if u != w else (u,))
            for s, y in enumerate(g.rotation[x])
            if y == e
        )
        assert g.ends(e) == scan


@settings(max_examples=200, deadline=None)
@given(rotation_graphs())
def test_trace_faces_survives_reserialization(g):
    copy = parse_instance(serialize_instance(g))
    assert trace_faces(copy).faces == trace_faces(g).faces
    assert trace_faces(copy).genus == trace_faces(g).genus


FAULTS = ("drop", "duplicate", "unknown", "move", "no rotation", "outside")


def _inject(draw, g, fault):
    """A copy of g with one fault of the given kind, where g allows it."""
    vertices = list(g.vertices)
    edges = dict(g.edges)
    rotation = {v: list(rot) for v, rot in g.rotation.items()}
    listed = [v for v in vertices if rotation.get(v)]
    pick = lambda xs: draw(st.sampled_from(xs))  # noqa: E731
    if fault in ("drop", "duplicate", "move") and listed:
        v = pick(listed)
        e = rotation[v].pop(draw(st.integers(0, len(rotation[v]) - 1)))
        if fault == "duplicate":
            rotation[v][draw(st.integers(0, len(rotation[v]))):0] = [e, e]
        elif fault == "move":
            others = [w for w in vertices if w not in edges.get(e, ())]
            if not others:
                return None
            w = pick(others)
            rot = rotation.setdefault(w, [])
            rot.insert(draw(st.integers(0, len(rot))), e)
    elif fault == "unknown":
        rot = rotation.setdefault(pick(vertices), [])
        rot.insert(draw(st.integers(0, len(rot))), len(edges) + 7)
    elif fault == "no rotation":
        rotation.pop(pick(vertices), None)
    elif fault == "outside":
        outsider = max(vertices) + 1 + draw(st.integers(0, 2))
        if edges and draw(st.booleans()):
            e = pick(sorted(edges))
            u, w = edges[e]
            edges[e] = (u, outsider) if draw(st.booleans()) else (outsider, w)
        else:
            e, u = len(edges), pick(vertices)
            edges[e] = (u, outsider)
            rotation.setdefault(u, []).append(e)
    else:
        return None
    return RotationGraph.build(vertices, edges, rotation)


@settings(max_examples=300, deadline=None)
@given(rotation_graphs(), st.lists(st.sampled_from(FAULTS), max_size=3), st.data())
def test_validate_graph_matches_the_rotation_walk(g, faults, data):
    assert validate_graph(g) == [] == reference_validate_graph(g)
    for fault in faults:
        bad = _inject(data.draw, g, fault)
        if bad is not None:
            g = bad
    assert validate_graph(g) == reference_validate_graph(g)


@pytest.mark.parametrize(
    "edges, rotation",
    [
        ({0: (0, 1)}, {0: (0,), 1: ()}),
        ({0: (0, 0), 1: (0, 1)}, {0: (0, 0, 0, 1), 1: (1,)}),
    ],
)
def test_dart_index_rejects_edge_not_occurring_twice(edges, rotation):
    g = RotationGraph.build(range(2), edges, rotation)
    with pytest.raises(UnsupportedInputError):
        g.ends(0)
    with pytest.raises(UnsupportedInputError):
        trace_faces(g)
