import ast
import copy
import importlib
import pickle
import pkgutil
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import anglecover
from anglecover.core import (
    Angle,
    AngleAssignment,
    BASIC_SPEC,
    Certificate,
    CoverCheck,
    CoverSpec,
    Orientation,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    simple_graph_fault,
    trace_faces,
    validate_graph,
    _Record,
    _face_cycles,
)
from anglecover.fileio import parse_instance, serialize_instance
from conftest import (
    complete_rotation_graph,
    disjoint_union,
    edge_slots,
    reference_faces,
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
    assert edge_slots(g, 0)[0] == [0, 1]


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


@pytest.mark.parametrize(
    "record, name",
    [
        (Angle(0, 1, 2), "start"),
        (CoverSpec(1, 2), "m"),
        (Certificate("YES", None, 3), "decisions"),
        (RotationGraph((0,), {}, {0: ()}), "edges"),
    ],
    ids=["Angle", "CoverSpec", "Certificate", "RotationGraph"],
)
def test_records_refuse_assignment(record, name):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, name, 7)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == before


def test_records_survive_copy_and_pickle():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    cert = Certificate("YES", AngleAssignment({0: (Angle(0, 0, 2),)}), 4, 3, 2, 1, 1)
    for record in (Angle(3, 1, 2), CoverSpec(2, 3), cert, g, trace_faces(g)):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and repr(clone) == repr(record)
    assert pickle.loads(pickle.dumps(g)) == g
    assert pickle.loads(pickle.dumps(cert)).tight == 1


def test_records_hash_and_show_their_fields():
    assert Angle(3, 1, 2) == Angle(3, 1, 2) != Angle(3, 2, 2)
    assert len({Angle(3, 1, 2), Angle(3, 1, 2), Angle(2, 1, 2)}) == 2
    assert hash(CoverSpec()) == hash(CoverSpec(1, 2)) == hash(BASIC_SPEC)
    assert CoverSpec(a=2) == CoverSpec(2, 2) != CoverSpec(2, 3)
    # Equal fields in another class are not equal.
    assert Angle(1, 2, 2) != CoverSpec(1, 2)
    assert repr(Angle(3, 1, 2)) == "Angle(vertex=3, start=1, width=2)"
    assert repr(CoverSpec(2, 3)) == "CoverSpec(a=2, m=3)"
    assert (
        repr(CoverCheck(False, (1,), ("vertex 0: 2 angles exceed limit 1",)))
        == "CoverCheck(valid=False, uncovered_edges=(1,),"
        " violations=('vertex 0: 2 angles exceed limit 1',))"
    )


def _record_classes():
    """Every `_Record` subclass in the package, its modules all imported."""
    for mod in pkgutil.iter_modules(anglecover.__path__):
        importlib.import_module(f"anglecover.{mod.name}")
    found, todo = [], [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


# The defaults of the trailing fields, per record; a record missing here
# has no default.
_DEFAULTS = {
    "Certificate": (None, 0, 0, 0, 0, 0),
    "CoverSpec": (1, 2),
    "DensityReport": (None,),
    "NamedInstance": (None, None),
}


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda c: c.__qualname__)
def test_record_constructor_contract(cls):
    names = cls._fields
    defaults = _DEFAULTS.get(cls.__name__, ())
    values = [i + 2 for i in range(len(names))]  # valid for CoverSpec too
    required = len(names) - len(defaults)

    def assert_same(r, s):
        assert type(r) is type(s) is cls and repr(r) == repr(s)
        assert [getattr(r, n) for n in names] == [getattr(s, n) for n in names]
        assert r == s and hash(r) == hash(s)

    full = cls(*values)
    assert_same(full, cls(**dict(zip(names, values))))
    assert_same(full, cls(*values[:1], **dict(zip(names[1:], values[1:]))))
    short = cls(*values[:required])
    assert [getattr(short, n) for n in names[required:]] == list(defaults)
    assert_same(short, cls(*values[:required], *defaults))
    assert_same(short, cls(**dict(zip(names[:required], values))))
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:required], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:required], no_such_field=0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: 0})


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
def test_end_darts_agree_with_ends(g):
    # `ends` is pinned to a rotation scan above; the darts must be the
    # edge's own two and name the same ends, a loop's in slot order.
    ix = g.dart_index
    for e in g.edges:
        d, t = g.end_darts(e)
        assert ix.edge[d] == e and ix.twin[d] == t
        assert g.ends(e) == ((ix.vertex[d], ix.slot(d)), (ix.vertex[t], ix.slot(t)))


@settings(max_examples=300, deadline=None)
@given(rotation_graphs())
def test_succ_is_the_rotation(g):
    # On graphs with loops, parallel edges, isolated and degree-1 vertices.
    ix = g.dart_index
    assert ix.degree == [g.deg(v) for v in sorted(g.vertices)]
    assert sorted(ix.succ) == list(range(len(ix.edge)))
    for d, t in enumerate(ix.succ):
        v = ix.vertex[d]
        assert ix.vertex[t] == v
        assert ix.slot(t) == (ix.slot(d) + 1) % g.deg(v)
    faces = trace_faces(g)
    assert (faces.num_faces, faces.genus) == reference_faces(g)


# The readers of `.rotation`: the degree by vertex id, the index builder,
# the messages of an invalid graph and the file writer.  Everything else
# reads the dart index.
ROTATION_READERS = {"RotationGraph.deg", "DartIndex.of", "_violations", "serialize_instance"}


def _package_nodes():
    """(module file name, enclosing function or class, node) of each node
    of the package's source."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, (*scope, child.name))
                continue
            yield ".".join(scope), child
            yield from walk(child, scope)

    for path in sorted(Path(anglecover.__file__).parent.glob("*.py")):
        for where, node in walk(ast.parse(path.read_text(encoding="utf-8")), ()):
            yield path.name, where, node


def test_only_the_index_builder_turns_the_rotation_into_darts():
    stray = [
        f"{name}:{node.lineno} in {where or 'module'}"
        for name, where, node in _package_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "rotation"
        and isinstance(node.ctx, ast.Load)
        and where not in ROTATION_READERS
    ]
    assert stray == []


# What `cli.main` sends to exit 2, and what to exit 4.
MAIN_CATCHES = {"UnsupportedInputError", "OSError", "Exception"}


def test_refused_input_has_one_class():
    # A refusal is an UnsupportedInputError, so `cli.main` can tell it from a
    # fault by its class: a bare ValueError is raised only where only a fault
    # reaches (`min_arc_cover`), and `main` catches nothing narrower.
    stray = []
    for name, where, node in _package_nodes():
        if isinstance(node, ast.Raise) and (name, where) != ("solve.py", "min_arc_cover"):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "ValueError":
                stray.append(f"{name}:{node.lineno} in {where}: raise ValueError")
        if isinstance(node, ast.ExceptHandler) and (name, where) == ("cli.py", "main"):
            # A bare `except:` catches everything.
            caught = {n.id for n in ast.walk(node.type or ast.Name("BaseException"))
                      if isinstance(n, ast.Name)}
            stray += [f"{name}:{node.lineno}: except {c}" for c in sorted(caught - MAIN_CATCHES)]
    assert stray == []


@pytest.mark.parametrize(
    "pairs, fault",
    [
        ([], None),
        ([(0, 1), (1, 2), (2, 0)], None),
        ([(0, 1), (1, 1), (1, 0)], "loop-free"),
        ([(0, 1), (1, 0), (1, 1)], "simple"),
        ([(2, 1), (1, 2)], "simple"),
    ],
)
def test_simple_graph_fault_names_the_first_fault(pairs, fault):
    assert simple_graph_fault(dict(enumerate(pairs))) == fault


@settings(max_examples=200, deadline=None)
@given(rotation_graphs())
def test_trace_faces_survives_reserialization(g):
    def faces(g):  # each face walk as its (vertex, slot) darts
        ix = g.dart_index
        return [[(ix.vertex[d], ix.slot(d)) for d in f] for f in _face_cycles(ix)]

    copy = parse_instance(serialize_instance(g))
    assert faces(copy) == faces(g)
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
    messages = reference_validate_graph(g)
    assert validate_graph(g) == messages
    # The index builds exactly for a valid graph, else raises the messages.
    if messages:
        with pytest.raises(UnsupportedInputError) as exc:
            g.dart_index
        assert str(exc.value) == "; ".join(messages)
    else:
        g.dart_index


@pytest.mark.parametrize(
    "edges, rotation",
    [
        ({0: (0, 1)}, {0: (0,), 1: ()}),
        ({0: (0, 0), 1: (0, 1)}, {0: (0, 0, 0, 1), 1: (1,)}),
        ({0: (0, 1)}, {0: (0, 0), 1: ()}),  # twice at one end, never at the other
        ({0: (0, 1), 1: (0, 1)}, {0: (0,), 1: (0,)}),  # edge 1 in no rotation
    ],
)
def test_dart_index_rejects_edge_not_occurring_twice(edges, rotation):
    g = RotationGraph.build(range(2), edges, rotation)
    for call in (lambda: g.ends(0), lambda: trace_faces(g)):
        with pytest.raises(UnsupportedInputError) as exc:
            call()
        assert str(exc.value) == "; ".join(validate_graph(g))


@pytest.mark.parametrize(
    "vertices, rotation",
    [
        (range(3), {0: (0,), 1: (), 2: (0,)}),  # edge 0 listed off its end 1
        (range(2), {0: (0, 5), 1: (0, 5)}),  # every edge twice, one unknown
    ],
    ids=["non-incident", "unknown"],
)
def test_readers_of_the_index_reject_an_invalid_graph(vertices, rotation):
    from anglecover.solve import oracle_solve, solve_deg4

    g = RotationGraph.build(vertices, {0: (0, 1)}, rotation)
    calls = [
        lambda: solve_deg4(g),
        lambda: oracle_solve(g),
        lambda: check_cover(g, AngleAssignment.build({}), BASIC_SPEC),
        lambda: trace_faces(g),
        lambda: g.end_darts(0),
    ]
    for call in calls:
        with pytest.raises(UnsupportedInputError) as exc:
            call()
        assert str(exc.value) == "; ".join(validate_graph(g))


@settings(max_examples=200, deadline=None)
@given(rotation_graphs(), rotation_graphs())
def test_genus_of_disjoint_union_is_the_sum(g, h):
    parts = trace_faces(g), trace_faces(h)
    union = trace_faces(disjoint_union(g, h))
    assert union.genus == parts[0].genus + parts[1].genus >= 0
    assert union.num_faces == parts[0].num_faces + parts[1].num_faces
    assert union.is_plane == (parts[0].is_plane and parts[1].is_plane)


@st.composite
def pinned_graphs(draw):
    """A graph of at most 8 vertices (loops, parallel edges, isolated
    vertices, vertices listed out of order), a capacity bound c, and
    some edges pinned, each to one of its ends."""
    n = draw(st.integers(1, 8))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14)
    )
    incident = {v: [] for v in range(n)}
    for e, (u, v) in enumerate(pairs):
        incident[u].append(e)
        incident[v].append(e)
    rotation = {v: draw(st.permutations(slots)) for v, slots in incident.items()}
    g = RotationGraph.build(draw(st.permutations(range(n))), dict(enumerate(pairs)), rotation)
    keep = draw(st.lists(st.integers(0, 1), min_size=len(pairs), max_size=len(pairs)))
    pins = {e: pairs[e][side] for e, side in enumerate(keep) if draw(st.integers(0, 3)) == 0}
    return g, draw(st.integers(0, 3)), pins


@settings(max_examples=300, deadline=None)
@given(pinned_graphs())
def test_orientation_repairs_or_finds_the_subset_that_counts_against_it(case):
    # The orientation must be within capacity with every edge held once
    # and every pinned edge where it was pinned, or name a set S that
    # needs more than it may hold; brute force over all subsets decides
    # which, with the pinned edges taken out and charged to their ends.
    g, c, pins = case
    ix = g.dart_index
    o = Orientation(ix, c)
    for d in o.unplaced:
        o.give(d)
    pinned = bytearray(len(ix.twin))
    for e, v in pins.items():
        d = ix.dart_of[e]
        d = d if ix.vertex[d] == v else ix.twin[d]
        if not o.held[d]:
            o.give(d)
        pinned[d] = pinned[ix.twin[d]] = 1
    region = None
    for x in range(len(ix.first)):
        region = region or o.repair(x, pinned)

    held = sorted(h for hs in o.holds for h in hs)
    assert [d for d, flag in enumerate(o.held) if flag] == held

    room = {v: min(g.deg(v), c) for v in g.vertices}
    for v in pins.values():
        room[v] -= 1
    free = [ends for e, ends in g.edges.items() if e not in pins]

    def over(s):
        return sum(1 for u, w in free if u in s and w in s) > sum(room[v] for v in s)

    dense = any(over(set(s)) for k in range(1, len(g.vertices) + 1)
                for s in combinations(g.vertices, k))
    names = list(ix.first)
    if region is not None:
        assert over({names[x] for x in region})
        assert dense
        return
    assert not dense
    holder = {}
    for x, hs in enumerate(o.holds):
        assert len(hs) <= min(ix.degree[x], c)
        for h in hs:
            assert ix.vertex[h] == names[x]
            holder[ix.edge[h]] = names[x]
    assert Counter(ix.edge[h] for h in held) == dict.fromkeys(g.edges, 1)
    assert all(holder[e] == v for e, v in pins.items())
