"""Rotation-system multigraphs, angle-cover semantics, and face tracing.

A rotation system stores, for every vertex, the cyclic order of its
incident edge ends ("slots").  A self-loop occupies two distinct slots at
its vertex.  All functions here are pure: they never mutate their inputs.

Each graph carries one dart index (`RotationGraph.dart_index`), built on
first use, and only for a valid graph: its rotations name exactly the
edges of g, each edge twice, with its two darts at its two endpoints.
Otherwise `DartIndex.of` raises UnsupportedInputError with the messages
of `validate_graph`, so every reader of the index sees a valid rotation
system and none checks one itself.  A dart is one (vertex, slot) pair;
darts are numbered 0..2|E|-1 in ascending vertex order, so slot s at v
is dart first[v] + s.  The index stores, per dart, its vertex, its edge
and its twin (the other end of the same edge), and per edge its lower
dart.  As permutations of the darts, `twin` is α and `succ` is the
rotation σ, so a face is an orbit of σ∘α.  Only `DartIndex.of` turns
`g.rotation` into darts (`deg`, `_violations` and the file writer read
it too).  `g.end_darts(e)` is the one rule for which dart is which end
of an edge; `g.ends(e)` gives them as (vertex, slot) pairs.
`DartIndex.walk` is the one slot-pairing walk over the darts: the
max-degree-4 and sextet solvers cover with it, and the one capacity
orientation (`Orientation`) of the exhaustive search and the density
test starts from it.

The records here and in the other modules are plain classes on one base,
`_Record`, not dataclasses: every CLI call imports this module, and
`dataclasses` would add its own imports (`inspect`, `ast`) and generated
code for each record to that start-up.  A record lists its fields and the
defaults of its trailing ones, and `_Record`'s one constructor sets them;
only `Angle` and `CoverSpec` write their own, each saying why.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, is_, sub


class MalformedAssignmentError(ValueError):
    """An angle assignment references a vertex or slot that does not exist."""


class UnsupportedInputError(ValueError):
    """The input graph violates a precondition of the requested operation."""


_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """An immutable record.  A subclass names its fields in `_fields`, in
    constructor order, and `_defaults` holds the values of its trailing
    optional fields.  The constructor takes the fields by position or by
    keyword; a missing, surplus, repeated or unknown argument raises
    TypeError.  A record writes its own `__init__` only to validate its
    arguments or to be built faster where a solver builds one per vertex.
    Two records are equal when they are of one class and `_key`, the field
    values, is equal; the hash is that of `_key`, and the repr shows each
    field.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__qualname__
        values = dict(zip(fields[len(fields) - len(self._defaults):], self._defaults))
        values.update(zip(fields, args))
        # A keyword must name a field that no positional argument gave.
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(
                f"{name}() takes the fields {fields}; got {len(args)} positional"
                f" and the keywords {sorted(kwargs)}"
            )
        values.update(kwargs)
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values]
            raise TypeError(f"{name}() is missing the fields {missing}")
        for field in fields:
            _set(self, field, values[field])

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Restore a copied or unpickled record past the assignment guard."""
        if isinstance(state, tuple):  # (__dict__ or None, slot values)
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            _set(self, name, value)


class RotationGraph(_Record):
    """A multigraph with a per-vertex cyclic ordering of incident edges.

    vertices: vertex identifiers (non-negative ints).
    edges:    edge id -> (u, v); u == v denotes a self-loop.
    rotation: vertex -> cyclic sequence of edge ids.  An edge (u, v) with
              u != v appears once in u's and once in v's rotation; a
              self-loop at v appears twice in v's rotation.
    """

    _fields = ("vertices", "edges", "rotation")
    vertices: tuple[int, ...]
    edges: dict[int, tuple[int, int]]
    rotation: dict[int, tuple[int, ...]]

    @staticmethod
    def build(vertices, edges, rotation) -> "RotationGraph":
        return RotationGraph(
            vertices=tuple(vertices),
            edges={e: (u, v) for e, (u, v) in dict(edges).items()},
            rotation={v: tuple(rot) for v, rot in dict(rotation).items()},
        )

    def deg(self, v: int) -> int:
        return len(self.rotation.get(v, ()))

    def max_degree(self) -> int:
        return max(self.dart_index.degree, default=0)

    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges.values())

    @cached_property
    def dart_index(self) -> "DartIndex":
        return DartIndex.of(self)

    def end_darts(self, e: int) -> tuple[int, int]:
        """Edge e = (u, w) as (its dart at u, its dart at w); a loop's two
        darts come in ascending slot order."""
        ix = self.dart_index
        d = ix.dart_of[e]
        t = ix.twin[d]
        return (d, t) if ix.vertex[d] == self.edges[e][0] else (t, d)

    def ends(self, e: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """`end_darts(e)` as ((u, slot at u), (w, slot at w))."""
        ix = self.dart_index
        d, t = self.end_darts(e)
        return (ix.vertex[d], ix.slot(d)), (ix.vertex[t], ix.slot(t))


class DartIndex(_Record):
    """Flat per-dart arrays of a valid rotation graph (see the module
    docstring); `of` is the package's one check of that validity, and
    the cached `succ`, `degree` and `rank` derive from its arrays."""

    _fields = ("first", "vertex", "edge", "twin", "dart_of")
    first: dict[int, int]  # vertex -> its slot-0 dart
    vertex: list[int]  # dart -> vertex
    edge: list[int]  # dart -> edge id
    twin: list[int]  # dart -> the other dart of its edge
    dart_of: dict[int, int]  # edge id -> its lower dart

    @staticmethod
    def of(g: RotationGraph) -> "DartIndex":
        first: dict[int, int] = {}
        vertex: list[int] = []
        edge: list[int] = []
        for v in sorted(g.vertices):
            rot = g.rotation.get(v, ())
            first[v] = len(edge)
            vertex += [v] * len(rot)
            edge += rot
        dart_of: dict[int, int] = {}
        twin = [0] * len(edge)
        for d, e in enumerate(edge):
            o = dart_of.setdefault(e, d)
            twin[o], twin[d] = d, o
        edges = g.edges
        # An edge seen once is its own twin; with no such edge, 2|dart_of|
        # darts mean every edge is seen exactly twice.
        if (
            2 * len(dart_of) == len(edge)
            and not any(map(eq, twin, range(len(twin))))
            and dart_of.keys() == edges.keys()
        ):
            for e, d in dart_of.items():  # its two darts at its two ends
                u, w = edges[e]
                x, y = vertex[d], vertex[twin[d]]
                if not (x == u and y == w or x == w and y == u):
                    break
            else:
                return DartIndex(first, vertex, edge, twin, dart_of)
        raise UnsupportedInputError("; ".join(_violations(g)))

    def slot(self, d: int) -> int:
        return d - self.first[self.vertex[d]]

    @cached_property
    def degree(self) -> list[int]:
        """Per vertex, in the order of `first` (ascending), its degree."""
        starts = list(self.first.values())
        return list(map(sub, [*starts[1:], len(self.edge)], starts))

    @cached_property
    def succ(self) -> list[int]:
        """Per dart, the dart of the next slot at its vertex, slot 0 after
        the last: the rotation σ as a permutation of the darts."""
        succ = list(range(1, len(self.edge) + 1))
        for d, k in zip(self.first.values(), self.degree):
            if k:
                succ[d + k - 1] = d
        return succ

    @cached_property
    def rank(self) -> list[int]:
        """Per dart, its vertex's position in `first` (isolated ones count)."""
        return list(chain.from_iterable(map(repeat, range(len(self.first)), self.degree)))

    def walk(self, partner) -> bytearray:
        """One slot-pairing walk over every dart; per dart, 1 if the walk
        left its vertex there and 2 if it entered there.

        Entering a vertex on slot s, a walk leaves it on slot partner[s]
        (a fixed transition system; `partner` covers every slot below the
        maximum degree), and it ends on entering a slot whose partner the
        vertex lacks.  The open trails, which start on the darts whose
        partner slot is missing, go first, then the closed walks over the
        remaining darts.  So each pair {s, partner[s]} at a vertex is
        entered once and left once, or only one of the two when a slot is
        missing.  When `partner` is an involution without fixed points, no
        walk uses an edge in both directions: such a walk would be its own
        reverse, which needs a slot that is its own partner.
        """
        twin = self.twin
        # Per degree, then per dart: the offset from a slot to its
        # partner, or None where the vertex lacks the partner slot.
        step = {
            k: [p - s if p < k else None for s, p in enumerate(partner[:k])]
            for k in set(self.degree)
        }
        jump = list(chain.from_iterable(map(step.__getitem__, self.degree)))
        # 0: edge not yet walked; 1: walked out of this dart; 2: walked into it.
        used = bytearray(len(twin))

        def unused():  # each dart in turn that no walk has used yet
            d = used.find(0)
            while d >= 0:
                yield d
                d = used.find(0, d + 1)

        starts = compress(range(len(jump)), map(is_, jump, repeat(None)))
        for d0 in chain(starts, unused()):
            d = d0
            while not used[d]:
                used[d] = 1
                t = twin[d]
                used[t] = 2
                if jump[t] is None:
                    break
                d = t + jump[t]
            else:
                assert d == d0, "walk hit a directed edge before closing"
        return used


class Orientation:
    """The capacity orientation (Hakimi 1965): each placed edge is held by
    one end, through its dart there (held[d] is 1), and the vertex of rank
    x holds the darts in holds[x], at most cap[x] = min(deg, c).  These are
    tuples: the garbage collector stops tracking a tuple of ints, where
    10^4 lists per large graph would set off full collections.

    It starts from the walk with s paired to s ^ 1: each vertex holds the
    edges directed into it, and one that reaches a full vertex goes to its
    other end if that has room, else its dart there goes to `unplaced`.
    `give` places an edge even over capacity, listing that vertex in
    `over`, and `repair` brings a vertex back within capacity.
    """

    def __init__(self, ix: DartIndex, c: int):
        self.rank, self.twin = rank, twin = ix.rank, ix.twin
        self.cap = cap = [k if k < c else c for k in ix.degree]
        self.holds = holds = [()] * len(cap)
        self.held = held = bytearray(len(twin))
        self.unplaced: list[int] = []
        self.over: list[int] = []
        self.seen = [0] * len(cap)  # per vertex, the last search to visit it
        self.via = [-1] * len(cap)  # and the held dart it stepped in along
        self.search = 0
        room = cap[:]  # per vertex, how many more edges it may take
        marks = ix.walk([s ^ 1 for s in range(max(ix.degree, default=0))])
        for d in compress(range(len(twin)), map((2).__eq__, marks)):
            x = rank[d]
            if not room[x]:
                d = twin[d]
                x = rank[d]
                if not room[x]:
                    self.unplaced.append(d)
                    continue
            holds[x] += (d,)
            held[d] = 1
            room[x] -= 1

    def give(self, d: int) -> None:
        """Give d's edge, not held through d, to d's vertex, taking it from
        the other end if that holds it."""
        rank, holds, held, t = self.rank, self.holds, self.held, self.twin[d]
        if held[t]:
            hs = holds[rank[t]]
            i = hs.index(t)
            holds[rank[t]] = hs[:i] + hs[i + 1 :]
            held[t] = 0
        x = rank[d]
        holds[x] += (d,)
        held[d] = 1
        if len(holds[x]) > self.cap[x]:
            self.over.append(x)

    def repair(self, x: int, pinned) -> list[int] | None:
        """Move edges out of x until it is within capacity, each by
        breadth-first path reversal along held edges, entering no dart t
        with pinned[t], to the first vertex below capacity; None, or the
        vertices visited when no such path exists.  Those are full (x
        over), and every edge they hold leads back among them or into a
        pinned dart, so with no pins |E(S)| > Σ_S cap."""
        holds, cap, held, rank, twin = self.holds, self.cap, self.held, self.rank, self.twin
        seen, via = self.seen, self.via
        while len(holds[x]) > cap[x]:
            self.search = search = self.search + 1
            seen[x] = search
            queue = [x]
            for u in queue:
                for h in holds[u]:
                    t = twin[h]
                    y = rank[t]
                    if seen[y] != search and not pinned[t]:
                        seen[y], via[y] = search, h
                        if len(holds[y]) < cap[y]:
                            break
                        queue.append(y)
                else:
                    continue
                break
            else:
                return queue
            while y != x:  # each edge of the path moves one step closer to y
                h = via[y]
                holds[y] += (twin[h],)
                y = rank[h]
                hs = holds[y]
                i = hs.index(h)
                holds[y] = hs[:i] + hs[i + 1 :]
                held[twin[h]], held[h] = 1, 0
        return None


def find(parent, x):
    """Union-find root of x with path halving; `parent` maps each item to
    its parent (a dict or a list)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def simple_graph_fault(edges: dict[int, tuple[int, int]]) -> str | None:
    """The first requirement of a simple graph that `edges` breaks, in edge
    order: "loop-free" (a loop) or "simple" (a repeated pair); else None."""
    seen = set()
    for u, v in edges.values():
        if u == v:
            return "loop-free"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return "simple"
        seen.add(key)
    return None


class CoverSpec(_Record):
    """Problem parameters: at most `a` angles per vertex, each spanning
    `m` consecutive slots.  The basic angle cover is (a=1, m=2)."""

    __slots__ = _fields = ("a", "m")
    a: int
    m: int

    # Its own constructor: it validates a and m.
    def __init__(self, a=1, m=2):
        if a < 1:
            raise ValueError("need a >= 1")
        if m < 2:
            raise ValueError("need m >= 2")
        _set(self, "a", a)
        _set(self, "m", m)


BASIC_SPEC = CoverSpec(1, 2)


def coverable_slots(g: RotationGraph, spec: CoverSpec) -> int:
    """Σ_v min(deg v, a·m), the most edges an (a, m) assignment covers.

    A covered edge takes a covered slot of its own, and a vertex covers
    at most min(deg, a·m) slots, so more edges to cover than this sum is
    a NO without a search.
    """
    c = spec.a * spec.m
    return sum(d if d < c else c for d in g.dart_index.degree)


# The exhaustive search's default budget, a bound on its decisions plus
# conflicts (`solve.oracle_solve`); the CLI's ANGLESET_BUDGET default.
DEFAULT_BUDGET = 10_000_000


class Angle(_Record):
    """A contiguous arc of rotation slots at a vertex.

    Covers slots start, start+1, ..., start+width-1 (mod deg(vertex)).
    The effective width is min(m, deg), so a vertex of degree <= m covers
    all of its incident edges with one angle.
    """

    __slots__ = _fields = ("vertex", "start", "width")
    vertex: int
    start: int
    width: int

    # Its own constructor: every solver builds one per vertex (`solve._cover`).
    def __init__(self, vertex, start, width):
        _set(self, "vertex", vertex)
        _set(self, "start", start)
        _set(self, "width", width)

    def slots(self, deg: int) -> list[int]:
        return [(self.start + i) % deg for i in range(self.width)]


class AngleAssignment(_Record):
    """Per-vertex lists of angles.  Vertices may be absent (zero angles)."""

    __slots__ = _fields = ("angles",)
    angles: dict[int, tuple[Angle, ...]]

    @staticmethod
    def build(angles: dict[int, list[Angle]]) -> "AngleAssignment":
        return AngleAssignment({v: tuple(a) for v, a in angles.items() if a})

    def total(self) -> int:
        return sum(len(a) for a in self.angles.values())

    def all_angles(self):
        for v in sorted(self.angles):
            yield from self.angles[v]


class Certificate(_Record):
    """Solver verdict plus, for YES, a validating assignment.

    The counters are the exhaustive search's (`solve.oracle_solve`), zero
    for the other solvers; they take no part in comparisons.  `tight`
    counts the conflicts raised by the search's capacity orientation.
    """

    __slots__ = _fields = (
        "verdict", "assignment", "decisions", "conflicts", "learned", "restarts", "tight",
    )
    _defaults = (None, 0, 0, 0, 0, 0)
    verdict: str  # "YES", "NO" or "INDETERMINATE"
    assignment: AngleAssignment | None
    decisions: int
    conflicts: int
    learned: int  # clauses kept; units go to level 0
    restarts: int
    tight: int

    def _key(self) -> tuple:
        return self.verdict, self.assignment

    @property
    def is_yes(self) -> bool:
        return self.verdict == "YES"

    @property
    def is_no(self) -> bool:
        return self.verdict == "NO"


def validate_graph(g: RotationGraph) -> list[str]:
    """Check the RotationGraph invariants; returns one message per violation.

    A graph is valid exactly when its dart index builds (`DartIndex.of`),
    which then stays cached on g for the solvers; the messages come from
    `_violations`, a rotation walk that runs only on invalid graphs.
    """
    try:
        g.dart_index
    except UnsupportedInputError:
        return _violations(g)
    return []


def _violations(g: RotationGraph) -> list[str]:
    """The messages of an invalid graph, from a walk over every rotation
    entry; `DartIndex.of` raises them joined by "; "."""
    issues = []
    vset = set(g.vertices)
    for e, (u, v) in sorted(g.edges.items()):
        for w in {u, v}:
            if w not in vset:
                issues.append(f"edge {e}: endpoint {w} is not a vertex")
    occurrences: Counter[tuple[int, int]] = Counter()
    for v in g.vertices:
        for e in g.rotation.get(v, ()):
            occurrences[v, e] += 1
            if e not in g.edges:
                issues.append(f"vertex {v}: rotation names unknown edge {e}")
            elif v not in g.edges[e]:
                issues.append(f"vertex {v}: rotation lists non-incident edge {e}")
    for e, (u, v) in sorted(g.edges.items()):
        if u not in vset or v not in vset:
            continue
        if u == v:
            count = occurrences[u, e]
            if count != 2:
                issues.append(
                    f"self-loop {e} at {u} occurs {count} times in rotation, expected 2"
                )
        else:
            for w in (u, v):
                count = occurrences[w, e]
                if count != 1:
                    issues.append(
                        f"edge {e}=({u},{v}) occurs {count} times in rotation of {w},"
                        " expected 1"
                    )
    endpoints = {w for ends in g.edges.values() for w in ends}
    for v in g.vertices:
        if v not in g.rotation and v in endpoints:
            issues.append(f"vertex {v}: missing rotation")
    return issues


class CoverCheck(_Record):
    __slots__ = _fields = ("valid", "uncovered_edges", "violations")
    valid: bool
    uncovered_edges: tuple[int, ...]
    violations: tuple[str, ...]


def check_cover(g: RotationGraph, asg: AngleAssignment, spec: CoverSpec) -> CoverCheck:
    """Validity of an angle assignment against a CoverSpec.

    Valid iff every vertex lists at most spec.a angles, every angle is a
    contiguous arc of width min(spec.m, deg), and every edge has a covered
    slot at one of its endpoints (either slot, for a self-loop).
    """
    ix = g.dart_index
    violations: list[str] = []
    covered = bytearray(len(ix.twin))
    for v, angs in asg.angles.items():
        if v not in ix.first:
            raise MalformedAssignmentError(f"assignment names unknown vertex {v}")
        d = g.deg(v)
        if len(angs) > spec.a:
            violations.append(f"vertex {v}: {len(angs)} angles exceed limit {spec.a}")
        want = min(spec.m, d) if d else 0
        for ang in angs:
            if ang.vertex != v:
                raise MalformedAssignmentError(
                    f"angle at key {v} names vertex {ang.vertex}"
                )
            if d == 0 or not (0 <= ang.start < d):
                raise MalformedAssignmentError(
                    f"vertex {v}: angle start {ang.start} out of range for degree {d}"
                )
            if ang.width != want:
                violations.append(
                    f"vertex {v}: angle width {ang.width}, expected min(m, deg) = {want}"
                )
                continue
            for s in ang.slots(d):
                covered[ix.first[v] + s] = 1
    uncovered = []
    for e in sorted(g.edges):
        d = ix.dart_of[e]
        if not (covered[d] or covered[ix.twin[d]]):
            uncovered.append(e)
    valid = not violations and not uncovered
    return CoverCheck(valid, tuple(uncovered), tuple(violations))


class FaceData(_Record):
    """The face count of a combinatorial map and its genus.  The faces
    themselves are walked from the dart index by `_face_cycles`."""

    __slots__ = _fields = ("num_faces", "genus")
    num_faces: int
    genus: int

    @property
    def is_plane(self) -> bool:
        return self.genus == 0


def _face_cycles(ix: DartIndex):
    """Each face as the list of its darts, in walk order: cross the edge,
    then turn to the next rotation slot."""
    succ, twin = ix.succ, ix.twin
    seen = bytearray(len(twin))
    for start in range(len(twin)):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = 1
            cycle.append(d)
            d = succ[twin[d]]
        yield cycle


def trace_faces(g: RotationGraph) -> FaceData:
    """Count the faces of the combinatorial map and compute its genus.

    Summing Euler's formula over the C connected components gives
    genus = (2C - V + E - F) / 2, where an isolated vertex is a component
    with one face.  One walk counts both: it traces the faces of one
    component at a time, each next face from a dart across an edge of a
    face already traced, so a walk that starts afresh is a new component.
    It keeps no face; `_face_cycles` walks them where a caller needs one.
    """
    ix = g.dart_index
    succ, twin = ix.succ, ix.twin
    seen = bytearray(len(twin))
    f = c = 0
    for root in range(len(twin)):
        if seen[root]:
            continue
        c += 1
        across = [root]  # darts across an edge from a traced face
        while across:
            d = across.pop()
            if seen[d]:
                continue
            f += 1
            while not seen[d]:  # the face walk of `_face_cycles`
                seen[d] = 1
                t = twin[d]
                across.append(t)
                d = succ[t]
    isolated = ix.degree.count(0)
    c += isolated
    defect = 2 * c - len(g.vertices) + len(g.edges) - (f + isolated)
    assert defect % 2 == 0, "face tracing produced an odd Euler defect"
    return FaceData(f, defect // 2)
