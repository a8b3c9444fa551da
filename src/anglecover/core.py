"""Rotation-system multigraphs, angle-cover semantics, and face tracing.

A rotation system stores, for every vertex, the cyclic order of its
incident edge ends ("slots").  A self-loop occupies two distinct slots at
its vertex.  All functions here are pure: they never mutate their inputs.

Each graph carries one dart index (`RotationGraph.dart_index`), built on
first use.  A dart is one (vertex, slot) pair; darts are numbered
0..2|E|-1 in ascending vertex order, so slot s at v is dart first[v] + s.
The index stores, per dart, its vertex, its edge and its twin (the other
end of the same edge), and per edge its lower dart.  `g.ends(e)` returns
an edge's two (vertex, slot) ends from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq


class MalformedAssignmentError(ValueError):
    """An angle assignment references a vertex or slot that does not exist."""


class UnsupportedInputError(ValueError):
    """The input graph violates a precondition of the requested operation."""


@dataclass(frozen=True)
class RotationGraph:
    """A multigraph with a per-vertex cyclic ordering of incident edges.

    vertices: vertex identifiers (non-negative ints).
    edges:    edge id -> (u, v); u == v denotes a self-loop.
    rotation: vertex -> cyclic sequence of edge ids.  An edge (u, v) with
              u != v appears once in u's and once in v's rotation; a
              self-loop at v appears twice in v's rotation.
    """

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
        return max((self.deg(v) for v in self.vertices), default=0)

    def num_edges(self) -> int:
        return len(self.edges)

    def has_loops(self) -> bool:
        return any(u == v for u, v in self.edges.values())

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges.values():
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    @cached_property
    def dart_index(self) -> "DartIndex":
        return DartIndex.of(self)

    def ends(self, e: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Edge e = (u, w) as ((u, slot at u), (w, slot at w)); a loop's
        two slots come in ascending order."""
        ix = self.dart_index
        d = ix.dart_of[e]
        t = ix.twin[d]
        if ix.vertex[d] != self.edges[e][0]:
            d, t = t, d
        return (ix.vertex[d], ix.slot(d)), (ix.vertex[t], ix.slot(t))

    def edge_slots(self, v: int) -> dict[int, list[int]]:
        """Slots at v keyed by edge id (a loop maps to both its slots)."""
        out: dict[int, list[int]] = {}
        for s, e in enumerate(self.rotation.get(v, ())):
            out.setdefault(e, []).append(s)
        return out


@dataclass(frozen=True)
class DartIndex:
    """Flat per-dart arrays of a rotation graph (see the module docstring)."""

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
        # An edge seen once is its own twin; with no such edge, 2|dart_of|
        # darts mean every edge is seen exactly twice.
        if (
            2 * len(dart_of) != len(edge)
            or any(map(eq, twin, range(len(twin))))
            or not g.edges.keys() <= dart_of.keys()
        ):
            counts = Counter(edge)
            bad = next(e for e in (*counts, *g.edges) if counts[e] != 2)
            raise UnsupportedInputError(
                f"edge {bad} has {counts[bad]} rotation occurrences, expected 2"
            )
        return DartIndex(first, vertex, edge, twin, dart_of)

    def slot(self, d: int) -> int:
        return d - self.first[self.vertex[d]]


def find(parent, x):
    """Union-find root of x with path halving; `parent` maps each item to
    its parent (a dict or a list)."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(g: RotationGraph) -> dict[int, int]:
    """Map each vertex to a representative of its connected component."""
    parent = {v: v for v in g.vertices}
    for u, v in g.edges.values():
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
    return {v: find(parent, v) for v in g.vertices}


@dataclass(frozen=True)
class CoverSpec:
    """Problem parameters: at most `a` angles per vertex, each spanning
    `m` consecutive slots.  The basic angle cover is (a=1, m=2)."""

    a: int = 1
    m: int = 2

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("need a >= 1")
        if self.m < 2:
            raise ValueError("need m >= 2")


BASIC_SPEC = CoverSpec(1, 2)


@dataclass(frozen=True)
class Angle:
    """A contiguous arc of rotation slots at a vertex.

    Covers slots start, start+1, ..., start+width-1 (mod deg(vertex)).
    The effective width is min(m, deg), so a vertex of degree <= m covers
    all of its incident edges with one angle.
    """

    vertex: int
    start: int
    width: int

    def slots(self, deg: int) -> list[int]:
        return [(self.start + i) % deg for i in range(self.width)]


@dataclass(frozen=True)
class AngleAssignment:
    """Per-vertex lists of angles.  Vertices may be absent (zero angles)."""

    angles: dict[int, tuple[Angle, ...]]

    @staticmethod
    def build(angles: dict[int, list[Angle]]) -> "AngleAssignment":
        return AngleAssignment({v: tuple(a) for v, a in angles.items() if a})

    def total(self) -> int:
        return sum(len(a) for a in self.angles.values())

    def all_angles(self):
        for v in sorted(self.angles):
            yield from self.angles[v]


@dataclass(frozen=True)
class Certificate:
    """Solver verdict plus, for YES, a validating assignment."""

    verdict: str  # "YES", "NO" or "INDETERMINATE"
    assignment: AngleAssignment | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "YES"

    @property
    def is_no(self) -> bool:
        return self.verdict == "NO"


def validate_graph(g: RotationGraph) -> list[str]:
    """Check the RotationGraph invariants; returns one message per violation.

    A graph is valid when its dart index builds, names only edges of g,
    and puts each edge's two darts at the edge's two endpoints (which are
    then vertices).  The index stays cached on g for the solvers; the
    messages come from a rotation walk that runs only on invalid graphs.
    """
    try:
        ix = g.dart_index
    except UnsupportedInputError:
        return _violations(g)
    vertex, twin, edges = ix.vertex, ix.twin, g.edges
    if len(ix.dart_of) == len(edges):
        for e, d in ix.dart_of.items():
            u, w = edges[e]
            x, y = vertex[d], vertex[twin[d]]
            if not (x == u and y == w or x == w and y == u):
                break
        else:
            return []
    return _violations(g)


def _violations(g: RotationGraph) -> list[str]:
    """validate_graph's messages, from a walk over every rotation entry."""
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


@dataclass(frozen=True)
class CoverCheck:
    valid: bool
    uncovered_edges: tuple[int, ...]
    violations: tuple[str, ...]


def check_cover(g: RotationGraph, asg: AngleAssignment, spec: CoverSpec) -> CoverCheck:
    """Validity of an angle assignment against a CoverSpec.

    Valid iff every vertex lists at most spec.a angles, every angle is a
    contiguous arc of width min(spec.m, deg), and every edge has a covered
    slot at one of its endpoints (either slot, for a self-loop).
    """
    vset = set(g.vertices)
    ix = g.dart_index
    violations: list[str] = []
    covered = bytearray(len(ix.twin))
    for v, angs in asg.angles.items():
        if v not in vset:
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


@dataclass(frozen=True)
class FaceData:
    faces: tuple[tuple[tuple[int, int], ...], ...]
    component_genus: dict[int, int] = field(compare=False, default_factory=dict)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def is_plane(self) -> bool:
        return all(genus == 0 for genus in self.component_genus.values())

    @property
    def genus(self) -> int:
        return sum(self.component_genus.values())


def trace_faces(g: RotationGraph) -> FaceData:
    """Trace the faces of the combinatorial map and compute per-component genus.

    Faces are dart cycles under "cross the edge, then turn to the next
    rotation slot".  For each connected component,
    genus = (2 - V + E - F) / 2; isolated vertices count one face.
    """
    ix = g.dart_index
    first, vertex, twin = ix.first, ix.vertex, ix.twin
    n = len(twin)
    comp = components(g)
    faces: list[tuple[tuple[int, int], ...]] = []
    face_of_component: dict[int, int] = {}
    seen = bytearray(n)
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = 1
            v = vertex[d]
            cycle.append((v, d - first[v]))
            t = twin[d]
            w = vertex[t]
            d = t + 1  # the next slot at w, wrapping round to slot 0
            if d == n or vertex[d] != w:
                d = first[w]
        faces.append(tuple(cycle))
        root = comp[cycle[0][0]]
        face_of_component[root] = face_of_component.get(root, 0) + 1

    counts: dict[int, list[int]] = {}
    for v in g.vertices:
        counts.setdefault(comp[v], [0, 0])[0] += 1
    for u, _ in g.edges.values():
        counts[comp[u]][1] += 1

    component_genus = {}
    for root, (nv, ne) in counts.items():
        nf = face_of_component.get(root, 1 if ne == 0 else 0)
        euler = nv - ne + nf
        assert (2 - euler) % 2 == 0, "face tracing produced an odd Euler defect"
        component_genus[root] = (2 - euler) // 2
    return FaceData(tuple(faces), component_genus)
