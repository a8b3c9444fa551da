"""From a plane graph with an angle cover to a thickness-2 decomposition
of its 2-blowup into two isomorphic planar layers.

Layer H keeps all copy-1 edges and, per source vertex v, cross edges from
v's second copy into the angle covered by v; the mirrored relabelling is
the second layer.  Planarity of the constructed rotation is always
verified by face tracing, never assumed.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    AngleAssignment,
    BASIC_SPEC,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    trace_faces,
    _Record,
)
from .transform import blowup2, blowup_vertex


class BlowupDecomposition(_Record):
    """Two isomorphic genus-0 layers whose union is the 2-blowup."""

    __slots__ = _fields = ("h", "h_tilde", "iso")
    h: RotationGraph
    h_tilde: RotationGraph
    iso: dict[int, int]  # copy swap: 2v <-> 2v+1


def _angle_edges(g: RotationGraph, asg: AngleAssignment, v: int):
    """The edges covered by v's angle, in arc order (empty if none)."""
    angs = asg.angles.get(v, ())
    if not angs:
        return []
    (ang,) = angs
    d = g.deg(v)
    return [g.rotation[v][s] for s in ang.slots(d)]


def blowup_decomposition(
    g: RotationGraph, asg: AngleAssignment
) -> BlowupDecomposition:
    """Build the two-layer decomposition from a cover of a plane graph."""
    if not g.is_simple():
        raise UnsupportedInputError("decomposition needs a simple graph")
    if trace_faces(g).genus != 0:
        raise UnsupportedInputError("decomposition needs a plane embedding")
    chk = check_cover(g, asg, BASIC_SPEC)
    if not chk.valid:
        raise UnsupportedInputError(f"assignment is not a cover: {chk}")

    # Which covered edges each vertex contributes a cross edge for; a
    # doubly-covered source edge keeps only the cross edge from its
    # lexicographically smaller endpoint's copy 2.
    coverers: dict[int, list[int]] = {e: [] for e in g.edges}
    arc: dict[int, list[int]] = {}
    for v in sorted(g.vertices):
        arc[v] = _angle_edges(g, asg, v)
        for e in arc[v]:
            coverers[e].append(v)
    keep: dict[int, int] = {}  # source edge -> vertex whose copy 2 hosts it
    for e, vs in coverers.items():
        keep[e] = min(vs)

    edges: dict[int, tuple[int, int]] = {}
    next_id = 0
    base_edge: dict[int, int] = {}  # source edge -> copy-1 edge id
    for e in sorted(g.edges):
        u, v = g.edges[e]
        edges[next_id] = (blowup_vertex(u, 1), blowup_vertex(v, 1))
        base_edge[e] = next_id
        next_id += 1
    cross_edge: dict[int, int] = {}  # source edge -> its one cross edge
    for e in sorted(g.edges):
        v = keep[e]
        u = g.edges[e][0] + g.edges[e][1] - v
        edges[next_id] = (blowup_vertex(v, 2), blowup_vertex(u, 1))
        cross_edge[e] = next_id
        next_id += 1

    # Rotations.  Copy 2 of v lists its kept cross edges in arc order.
    # At copy 1 of u, a cross edge arriving along source edge (w, u) sits
    # immediately next to the slot of that edge: before it when (w, u) is
    # the first member of w's arc (w's second copy lies on the later side
    # at w, hence on the earlier side seen from u), after it when it is a
    # later member.
    before: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    after: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    for w in sorted(g.vertices):
        for idx, e in enumerate(arc[w]):
            if keep[e] != w:
                continue
            ends = g.ends(e)
            u, slot = ends[1] if ends[0][0] == w else ends[0]
            side = before[u] if idx == 0 else after[u]
            assert slot not in side
            side[slot] = cross_edge[e]

    rotation: dict[int, tuple[int, ...]] = {}
    for v in sorted(g.vertices):
        rot1 = []
        for s, e in enumerate(g.rotation.get(v, ())):
            if s in before[v]:
                rot1.append(before[v][s])
            rot1.append(base_edge[e])
            if s in after[v]:
                rot1.append(after[v][s])
        rotation[blowup_vertex(v, 1)] = tuple(rot1)
        rotation[blowup_vertex(v, 2)] = tuple(
            cross_edge[e] for e in arc[v] if keep[e] == v
        )

    vertices = tuple(
        blowup_vertex(v, c) for v in sorted(g.vertices) for c in (1, 2)
    )
    h = RotationGraph.build(vertices, edges, rotation)
    if trace_faces(h).genus != 0:
        raise AssertionError(
            "constructed layer is not plane; cross-edge side rule failed"
        )

    iso = {}
    for v in g.vertices:
        iso[blowup_vertex(v, 1)] = blowup_vertex(v, 2)
        iso[blowup_vertex(v, 2)] = blowup_vertex(v, 1)
    t_edges = {e: (iso[u], iso[v]) for e, (u, v) in edges.items()}
    t_rot = {iso[v]: rot for v, rot in rotation.items()}
    h_tilde = RotationGraph.build(vertices, t_edges, t_rot)
    if trace_faces(h_tilde).genus != 0:
        raise AssertionError("mirrored layer is not plane")
    return BlowupDecomposition(h, h_tilde, iso)


class DecompositionCheck(_Record):
    __slots__ = _fields = ("valid", "violations")
    valid: bool
    violations: tuple[str, ...]


def verify_decomposition(
    g: RotationGraph, d: BlowupDecomposition
) -> DecompositionCheck:
    """Independent re-check: the layers are isomorphic under the copy
    swap, each is genus 0, and their edge multisets union to the
    2-blowup."""
    issues = []
    mapped = Counter(
        frozenset((d.iso[u], d.iso[v])) if u != v else frozenset((d.iso[u],))
        for u, v in d.h.edges.values()
    )
    actual = Counter(
        frozenset((u, v)) for u, v in d.h_tilde.edges.values()
    )
    if mapped != actual:
        issues.append("iso does not map layer H onto layer H-tilde")
    for name, layer in (("H", d.h), ("H-tilde", d.h_tilde)):
        genus = trace_faces(layer).genus
        if genus != 0:
            issues.append(f"layer {name} has genus {genus}")
    union = Counter()
    for layer in (d.h, d.h_tilde):
        for u, v in layer.edges.values():
            union[frozenset((u, v))] += 1
    want = Counter(
        frozenset((u, v)) for u, v in blowup2(g).edges.values()
    )
    if union != want:
        missing = sorted(
            tuple(sorted(k)) for k in (want - union)
        )
        excess = sorted(tuple(sorted(k)) for k in (union - want))
        if missing:
            issues.append(f"union is missing edges {missing}")
        if excess:
            issues.append(f"union has excess edges {excess}")
    return DecompositionCheck(not issues, tuple(issues))
