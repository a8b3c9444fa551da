"""From a plane graph with an angle cover to a thickness-2 decomposition
of its 2-blowup into two isomorphic planar layers.

Layer H keeps all copy-1 edges and, per source vertex v, cross edges from
v's second copy into the angle covered by v; the mirrored relabelling is
the second layer.  The layers are built from per-dart lists over the
source graph's dart index (`core.DartIndex`), with no rescan of its
rotation.  The planarity of H is always verified by face tracing, never
assumed.  The mirrored layer is not traced again: it gives vertex iso[v]
the rotation of v and relabels each edge's ends by iso, so it is the
same map as H and has H's genus.  `verify_decomposition` traces both.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    AngleAssignment,
    BASIC_SPEC,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    simple_graph_fault,
    trace_faces,
    _Record,
)
from .transform import blowup2


class BlowupDecomposition(_Record):
    """Two isomorphic genus-0 layers whose union is the 2-blowup."""

    __slots__ = _fields = ("h", "h_tilde", "iso")
    h: RotationGraph
    h_tilde: RotationGraph
    iso: dict[int, int]  # copy swap: 2v <-> 2v+1


def blowup_decomposition(
    g: RotationGraph, asg: AngleAssignment
) -> BlowupDecomposition:
    """Build the two-layer decomposition from a cover of a plane graph.

    Copy 1 of source vertex v is 2v and copy 2 is 2v + 1
    (`transform.blowup_vertex`).  Edge i of H is copy 1 of the i-th
    source edge in ascending id order, and edge m + i (m source edges) its
    one cross edge, from copy 2 of a vertex whose angle covers it to copy
    1 of the other end.  A source edge covered at both ends keeps the
    cross edge of its smaller endpoint.
    """
    if simple_graph_fault(g.edges):
        raise UnsupportedInputError("decomposition needs a simple graph")
    if trace_faces(g).genus != 0:
        raise UnsupportedInputError("decomposition needs a plane embedding")
    chk = check_cover(g, asg, BASIC_SPEC)
    if not chk.valid:
        raise UnsupportedInputError(f"assignment is not a cover: {chk}")

    ix = g.dart_index
    first, vertex, edge, twin = ix.first, ix.vertex, ix.edge, ix.twin
    order = sorted(g.edges)
    m = len(order)
    base = dict(zip(order, range(m)))  # source edge -> its copy-1 edge id
    copy1 = [base[e] for e in edge]  # per dart, its edge's copy-1 id
    # Per dart, the cross edge next to it at its vertex's copy 1.  The
    # cross edge kept at dart d of w reaches copy 1 of u along twin[d]:
    # just before it when d opens w's arc (w's copy 2 lies on the later
    # side at w, hence on the earlier side seen from u), else just after.
    before = [None] * len(twin)
    after = [None] * len(twin)
    keep: dict[int, int] = {}  # source edge -> first arc dart covering it
    hosted = {}  # vertex -> the darts, in arc order, whose cross edge it keeps
    for v, k in zip(first, ix.degree):
        angs = asg.angles.get(v)
        arc = [first[v] + s for s in angs[0].slots(k)] if angs else []
        hosted[v] = [d for d in arc if keep.setdefault(edge[d], d) == d]
        for d in hosted[v]:
            side = before if d == arc[0] else after
            assert side[twin[d]] is None
            side[twin[d]] = m + copy1[d]

    edges = {i: (2 * u, 2 * w) for i, (u, w) in enumerate(map(g.edges.get, order))}
    for i, d in enumerate(map(keep.get, order), m):
        edges[i] = (2 * vertex[d] + 1, 2 * vertex[twin[d]])
    rotation: dict[int, tuple[int, ...]] = {}
    for v, k in zip(first, ix.degree):
        rotation[2 * v] = tuple([
            x
            for d in range(first[v], first[v] + k)
            for x in (before[d], copy1[d], after[d])
            if x is not None
        ])
        rotation[2 * v + 1] = tuple([m + copy1[d] for d in hosted[v]])
    vertices = tuple(rotation)
    h = RotationGraph(vertices, edges, rotation)
    if trace_faces(h).genus != 0:
        raise AssertionError(
            "constructed layer is not plane; cross-edge side rule failed"
        )

    iso = {}
    for v in g.vertices:
        iso[2 * v] = 2 * v + 1
        iso[2 * v + 1] = 2 * v
    t_edges = {e: (iso[u], iso[w]) for e, (u, w) in edges.items()}
    t_rot = {iso[v]: rot for v, rot in rotation.items()}
    return BlowupDecomposition(h, RotationGraph(vertices, t_edges, t_rot), iso)


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

    def end_pairs(edges, relabel=None) -> Counter:
        """Each edge as its (min, max) end pair, its ends relabelled first."""
        ends = edges.values()
        if relabel is not None:
            ends = [(relabel[u], relabel[v]) for u, v in ends]
        return Counter([(u, v) if u < v else (v, u) for u, v in ends])

    # `dict` equality: `Counter`'s own runs a Python loop over every key,
    # and no count here is zero or negative.
    same = dict.__eq__
    tilde = end_pairs(d.h_tilde.edges)
    issues = []
    if not same(end_pairs(d.h.edges, d.iso), tilde):
        issues.append("iso does not map layer H onto layer H-tilde")
    for name, layer in (("H", d.h), ("H-tilde", d.h_tilde)):
        genus = trace_faces(layer).genus
        if genus != 0:
            issues.append(f"layer {name} has genus {genus}")
    union = end_pairs(d.h.edges) + tilde
    want = end_pairs(blowup2(g).edges)
    if not same(union, want):
        missing = sorted(want - union)
        excess = sorted(union - want)
        if missing:
            issues.append(f"union is missing edges {missing}")
        if excess:
            issues.append(f"union has excess edges {excess}")
    return DecompositionCheck(not issues, tuple(issues))
