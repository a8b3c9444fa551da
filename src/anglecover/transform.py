"""Structure-preserving graph transforms.

Planarization of topological graphs (crossings become degree-4 vertices),
the medial graph, the 2-blowup, and the bipartite edge/vertex-copies
graph.  The density test no longer builds that graph (it orients the
graph itself); `build_gmat` stays as the matching-based reference that
the tests check it against.
"""

from __future__ import annotations

from .core import RotationGraph, UnsupportedInputError, _Record, validate_graph


class Multigraph(_Record):
    """A plain multigraph: no rotation system attached."""

    __slots__ = _fields = ("vertices", "edges")
    vertices: tuple[int, ...]
    edges: dict[int, tuple[int, int]]


class BipartiteGraph(_Record):
    __slots__ = _fields = ("left", "right", "edges")
    left: tuple
    right: tuple
    edges: tuple[tuple, ...]  # (left node, right node) pairs


class Crossing(_Record):
    """A crossing of two edge interiors.

    `bit` fixes the cyclic order of the four pieces around the crossing:
    0 means <e's piece to its source, f's to its source, e's to its
    target, f's to its target>, 1 swaps f's two pieces.
    """

    __slots__ = _fields = ("e", "f", "bit")
    e: int
    f: int
    bit: int


class TopologicalGraph(_Record):
    """A rotation graph with a drawing's crossing data.

    `sequences` lists, for each edge, its crossing ids in order from the
    edge's first listed endpoint to its second.  Edges absent from the map
    are crossing-free.
    """

    __slots__ = _fields = ("base", "crossings", "sequences")
    base: RotationGraph
    crossings: dict[int, Crossing]
    sequences: dict[int, tuple[int, ...]]

    def validate(self) -> list[str]:
        """The base's `validate_graph` messages, then the crossing data's."""
        issues = validate_graph(self.base)
        # Piece ids pair an edge id with a piece index (`_piece_id`), which
        # is injective only on non-negative edge ids.
        issues += [f"edge {e}: negative edge id" for e in sorted(self.base.edges) if e < 0]
        seen: dict[tuple[int, int], int] = {}  # (crossing, edge) -> occurrences
        for e, seq in self.sequences.items():
            if e not in self.base.edges:
                issues.append(f"sequence names unknown edge {e}")
                continue
            for x in seq:
                if x not in self.crossings:
                    issues.append(f"edge {e}: unknown crossing {x}")
                    continue
                cr = self.crossings[x]
                if e not in (cr.e, cr.f):
                    issues.append(f"edge {e}: crossing {x} does not involve it")
                seen[x, e] = seen.get((x, e), 0) + 1
        for x, cr in sorted(self.crossings.items()):
            if cr.e == cr.f:
                issues.append(f"crossing {x}: an edge cannot cross itself")
                continue
            if cr.bit not in (0, 1):
                issues.append(f"crossing {x}: orientation bit must be 0 or 1")
            ends_e = set(self.base.edges.get(cr.e, ()))
            ends_f = set(self.base.edges.get(cr.f, ()))
            if ends_e & ends_f:
                issues.append(
                    f"crossing {x}: edges {cr.e} and {cr.f} share an endpoint"
                )
            for e in (cr.e, cr.f):
                if (n := seen.get((x, e), 0)) != 1:
                    issues.append(
                        f"crossing {x}: appears {n} times in the sequence of edge {e},"
                        " expected 1"
                    )
        return issues


def _piece_id(e: int, j: int) -> int:
    """Cantor pairing of (edge, piece index); injective and reproducible."""
    return (e + j) * (e + j + 1) // 2 + j


def planarize(tg: TopologicalGraph) -> RotationGraph:
    """Replace every crossing with a degree-4 vertex.

    Each edge with k crossings becomes a path of k+1 pieces; piece j of
    edge e receives id _piece_id(e, j).  The rotation at a crossing vertex
    follows the crossing's stored orientation bit.  Original rotations
    keep their order: piece 0 of e takes e's place at its dart at e's first
    end (`end_darts`), and piece k at the other.
    """
    issues = tg.validate()
    if issues:
        raise UnsupportedInputError("; ".join(issues))
    g = tg.base
    seqs = {e: tuple(tg.sequences.get(e, ())) for e in g.edges}
    cross_vertex: dict[int, int] = {}
    next_v = max(g.vertices, default=-1) + 1
    for x in sorted(tg.crossings):
        cross_vertex[x] = next_v
        next_v += 1

    # Index of each crossing along each of its two edges.
    pos: dict[tuple[int, int], int] = {}
    for e, seq in seqs.items():
        for i, x in enumerate(seq):
            pos[(e, x)] = i

    # Per dart of g, the piece of its edge that ends there.
    ix = g.dart_index
    piece = [0] * len(ix.edge)
    edges: dict[int, tuple[int, int]] = {}
    for e, (u, v) in g.edges.items():
        seq = seqs[e]
        nodes = [u] + [cross_vertex[x] for x in seq] + [v]
        for j in range(len(seq) + 1):
            edges[_piece_id(e, j)] = (nodes[j], nodes[j + 1])
        head, tail = g.end_darts(e)
        piece[head], piece[tail] = _piece_id(e, 0), _piece_id(e, len(seq))
    rotation = {v: tuple(piece[ix.first[v] : ix.first[v] + g.deg(v)]) for v in g.vertices}
    for x in sorted(tg.crossings):
        cr = tg.crossings[x]
        i, j = pos[(cr.e, x)], pos[(cr.f, x)]
        es, et = _piece_id(cr.e, i), _piece_id(cr.e, i + 1)
        fs, ft = _piece_id(cr.f, j), _piece_id(cr.f, j + 1)
        rotation[cross_vertex[x]] = (es, ft, et, fs) if cr.bit else (es, fs, et, ft)

    vertices = tuple(sorted(set(g.vertices) | set(cross_vertex.values())))
    return RotationGraph.build(vertices, edges, rotation)


def medial_graph(
    g: RotationGraph,
) -> tuple[Multigraph, dict[int, tuple[int, tuple[int, int]]]]:
    """The medial graph plus provenance.

    One medial vertex per edge of g; one candidate medial edge per dart
    d, joining the edges of d and of `succ[d]` (a degree-2 vertex gives
    two parallel candidates, degree-1 a loop).  Loops are dropped and
    parallels deduplicated in dart order (by vertex, then slot); the
    provenance maps each surviving medial edge to its (vertex, (slot,
    next slot)) origin.
    """
    ix = g.dart_index
    first, vertex, edge = ix.first, ix.vertex, ix.edge
    edges, provenance, seen_pairs = {}, {}, set()
    for d, t in enumerate(ix.succ):
        e1, e2 = edge[d], edge[t]
        if e1 == e2:
            continue  # medial loop
        key = (e1, e2) if e1 < e2 else (e2, e1)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        v = vertex[d]
        provenance[len(edges)] = (v, (d - first[v], t - first[v]))
        edges[len(edges)] = key
    return Multigraph(tuple(sorted(g.edges)), edges), provenance


def build_gmat(g: RotationGraph) -> BipartiteGraph:
    """Bipartite graph: edges of g on the left, two copies of each vertex
    on the right, (e, v-copy) adjacent iff v is an endpoint of e.

    A reference only: g has low edge density iff this graph has a
    matching saturating its left side, which `density.check_low_density`
    decides without building it."""
    left = tuple(sorted(g.edges))
    right = tuple((v, c) for v in sorted(g.vertices) for c in (0, 1))
    pairs = []
    for e in left:
        u, v = g.edges[e]
        for w in sorted({u, v}):
            pairs.append((e, (w, 0)))
            pairs.append((e, (w, 1)))
    return BipartiteGraph(left, right, tuple(pairs))


def blowup_vertex(v: int, copy: int) -> int:
    """Id of copy 1 or 2 of source vertex v in the 2-blowup encoding."""
    assert copy in (1, 2)
    return 2 * v + (copy - 1)


def blowup2(g: RotationGraph) -> Multigraph:
    """The 2-blowup: both copies of every vertex, all four copies of every
    edge.  Copy a of vertex v is encoded as 2v + a - 1."""
    if g.has_loops():
        raise UnsupportedInputError("2-blowup requires a loop-free graph")
    vertices = tuple(sorted(blowup_vertex(v, c) for v in g.vertices for c in (1, 2)))
    edges: dict[int, tuple[int, int]] = {}
    next_id = 0
    for e in sorted(g.edges):
        u, v = g.edges[e]
        for cu in (1, 2):
            for cv in (1, 2):
                edges[next_id] = (blowup_vertex(u, cu), blowup_vertex(v, cv))
                next_id += 1
    return Multigraph(vertices, edges)
