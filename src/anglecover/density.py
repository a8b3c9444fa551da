"""Low-edge-density test as a capacity-2 orientation.

A graph has low edge density when every k-vertex subgraph has at most 2k
edges: by Hakimi's theorem, exactly when each edge can be given to one of
its ends with no vertex holding more than two.  `check_low_density` asks
the package's one capacity orientation (`core.Orientation`) for that,
with c = 2; only its policy for the edges that cannot be placed is its own.
`max_bipartite_matching` asks the same of the edge/doubled-vertex graph
(`transform.build_gmat`) through the blossom engine, as an independent
reference; it imports that engine (`allocate`) only when it runs, so the
density test loads neither `allocate` nor `transform`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import Orientation, RotationGraph, _Record

if TYPE_CHECKING:
    from .transform import BipartiteGraph


def max_bipartite_matching(b: BipartiteGraph) -> dict:
    """Maximum matching as a left-node -> right-node map."""
    from .allocate import maximum_matching

    left = {l: i for i, l in enumerate(b.left)}
    right = {r: len(left) + i for i, r in enumerate(b.right)}
    adj: list[list[int]] = [[] for _ in range(len(left) + len(right))]
    for l, r in b.edges:
        adj[left[l]].append(right[r])
        adj[right[r]].append(left[l])
    mate = maximum_matching(adj)
    return {l: b.right[j - len(left)] for l, j in zip(b.left, mate) if j >= 0}


class DensityReport(_Record):
    __slots__ = _fields = ("low_density", "matching", "witness")
    _defaults = (None,)
    low_density: bool
    matching: dict  # edge -> (vertex, copy 0 or 1) for every placed edge
    witness: frozenset | None


def check_low_density(g: RotationGraph) -> DensityReport:
    """Decide low edge density; on failure produce a vertex set S with
    |E(S)| > 2|S|.

    Each edge that the orientation's start leaves unplaced is given to an
    end and repaired once.  A failed repair leaves it unplaced (held over
    capacity) and marks the region the search visited, full and closed,
    dead: the darts of dead vertices are pinned, so no later search enters
    it, and an edge goes to a live end or, with two dead ends, is skipped.
    So the orientation places as many edges as possible, and the dead set
    is the witness: the vertices reachable from the unplaced edges, full
    and holding only edges inside it.  It is the same for every maximum
    orientation (Dulmage and Mendelsohn), whatever the start or the order.

    `matching` maps each placed edge to its vertex and a copy, 0 or 1,
    numbered in edge order among the edges that vertex holds.
    """
    ix = g.dart_index
    twin, degree, rank, edge, vertex = ix.twin, ix.degree, ix.rank, ix.edge, ix.vertex
    o = Orientation(ix, 2)
    start = list(ix.first.values())
    pinned = bytearray(len(twin))  # the darts of dead vertices
    for f in o.unplaced:
        if pinned[f]:
            f = twin[f]
            if pinned[f]:
                continue
        o.give(f)
        region = o.repair(rank[f], pinned)
        if region is not None:  # pin it, one slice per vertex
            for y in region:
                pinned[start[y] : start[y] + degree[y]] = b"\1" * degree[y]

    matching = {}
    for hs in o.holds:
        if hs:
            h = hs[0]
            if len(hs) > 1:  # a dead vertex's third edge is unplaced
                j = hs[1]
                if edge[j] < edge[h]:
                    h, j = j, h
                matching[edge[j]] = (vertex[j], 1)
            matching[edge[h]] = (vertex[h], 0)
    witness = frozenset(v for v, s, k in zip(ix.first, start, degree) if k and pinned[s])
    if not witness:
        return DensityReport(True, matching)
    spanned = sum(1 for u, v in g.edges.values() if u in witness and v in witness)
    assert spanned > 2 * len(witness), "extracted witness fails its inequality"
    return DensityReport(False, matching, witness)
