"""Low-edge-density test as a capacity-2 orientation.

A graph has low edge density when every k-vertex subgraph has at most 2k
edges.  By Hakimi's theorem this holds exactly when every edge can be
given to one of its endpoints so that no vertex holds more than two
(a loop goes to its one vertex).  `check_low_density` builds such an
assignment on the graph itself: the dart index's slot-pairing walk
(`DartIndex.walk`, slot s paired with s ^ 1) directs every edge, each
vertex keeps at most two of the edges directed into it, an edge into a
full vertex goes to its other end when that end has room, and each edge
neither end can take gets one breadth-first path reversal.  When an edge
stays unplaced, the vertices that the failed searches visited span
more than twice as many edges as they have vertices, and that set is
the witness.

`max_bipartite_matching` is the same question asked of the
edge/doubled-vertex bipartite graph (`transform.build_gmat`) through the
package's blossom engine.  The density test no longer uses it; it stays
as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat

from .allocate import maximum_matching
from .core import RotationGraph
from .transform import BipartiteGraph


def max_bipartite_matching(b: BipartiteGraph) -> dict:
    """Maximum matching as a left-node -> right-node map."""
    left = {l: i for i, l in enumerate(b.left)}
    right = {r: len(left) + i for i, r in enumerate(b.right)}
    adj: list[list[int]] = [[] for _ in range(len(left) + len(right))]
    for l, r in b.edges:
        adj[left[l]].append(right[r])
        adj[right[r]].append(left[l])
    mate = maximum_matching(adj)
    return {l: b.right[j - len(left)] for l, j in zip(b.left, mate) if j >= 0}


@dataclass(frozen=True)
class DensityReport:
    low_density: bool
    matching: dict  # edge -> (vertex, copy 0 or 1) for every placed edge
    witness: frozenset | None = None


def check_low_density(g: RotationGraph) -> DensityReport:
    """Decide low edge density; on failure produce a vertex set S with
    |E(S)| > 2|S|.

    Hakimi (1965): the edges can be oriented with in-degree at most 2
    everywhere iff no vertex set S spans more than 2|S| edges.  Here a
    vertex "holds" the edges directed into it.  The walk that pairs slot
    s with slot s ^ 1 enters each vertex once per slot pair, so it
    directs ⌊deg/2⌋ or ⌈deg/2⌉ edges into each vertex (two at degree 4,
    where no search is needed).  In dart order, each vertex holds the
    edges directed into it while it holds fewer than two; a further one
    goes to its other end if that end holds fewer than two, and is
    deferred otherwise.  Each deferred edge then gets one breadth-first
    search from its endpoints: a vertex x holding f = (x, y) steps to y,
    since f could move there, and reaching a vertex with spare room
    reverses the path.  A failed search visited a set that is
    full and closed under those steps; no later reversal can enter it, so
    it is marked dead and never searched again, and an edge with both
    endpoints dead stays unplaced at once.  Once every edge has been
    tried, no unplaced edge can be placed by any reversal: the assignment
    places as many edges as possible.

    The witness S is the dead set.  Each dead vertex was reached from
    the endpoints of the unplaced edge whose search failed there, and
    the dead set is closed, so S is the set reachable from the endpoints
    of the unplaced edges by the same steps.  Every vertex of S is full
    and every edge it holds lies in S, so E(S) has the 2|S| held edges plus
    the unplaced ones.  As a matching of edges to vertex copies, S is the
    endpoint set of the edges alternating-reachable from the unmatched
    ones, which is the same for every maximum matching (Dulmage and
    Mendelsohn), so the witness depends on neither the walk nor the
    search order.

    The `matching` map gives each placed edge its vertex and a copy, 0 or
    1, numbered in edge order among the edges that vertex holds.
    """
    ix = g.dart_index
    twin, degree = ix.twin, ix.degree
    n = len(degree)
    # Vertices are numbered 0..n-1 in the order of `ix.first`, so an
    # isolated vertex has a number of its own; own[d] is dart d's.
    own = list(chain.from_iterable(map(repeat, range(n), degree)))
    marks = ix.walk([s ^ 1 for s in range(max(degree, default=0))])
    load = [0] * n
    held = [-1] * (2 * n)  # slots 2x and 2x + 1: the darts x holds edges by
    deferred = []
    for d in compress(range(len(twin)), map((2).__eq__, marks)):
        x = own[d]
        if load[x] == 2:  # a full vertex passes the edge to its other end
            d = twin[d]
            x = own[d]
        if load[x] < 2:
            held[2 * x + load[x]] = d
            load[x] += 1
        else:
            deferred.append(d)

    dead = [False] * n
    seen = [0] * n  # the search that last visited each vertex
    via = [-1] * n  # the held dart a search stepped along into each vertex
    for search, f in enumerate(deferred, 1):
        u, w = own[f], own[twin[f]]
        if dead[u] and dead[w]:
            continue
        queue = [x for x in {u, w} if not dead[x]]
        for x in queue:
            seen[x], via[x] = search, -1
        for x in queue:
            if load[x] < 2:
                break
            for h in held[2 * x], held[2 * x + 1]:
                y = own[twin[h]]
                if seen[y] != search and not dead[y]:
                    seen[y], via[y] = search, h
                    queue.append(y)
        else:
            for x in queue:
                dead[x] = True
            continue
        # Reverse the path into x: each edge on it moves one step on,
        # into the slot its successor vacated, and f takes the first.
        s = 2 * x + load[x]
        load[x] += 1
        while via[x] >= 0:
            h = via[x]
            held[s] = twin[h]
            x = own[h]
            s = 2 * x + (held[2 * x] != h)
        held[s] = f if own[f] == x else twin[f]

    edge, vertex = ix.edge, ix.vertex
    matching = {}
    for h, k in zip(held[0::2], held[1::2]):
        if k >= 0 and edge[k] < edge[h]:
            h, k = k, h
        if h >= 0:
            matching[edge[h]] = (vertex[h], 0)
        if k >= 0:
            matching[edge[k]] = (vertex[k], 1)
    witness = frozenset(compress(ix.first, dead))
    if not witness:
        return DensityReport(True, matching)
    spanned = sum(1 for u, v in g.edges.values() if u in witness and v in witness)
    assert spanned > 2 * len(witness), "extracted witness fails its inequality"
    return DensityReport(False, matching, witness)
