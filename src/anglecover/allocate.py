"""Minimum-size angle allocation via maximum matching in the medial graph.

An allocation lets every vertex take any number of 2-wide angles as long
as all edges end up covered; the minimum total equals |E| minus the size
of a maximum matching of the medial graph, because matched medial edges
are exactly independent angles that each cover two graph edges.
"""

from __future__ import annotations

import networkx as nx

from .core import Angle, AngleAssignment, RotationGraph
from .transform import Multigraph, medial_graph


def _has_augmenting_path(adj: dict, matching: dict) -> bool:
    """Exact search for a simple alternating augmenting path (exponential
    in the worst case; used as a certificate check at desk scale)."""
    exposed = [v for v in adj if v not in matching]

    def grow(v, visited, need_matched: bool) -> bool:
        for w in adj[v]:
            if w in visited:
                continue
            if need_matched:
                if matching.get(v) == w:
                    visited.add(w)
                    if grow(w, visited, False):
                        return True
                    visited.discard(w)
            else:
                if matching.get(v) == w:
                    continue
                if w not in matching:
                    return True  # augmenting path complete
                visited.add(w)
                if grow(w, visited, True):
                    return True
                visited.discard(w)
        return False

    for s in exposed:
        if grow(s, {s}, False):
            return True
    return False


def max_matching_general(g: Multigraph) -> frozenset:
    """Maximum-cardinality matching of a simple graph, as a set of vertex
    pairs (blossom-shrinking via networkx)."""
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges.values())
    raw = nx.max_weight_matching(nxg, maxcardinality=True)
    matching = frozenset((u, v) if u < v else (v, u) for u, v in raw)
    mate = {}
    for u, v in matching:
        mate[u] = v
        mate[v] = u
    adj: dict = {v: [] for v in g.vertices}
    for u, v in g.edges.values():
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    assert not _has_augmenting_path(adj, mate), (
        "matching admits an augmenting path; not maximum"
    )
    return matching


def optimal_allocation(g: RotationGraph) -> tuple[AngleAssignment, int]:
    """Minimum-size allocation: |E| - |maximum medial matching| angles.

    Each matched medial edge becomes the angle at its provenance
    (vertex, consecutive-slot pair); every graph edge left uncovered gets
    one extra angle at its lower-id endpoint starting at the edge's slot.
    """
    med, provenance = medial_graph(g)
    matching = max_matching_general(med)
    pair_to_id = {}
    for mid, (e1, e2) in med.edges.items():
        pair_to_id[(e1, e2)] = mid
        pair_to_id[(e2, e1)] = mid

    angles: dict[int, list[Angle]] = {}
    covered: set[int] = set()
    for pair in sorted(matching):
        mid = pair_to_id[pair]
        v, (s, _) = provenance[mid]
        angles.setdefault(v, []).append(Angle(v, s, 2))
        covered.update(pair)

    for e in sorted(g.edges):
        if e in covered:
            continue
        w, slot = min(g.ends(e))
        angles.setdefault(w, []).append(Angle(w, slot, min(2, g.deg(w))))
        covered.add(e)

    asg = AngleAssignment.build(angles)
    size = asg.total()
    assert size == len(g.edges) - len(matching)
    assert covered == set(g.edges)
    return asg, size
