"""Minimum-size angle allocation via maximum matching in the medial graph.

An allocation lets every vertex take any number of 2-wide angles as long
as all edges end up covered; the minimum total equals |E| minus the size
of a maximum matching of the medial graph, because matched medial edges
are exactly independent angles that each cover two graph edges.

`maximum_matching`, the package's one matching engine, is Edmonds' blossom
search; every call certifies its result by the Tutte-Berge formula.
"""

from __future__ import annotations

from .core import Angle, AngleAssignment, RotationGraph, find
from .transform import Multigraph, medial_graph


def tutte_berge_holds(adj: list[list[int]], mate: list[int], tutte_set) -> bool:
    """Whether `mate` is a matching of `adj` with |V| + |U| - odd(G - U)
    = 2|M| for U = `tutte_set`; by the Tutte-Berge formula no matching
    is then larger."""
    if any(w >= 0 and (mate[w] != v or w not in adj[v]) for v, w in enumerate(mate)):
        return False
    parent = list(range(len(adj)))
    for v, ws in enumerate(adj):
        for w in ws:
            if v not in tutte_set and w not in tutte_set:
                parent[find(parent, v)] = find(parent, w)
    odd = bytearray(len(adj))  # size parity of each component, at its root
    for v in range(len(adj)):
        if v not in tutte_set:
            odd[find(parent, v)] ^= 1
    return len(adj) + len(tutte_set) - sum(odd) == sum(w >= 0 for w in mate)


def maximum_matching(adj: list[list[int]]) -> list[int]:
    """Maximum-cardinality matching of the graph on 0..n-1 given by
    symmetric adjacency lists (loops and parallel edges allowed), as a
    mate list in which -1 marks an exposed vertex.

    After a greedy start, one alternating-tree search with blossom
    contraction runs from each exposed vertex.  A tree whose search fails
    is deleted for good (Edmonds: it can never carry an augmenting path);
    its inner vertices form the Tutte set that certifies the result.
    """
    n = len(adj)
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            w = next((w for w in adj[v] if w != v and mate[w] < 0), -1)
            if w >= 0:
                mate[v], mate[w] = w, v
    base = list(range(n))
    parent = [-1] * n
    # 0 unreached, 1 outer, 2 inner; a deleted tree adds 2 (4 = in U).
    label = [0] * n
    for root in range(n):
        if mate[root] >= 0 or label[root]:
            continue
        label[root] = 1
        tree, outer = [root], [root]
        end = -1
        for v in outer:
            for w in adj[v]:
                if label[w] > 2 or base[v] == base[w] or mate[v] == w:
                    continue
                if label[w] == 1:
                    _contract(v, w, mate, base, parent, label, tree, outer)
                elif label[w] == 0:
                    parent[w] = v
                    if mate[w] < 0:
                        end = w
                        break
                    label[w], label[mate[w]] = 2, 1
                    tree += [w, mate[w]]
                    outer.append(mate[w])
            if end >= 0:
                break
        if end < 0:
            for v in tree:
                label[v] += 2
            continue
        tree.append(end)
        while end >= 0:
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
        for v in tree:
            base[v], parent[v], label[v] = v, -1, 0
    tutte_set = {v for v in range(n) if label[v] == 4}
    assert tutte_berge_holds(adj, mate, tutte_set), "matching not maximum"
    return mate


def _contract(v, w, mate, base, parent, label, tree, outer) -> None:
    """Shrink the blossom closed by the outer-outer edge v-w: its vertices
    take the base nearest the root and all become outer."""
    x = base[v]
    seen = {x}
    while mate[x] >= 0:
        x = base[parent[mate[x]]]
        seen.add(x)
    b = base[w]
    while b not in seen:
        b = base[parent[mate[b]]]
    in_blossom = set()
    for x, child in ((v, w), (w, v)):
        while base[x] != b:
            in_blossom.update((base[x], base[mate[x]]))
            parent[x] = child
            child = mate[x]
            x = parent[child]
    for x in tree:
        if base[x] in in_blossom:
            base[x] = b
            if label[x] == 2:
                label[x] = 1
                outer.append(x)


def max_matching_general(g: Multigraph) -> frozenset:
    """Maximum-cardinality matching of a multigraph, as a set of vertex
    pairs (u, v) with u < v."""
    vs = g.vertices
    index = {v: i for i, v in enumerate(vs)}
    adj: list[list[int]] = [[] for _ in vs]
    for u, v in g.edges.values():
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    pairs = ((vs[i], vs[j]) for i, j in enumerate(maximum_matching(adj)) if i < j)
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


def optimal_allocation(g: RotationGraph) -> tuple[AngleAssignment, int]:
    """Minimum-size allocation: |E| - |maximum medial matching| angles.

    Each matched medial edge becomes the angle at its provenance
    (vertex, consecutive-slot pair); every graph edge left uncovered gets
    one extra angle starting at its lower dart (`DartIndex.dart_of`).
    """
    med, provenance = medial_graph(g)
    matching = max_matching_general(med)
    pair_to_id = {pair: mid for mid, pair in med.edges.items()}

    angles: dict[int, list[Angle]] = {}
    covered: set[int] = set()
    for pair in sorted(matching):
        mid = pair_to_id[pair]
        v, (s, _) = provenance[mid]
        angles.setdefault(v, []).append(Angle(v, s, 2))
        covered.update(pair)

    ix = g.dart_index
    for e in sorted(g.edges):
        if e in covered:
            continue
        d = ix.dart_of[e]
        w = ix.vertex[d]
        angles.setdefault(w, []).append(Angle(w, ix.slot(d), min(2, g.deg(w))))
        covered.add(e)

    asg = AngleAssignment.build(angles)
    size = asg.total()
    assert size == len(g.edges) - len(matching)
    assert covered == set(g.edges)
    return asg, size
