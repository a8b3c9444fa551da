"""Low-edge-density test via maximum bipartite matching.

A graph has low edge density when every k-vertex subgraph has at most 2k
edges; equivalently, the bipartite graph between edges and doubled
vertices has a matching saturating the edge side (found and certified
maximum by `allocate.maximum_matching`, via the Tutte-Berge formula).
When it does not, a violating vertex set is extracted from the final
alternating-reachability structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .allocate import maximum_matching
from .core import RotationGraph
from .transform import BipartiteGraph, build_gmat


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
    matching: dict
    witness: frozenset | None = None


def check_low_density(g: RotationGraph) -> DensityReport:
    """Decide low edge density; on failure produce a vertex set S with
    |E(S)| > 2|S|.

    With a deficient matching, the edges alternating-reachable from an
    unmatched edge node form a set A whose bipartite neighbourhood is
    exactly both copies of every endpoint, so those endpoints S satisfy
    |E(S)| >= |A| > |N(A)| = 2|S|.
    """
    b = build_gmat(g)
    matching = max_bipartite_matching(b)
    if len(matching) == len(b.left):
        return DensityReport(True, matching)

    adj: dict = {l: [] for l in b.left}
    for l, r in b.edges:
        adj[l].append(r)
    pair_right = {r: l for l, r in matching.items()}
    reachable = {l for l in b.left if l not in matching}
    queue = deque(reachable)
    while queue:
        l = queue.popleft()
        for r in adj[l]:
            other = pair_right.get(r)
            if other is not None and other not in reachable:
                reachable.add(other)
                queue.append(other)
    witness = frozenset(w for e in reachable for w in g.edges[e])
    inside = sum(
        1 for u, v in g.edges.values() if u in witness and v in witness
    )
    assert inside > 2 * len(witness), "extracted witness fails its inequality"
    return DensityReport(False, matching, witness)
