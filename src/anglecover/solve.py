"""Cover-finding algorithms.

Contains the exact backtracking oracle (with an allowance of uncovered
edges, also the search behind `reduce.max_coverage`), the linear-time
max-degree-4 solver, the 2-SAT solver for graphs without degree-3
vertices, the sextet-based solver for even maximum degree, the outerplane
entry point (an embedding check in front of the oracle), and a
brute-force minimum-allocation search used as a testing oracle.  The
max-degree-4 and sextet solvers are one closed walk with a fixed slot
pairing (`_walk_cover`); they differ only in the pairing.
"""

from __future__ import annotations

import heapq
from operator import eq, lt, not_, or_

from .core import (
    Angle,
    AngleAssignment,
    BASIC_SPEC,
    Certificate,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    trace_faces,
)

DEFAULT_BUDGET = 10_000_000


def min_arc_cover(deg: int, slots, m: int) -> tuple[int, list[int]]:
    """Minimum number of width-min(m, deg) cyclic arcs covering `slots`.

    Returns (count, arc start slots).  Exact: every optimal arc set can be
    normalised so each arc starts on a covered slot, so trying every slot
    as the first arc start and sweeping greedily is exhaustive.
    """
    pts = sorted(set(slots))
    if not pts:
        return 0, []
    if pts[0] < 0 or pts[-1] >= deg:
        raise ValueError("slot out of range")
    w = min(m, deg)
    if w >= deg or len(pts) == 1:
        return 1, [pts[0]]
    lower = -(-len(pts) // w)  # an arc covers at most w slots
    best = None
    for i, first in enumerate(pts):
        # Sweep the offsets in cyclic order from `first` so they are
        # monotone; sorted order would process wrapped points too early.
        arcs = [first]
        limit = first + w - 1
        for off in pts[i:] + [q + deg for q in pts[:i]]:
            if off > limit:
                arcs.append(off % deg)
                limit = off + w - 1
        if best is None or len(arcs) < len(best):
            best = arcs
            if len(best) == lower:
                break
    return len(best), best


def _cover(rows, m: int, a: int) -> Certificate:
    """YES certificate from (vertex, per-slot mark row) pairs.

    A slot is covered when its mark is 1.  Each row's covered slots get a
    minimum cover by arcs of width min(m, deg), at most `a` of them,
    computed once per distinct row.
    """
    angles: dict[int, tuple[Angle, ...]] = {}
    arcs_of: dict[bytes, tuple[int, list[int]]] = {}  # row -> width, arc starts
    for v, row in rows:
        marks = bytes(row)
        hit = arcs_of.get(marks)
        if hit is None:
            deg = len(marks)
            slots = [s for s in range(deg) if marks[s] == 1]
            count, arcs = min_arc_cover(deg, slots, m)
            assert count <= a, "angle budget exceeded"
            hit = arcs_of[marks] = (min(m, deg), arcs)
        w, arcs = hit
        if arcs:
            angles[v] = tuple(Angle(v, s, w) for s in arcs)
    return Certificate("YES", AngleAssignment(angles))


def oracle_solve(
    g: RotationGraph,
    spec: CoverSpec = BASIC_SPEC,
    budget: int | None = None,
    forced: dict[int, int] | None = None,
    uncovered: int = 0,
) -> Certificate:
    """Exhaustive decision of the (a, m) angle cover problem.

    Backtracks over per-edge coverer choices (each edge is covered from
    exactly one endpoint slot; double coverage is never needed) with unit
    propagation and per-vertex feasibility pruning via min_arc_cover, as a
    loop over an explicit stack and one trail.  An assignment at v
    re-propagates only the undecided edges at v, against a cached arc
    count; the branch edge comes from a lazy heap.  `forced` optionally
    pins edges to a covering endpoint.  With `uncovered` = k > 0, every
    edge that is not pinned may also be left uncovered, tried first at a
    branch and open while fewer than k edges have taken it, so a YES
    leaves at most k edges uncovered.  Exceeding the node budget yields
    an INDETERMINATE certificate, never a wrong verdict.
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    a, m = spec.a, spec.m
    deg = {v: g.deg(v) for v in g.vertices}
    free = {v for v in g.vertices if 0 < deg[v] <= m}

    # Options per edge: (vertex, slot) darts.  Edges with a free endpoint
    # are covered there for free (a dominance-preserving simplification).
    options: dict[int, list[tuple[int, int]]] = {}
    free_used: set[int] = set()
    for e in sorted(g.edges):
        darts = list(g.ends(e))
        if forced and e in forced:
            darts = [d for d in darts if d[0] == forced[e]]
            if not darts:
                raise ValueError(f"edge {e} cannot be forced to vertex {forced[e]}")
        free_side = [d for d in darts if d[0] in free]
        if free_side:
            free_used.add(free_side[0][0])
            continue
        options[e] = darts
    # Branch choices: None, tried first, leaves the edge uncovered.
    skip = [None] if uncovered else []
    choices = {e: d if forced and e in forced else skip + d for e, d in options.items()}
    left = uncovered  # edges that may still be left uncovered

    committed: dict[int, set[int]] = {v: set() for v in g.vertices}
    mac = dict.fromkeys(g.vertices, 0)  # min_arc_cover count of committed[v]
    assigned: dict[int, tuple[int, int] | None] = {}
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for e, darts in options.items():
        for w, _ in darts:
            if e not in incident[w]:
                incident[w].append(e)

    nodes = 0
    trail: list[tuple[int, int]] = []  # (edge, previous mac of its vertex)
    heap = [(0, e) for e in sorted(options)]  # lazy (branch key, edge)

    def key(e: int) -> int:
        return min(mac[v] * deg[v] - len(committed[v]) for v, _ in options[e])

    def touch(v: int) -> None:
        for f in incident[v]:
            if f not in assigned:
                heapq.heappush(heap, (key(f), f))

    def feasible(v: int, s: int) -> bool:
        # One more slot raises the arc count by at most one.
        return mac[v] < a or min_arc_cover(deg[v], committed[v] | {s}, m)[0] <= a

    def assign(e: int, d: tuple[int, int] | None):
        nonlocal left
        assigned[e] = d
        if d is None:
            trail.append((e, 0))
            left -= 1
            # The last allowance turns edges that relied on it into units.
            return () if left else options
        v, s = d
        trail.append((e, mac[v]))
        committed[v].add(s)
        mac[v] = min_arc_cover(deg[v], committed[v], m)[0]
        touch(v)
        return incident[v]

    def undo(mark: int) -> None:
        nonlocal left
        while len(trail) > mark:
            e, old = trail.pop()
            d = assigned.pop(e)
            if d is None:
                left += 1
                heapq.heappush(heap, (key(e), e))
                continue
            v, s = d
            committed[v].discard(s)
            mac[v] = old
            touch(v)

    def propagate(edges) -> bool:
        """Propagate units from `edges`; False on a conflict or budget overrun."""
        nonlocal nodes
        queue = list(edges)
        while queue:
            e = queue.pop()
            if e in assigned:
                continue
            opts = [d for d in options[e] if feasible(*d)]
            if left and choices[e][0] is None:
                opts.append(None)
            if len(opts) > 1:
                continue
            if not opts:
                return False
            nodes += 1
            if nodes > budget:
                return False
            queue.extend(assign(e, opts[0]))
        return True

    # Frames [branch edge, next option, trail mark], each at a propagation
    # fixpoint, so a branch at v only needs v's edges propagated.
    stack: list[list[int]] = []
    ok = propagate(options)
    while True:
        if ok:
            # Branch at the most constrained vertex; compaction keeps the heap O(|E|).
            if len(heap) > 4 * len(options):
                heap[:] = [(key(e), e) for e in options if e not in assigned]
                heapq.heapify(heap)
            while heap and (heap[0][1] in assigned or heap[0][0] != key(heap[0][1])):
                heapq.heappop(heap)
            if not heap:
                break
            stack.append([heap[0][1], 0, len(trail)])
        elif not stack or nodes > budget:
            break
        frame = stack[-1]
        branch, i, mark = frame
        undo(mark)
        opts = choices[branch]
        while i < len(opts) and not (left if opts[i] is None else feasible(*opts[i])):
            i += 1
        if i == len(opts):
            stack.pop()
            ok = False
            continue
        frame[1] = i + 1
        nodes += 1
        ok = nodes <= budget and propagate(assign(branch, opts[i]))

    if ok:
        assert len(assigned) == len(options), (
            f"search succeeded with {len(options) - len(assigned)} edges"
            " undecided"
        )
        # A free vertex covers all of its slots with the angle at slot 0.
        for v in free_used:
            committed[v].add(0)
        rows = (
            (v, bytes(s in committed[v] for s in range(deg[v])))
            for v in sorted(g.vertices)
        )
        return _cover(rows, m, a)
    if nodes > budget:
        return Certificate("INDETERMINATE")
    return Certificate("NO")


# ---------------------------------------------------------------------------
# The traversal solvers: one closed walk with a fixed slot pairing.


def _regularize(g: RotationGraph, target: int) -> list[int]:
    """Twin array of g padded to degree `target` (even) with dummy edges.

    Slot s at the vertex of rank i is dart target * i + s, and real darts
    keep their slots.  Deficient vertices are paired greedily by lowest
    id over the whole graph, each dummy edge taking the next free slot at
    both ends, so original cyclic adjacencies survive projection.  A
    single leftover vertex receives self-loops on consecutive slots, which
    is always possible because the total deficit target * n - 2|E| is even.
    """
    verts = sorted(g.vertices)
    if len(g.dart_index.twin) == target * len(verts):
        return g.dart_index.twin  # already regular; callers only read it
    pos = [target * i + s for i, v in enumerate(verts) for s in range(g.deg(v))]
    twin = [0] * (target * len(verts))
    for p, t in zip(pos, g.dart_index.twin):
        twin[p] = pos[t]
    nxt = [target * i + g.deg(v) for i, v in enumerate(verts)]  # next free dart
    # u is the rank of the lowest vertex still deficient; it pairs with
    # each later deficient vertex in rank order until one of them is full.
    u = None
    for i in range(len(verts)):
        while nxt[i] < target * (i + 1):
            if u is None:
                u = i
                break
            p, q = nxt[u], nxt[i]
            twin[p], twin[q] = q, p
            nxt[u], nxt[i] = p + 1, q + 1
            if nxt[u] == target * (u + 1):
                u = None
    if u is not None:
        assert (target * (u + 1) - nxt[u]) % 2 == 0, "degree parity broken"
        for p in range(nxt[u], target * (u + 1), 2):
            twin[p], twin[p + 1] = p + 1, p
    return twin


def _walk_cover(g: RotationGraph, delta: int, partner, a: int) -> Certificate:
    """Cover g with at most `a` angles per vertex from one slot-pairing walk.

    Pads g to a delta-regular multigraph and partitions its darts into
    closed walks that, entering a vertex on slot s, leave it on slot
    partner[s] (a fixed transition system).  Each pair {s, partner[s]}
    therefore holds one outgoing slot per vertex, and the outgoing slots
    below the vertex's own degree get a minimum arc cover of width 2.
    No walk uses an edge in both directions: such a walk would be its own
    reverse, which needs a slot that is its own partner.
    """
    twin = _regularize(g, delta)
    # 0: edge not yet walked; 1: walked out of this dart; 2: walked into it.
    used = bytearray(len(twin))
    for d0 in range(len(twin)):
        if used[d0]:
            continue
        d = d0
        while True:
            used[d] = 1
            t = twin[d]
            used[t] = 2
            s = t % delta
            nxt = t - s + partner[s]
            if used[nxt]:
                assert nxt == d0, "walk hit a directed edge before closing"
                break
            d = nxt

    rows = (
        (v, used[delta * i : delta * i + g.deg(v)])
        for i, v in enumerate(sorted(g.vertices))
    )
    return _cover(rows, 2, a)


def solve_deg4(g: RotationGraph) -> Certificate:
    """Linear-time cover for maximum degree 4 (always YES).

    The walk leaves each vertex on the slot opposite its entry slot, so
    of the pairs {0, 2} and {1, 3} each vertex has one outgoing slot in
    each: two cyclically consecutive slots, covered by one angle.
    """
    if g.max_degree() > 4:
        raise UnsupportedInputError("solve_deg4 requires maximum degree <= 4")
    return _walk_cover(g, 4, (2, 3, 0, 1), 1)


_SEXTET_PARTNER = (2, 4, 0, 5, 1, 3)


def solve_sextet(g: RotationGraph, delta: int) -> Certificate:
    """a-angle cover for even maximum degree `delta`, a = delta/2 - delta//6.

    The walk pairs the slots of each block of six consecutive slots (a
    sextet) as 0-2, 1-4, 3-5, and the slots after the last sextet as
    6k+2j with 6k+2j+1.  A sextet's three outgoing slots include two
    adjacent ones, so it takes at most two angles, and every remaining
    pair takes one.
    """
    if delta <= 0 or delta % 2:
        raise UnsupportedInputError("delta must be a positive even integer")
    if g.max_degree() > delta:
        raise UnsupportedInputError(f"graph has degree above {delta}")
    k = delta // 6
    partner = [
        s - s % 6 + _SEXTET_PARTNER[s % 6] if s < 6 * k else s ^ 1
        for s in range(delta)
    ]
    return _walk_cover(g, delta, partner, delta // 2 - k)


def solve_no_deg3(g: RotationGraph) -> Certificate:
    """2-SAT decision for graphs with no degree-3 vertex.

    One variable per dart at a vertex of degree >= 4 ("this slot is
    covered here"), numbered as the dart; a coverage clause per edge
    between such vertices and an exclusion clause per non-consecutive
    slot pair.  Vertices of degree <= 2 cover all of their edges outright.
    """
    if any(g.deg(v) == 3 for v in g.vertices):
        raise UnsupportedInputError("graph has a degree-3 vertex")
    ix = g.dart_index
    twin = ix.twin
    high = [g.deg(v) >= 4 for v in ix.vertex]  # per dart

    # Literal 2d is "dart d covered", 2d + 1 its negation; a clause
    # (l1 or l2) adds the implications not-l1 -> l2 and not-l2 -> l1.  A
    # coverage clause (d or twin d) gives node 2d + 1 its one edge, and the
    # exclusion clauses (not d or not d') give node 2d its edges, in
    # ascending slot order.
    adj: list[list[int]] = [[] for _ in range(2 * len(twin))]
    excluded: dict[int, list[list[int]]] = {}  # degree -> slot i -> [2j + 1]
    for v in sorted(g.vertices):
        k = g.deg(v)
        if k < 4:
            continue
        if k not in excluded:
            excluded[k] = [
                [2 * j + 1 for j in range(k) if (j - i) % k not in (0, 1, k - 1)]
                for i in range(k)
            ]
        f = ix.first[v]
        for i, lits in enumerate(excluded[k]):
            d = f + i
            adj[2 * d] = [2 * f + x for x in lits]
            if high[twin[d]]:
                adj[2 * d + 1] = [2 * twin[d]]

    comp = _tarjan_scc(adj)
    if any(map(eq, comp[0::2], comp[1::2])):
        return Certificate("NO")
    # Per dart, 1 if covered; a vertex of degree <= 2 covers all its darts.
    model = bytes(map(or_, map(lt, comp[0::2], comp[1::2]), map(not_, high)))
    first = ix.first
    rows = ((v, model[first[v] : first[v] + g.deg(v)]) for v in sorted(g.vertices))
    return _cover(rows, 2, 1)


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component ids in reverse topological order
    (sinks get lower ids)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while the node is unvisited or on the stack
    ptr = [0] * n  # next edge of each node to follow
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [root]
        while work:
            node = work[-1]
            out = adj[node]
            i = ptr[node]
            while i < len(out):
                w = out[i]
                i += 1
                if index[w] == -1:
                    ptr[node] = i
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append(w)
                    break
                if comp[w] == -1 and index[w] < low[node]:
                    low[node] = index[w]
            else:
                work.pop()
                if work and low[node] < low[work[-1]]:
                    low[work[-1]] = low[node]
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == node:
                            break
                    n_comps += 1
    return comp


def solve_outerplane(g: RotationGraph, budget: int | None = None) -> Certificate:
    """Decide an outerplane graph with the exact oracle.

    Checks the embedding first: it must be plane, with one face holding
    every non-isolated vertex; otherwise UnsupportedInputError.
    """
    faces = trace_faces(g)
    non_isolated = {v for v in g.vertices if g.deg(v) > 0}
    on_one_face = any(
        non_isolated <= {v for v, _ in face} for face in faces.faces
    ) or not non_isolated
    if not faces.is_plane or not on_one_face:
        raise UnsupportedInputError("input is not outerplane")
    return oracle_solve(g, BASIC_SPEC, budget)


def min_allocation_bruteforce(
    g: RotationGraph, m: int = 2, cap: int = 18
) -> tuple[int, AngleAssignment]:
    """Exact minimum total angle count over all allocations (testing oracle).

    Branch-and-bound over per-edge coverer choices; assigning each edge to
    exactly one endpoint is optimal because min_arc_cover is monotone.
    """
    if g.num_edges() > cap:
        raise UnsupportedInputError(f"instance above brute-force cap ({cap} edges)")
    deg = {v: g.deg(v) for v in g.vertices}
    edge_ids = sorted(g.edges)
    options = {e: g.ends(e) for e in edge_ids}
    committed: dict[int, set[int]] = {v: set() for v in g.vertices}
    mac: dict[int, int] = {v: 0 for v in g.vertices}
    best_size = [g.num_edges() + 1]
    best_slots: list[dict[int, set[int]] | None] = [None]

    def dfs(i: int, bound: int):
        if bound >= best_size[0]:
            return
        if i == len(edge_ids):
            best_size[0] = bound
            best_slots[0] = {v: set(s) for v, s in committed.items() if s}
            return
        e = edge_ids[i]
        for v, s in options[e]:
            old = mac[v]
            committed[v].add(s)
            new, _ = min_arc_cover(deg[v], committed[v], m)
            mac[v] = new
            dfs(i + 1, bound - old + new)
            mac[v] = old
            committed[v].discard(s)

    dfs(0, 0)
    slots = best_slots[0] or {}
    rows = ((v, bytes(s in slots[v] for s in range(deg[v]))) for v in sorted(slots))
    # No vertex holds more angles than the total.
    return best_size[0], _cover(rows, m, best_size[0]).assignment
