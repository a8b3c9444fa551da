"""Cover-finding algorithms.

Contains the exact backtracking oracle, the linear-time max-degree-4
solver, the 2-SAT solver for graphs without degree-3 vertices, the
sextet-based solver for even maximum degree, the outerplane entry point
(an embedding check in front of the oracle), and a brute-force
minimum-allocation search used as a testing oracle.
"""

from __future__ import annotations

import heapq

from .core import (
    Angle,
    AngleAssignment,
    BASIC_SPEC,
    Certificate,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    components,
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
    if any(not 0 <= s < deg for s in pts):
        raise ValueError("slot out of range")
    w = min(m, deg)
    if w >= deg or len(pts) == 1:
        return 1, [pts[0]]
    best = None
    for first in pts:
        # Sweep the points in cyclic order from `first` so offsets are
        # monotone; sorted order would process wrapped points too early.
        ordered = [q for q in pts if q >= first] + [q for q in pts if q < first]
        arcs = [first]
        limit = first + w - 1
        for q in ordered:
            off = q if q >= first else q + deg
            if off > limit:
                arcs.append(q)
                limit = off + w - 1
        if best is None or len(arcs) < len(best):
            best = arcs
    return len(best), best


def _arcs_to_angles(v: int, deg: int, arcs, m: int) -> list[Angle]:
    w = min(m, deg)
    return [Angle(v, start, w) for start in arcs]


def oracle_solve(
    g: RotationGraph,
    spec: CoverSpec = BASIC_SPEC,
    budget: int | None = None,
    forced: dict[int, int] | None = None,
) -> Certificate:
    """Exhaustive decision of the (a, m) angle cover problem.

    Backtracks over per-edge coverer choices (each edge is covered from
    exactly one endpoint slot; double coverage is never needed) with unit
    propagation and per-vertex feasibility pruning via min_arc_cover, as a
    loop over an explicit stack and one trail.  An assignment at v
    re-propagates only the undecided edges at v, against a cached arc
    count; the branch edge comes from a lazy heap.  `forced` optionally
    pins edges to a covering endpoint.  Exceeding the node budget yields
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

    committed: dict[int, set[int]] = {v: set() for v in g.vertices}
    mac = dict.fromkeys(g.vertices, 0)  # min_arc_cover count of committed[v]
    assigned: dict[int, tuple[int, int]] = {}
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

    def assign(e: int, d: tuple[int, int]) -> int:
        v, s = d
        trail.append((e, mac[v]))
        assigned[e] = d
        committed[v].add(s)
        mac[v] = min_arc_cover(deg[v], committed[v], m)[0]
        touch(v)
        return v

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e, old = trail.pop()
            v, s = assigned.pop(e)
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
            if len(opts) > 1:
                continue
            if not opts:
                return False
            nodes += 1
            if nodes > budget:
                return False
            queue.extend(incident[assign(e, opts[0])])
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
        opts = options[branch]
        while i < len(opts) and not feasible(*opts[i]):
            i += 1
        if i == len(opts):
            stack.pop()
            ok = False
            continue
        frame[1] = i + 1
        nodes += 1
        ok = nodes <= budget and propagate(incident[assign(branch, opts[i])])

    if ok:
        assert len(assigned) == len(options), (
            f"search succeeded with {len(options) - len(assigned)} edges"
            " undecided"
        )
        angles: dict[int, list[Angle]] = {}
        for v in sorted(free_used):
            angles[v] = [Angle(v, 0, min(m, deg[v]))]
        for v in sorted(g.vertices):
            if committed[v]:
                _, arcs = min_arc_cover(deg[v], committed[v], m)
                angles.setdefault(v, []).extend(_arcs_to_angles(v, deg[v], arcs, m))
        return Certificate("YES", AngleAssignment.build(angles))
    if nodes > budget:
        return Certificate("INDETERMINATE")
    return Certificate("NO")


# ---------------------------------------------------------------------------
# Regularisation helpers shared by the traversal solvers.


def _regularize(g: RotationGraph, target: int) -> RotationGraph:
    """Pad every vertex to degree `target` with dummy edges.

    Per connected component, vertices of deficient degree are paired
    greedily by lowest id; a single leftover vertex receives self-loops.
    Dummy slots are appended at the end of each rotation so original
    cyclic adjacencies survive projection.  Every vertex of the padded
    graph has degree `target`, so its slot s at the vertex of rank i is
    dart target * i + s.
    """
    rot = {v: list(g.rotation.get(v, ())) for v in g.vertices}
    edges = dict(g.edges)
    next_edge = max(g.edges, default=-1) + 1

    root = components(g)
    comps: dict[int, list[int]] = {}
    for v in sorted(g.vertices):
        comps.setdefault(root[v], []).append(v)

    for members in comps.values():
        # u is the lowest-id vertex still deficient; it pairs with each
        # later deficient vertex in id order until one of them is full.
        u = None
        for v in members:
            while len(rot[v]) < target:
                if u is None:
                    u = v
                    break
                rot[u].append(next_edge)
                rot[v].append(next_edge)
                edges[next_edge] = (u, v)
                next_edge += 1
                if len(rot[u]) == target:
                    u = None
        if u is not None:
            need = target - len(rot[u])
            assert need % 2 == 0, "component degree parity broken"
            for _ in range(need // 2):
                rot[u].extend([next_edge, next_edge])
                edges[next_edge] = (u, u)
                next_edge += 1
    return RotationGraph(g.vertices, edges, {v: tuple(r) for v, r in rot.items()})


def _project_groups(
    v: int, groups: list[list[int]], orig_deg: int, m: int
) -> list[Angle]:
    """Map slot groups of the padded graph back to original angles.

    Dummy slots sit past the original degree, so surviving slots keep
    their indices and stay cyclically adjacent.
    """
    angles = []
    for group in groups:
        # Keep the group's cyclic order: for a wrap pair like (3, 0) the
        # angle must start at the first member, not the smallest.
        survivors = [s for s in group if s < orig_deg]
        if not survivors:
            continue
        start = survivors[0]
        angles.append(Angle(v, start, min(m, orig_deg)))
    return angles


def solve_deg4(g: RotationGraph) -> Certificate:
    """Linear-time cover for maximum degree 4 (always YES).

    Pads to a 4-regular multigraph, partitions darts into closed walks
    that exit each vertex on the slot opposite the entry slot, and covers
    each vertex's two (always consecutive) outgoing slots with one angle.
    """
    if g.max_degree() > 4:
        raise UnsupportedInputError("solve_deg4 requires maximum degree <= 4")
    twin = _regularize(g, 4).dart_index.twin
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
            nxt = t ^ 2  # the slot opposite t, since every degree is 4
            if used[nxt]:
                assert nxt == d0, "walk hit a directed edge before closing"
                break
            d = nxt

    angles: dict[int, list[Angle]] = {}
    for i, v in enumerate(sorted(g.vertices)):
        outs = [s for s in range(4) if used[4 * i + s] == 1]
        assert len(outs) == 2
        s1, s2 = outs
        assert (s2 - s1) % 4 in (1, 3), "outgoing slots not consecutive"
        if (s1 + 1) % 4 != s2:
            s1, s2 = s2, s1  # wrap pair (3, 0)
        projected = _project_groups(v, [[s1, s2]], g.deg(v), 2)
        if projected:
            angles[v] = projected
    return Certificate("YES", AngleAssignment.build(angles))


def solve_sextet(g: RotationGraph, delta: int) -> Certificate:
    """a-angle cover for even maximum degree `delta`, a = delta/2 - delta//6.

    Pads to a delta-regular multigraph and routes closed walks so that
    each block of six consecutive slots (a sextet) ends up with two
    adjacent outgoing slots sharing one angle; every other outgoing slot
    gets a single-edge angle.
    """
    if delta <= 0 or delta % 2:
        raise UnsupportedInputError("delta must be a positive even integer")
    if g.max_degree() > delta:
        raise UnsupportedInputError(f"graph has degree above {delta}")
    a_target = delta // 2 - delta // 6
    k = delta // 6
    ix = _regularize(g, delta).dart_index
    used = bytearray(len(ix.twin))  # darts whose edge has been walked
    # Per (vertex, sextet): outgoing slot offsets (0..5), first two adjacent.
    sextet_out: dict[int, list[list[int]]] = {v: [[] for _ in range(k)] for v in g.vertices}
    leftover_out: dict[int, list[int]] = {v: [] for v in g.vertices}

    def undirected(v, s):
        return not used[ix.first[v] + s]

    def spill_exit(v):
        for s in range(6 * k, delta):
            if undirected(v, s):
                return s
        for sx in range(k):
            outs = sextet_out[v][sx]
            if len(outs) == 1:
                q = outs[0]
                for nb in (q - 1, q + 1):
                    if 0 <= nb < 6 and undirected(v, 6 * sx + nb):
                        return 6 * sx + nb
        for sx in range(k):
            if len(sextet_out[v][sx]) >= 2:
                for off in range(6):
                    if undirected(v, 6 * sx + off):
                        return 6 * sx + off
        for sx in range(k):
            if not sextet_out[v][sx]:
                for off in range(1, 5):
                    if (
                        undirected(v, 6 * sx + off)
                        and undirected(v, 6 * sx + off - 1)
                        and undirected(v, 6 * sx + off + 1)
                    ):
                        return 6 * sx + off
        raise AssertionError("no undirected slot available for exit")

    def choose_exit(v, entry_slot):
        if entry_slot is not None and entry_slot < 6 * k:
            sx, p = divmod(entry_slot, 6)
            outs = sextet_out[v][sx]
            if not outs:
                q = p + 2 if p <= 2 else p - 2
                assert undirected(v, 6 * sx + q - 1) and undirected(v, 6 * sx + q + 1)
                return 6 * sx + q
            if len(outs) == 1:
                q = outs[0]
                for nb in (q - 1, q + 1):
                    if 0 <= nb < 6 and undirected(v, 6 * sx + nb):
                        return 6 * sx + nb
                raise AssertionError("second sextet exit has no adjacent slot")
        return spill_exit(v)

    def record_out(v, s):
        if s < 6 * k:
            sextet_out[v][s // 6].append(s % 6)
        else:
            leftover_out[v].append(s)

    for d0 in range(len(ix.twin)):
        if used[d0]:
            continue
        start = v = ix.vertex[d0]
        s = choose_exit(v, None)
        while True:
            d = ix.first[v] + s
            t = ix.twin[d]
            used[d] = used[t] = 1
            record_out(v, s)
            v = ix.vertex[t]
            if all(used[ix.first[v] : ix.first[v] + delta]):
                assert v == start, "walk stuck away from its start vertex"
                break
            s = choose_exit(v, ix.slot(t))

    angles: dict[int, list[Angle]] = {}
    for v in sorted(g.vertices):
        groups: list[list[int]] = []
        for sx in range(k):
            outs = sorted(sextet_out[v][sx])
            assert len(outs) >= 2, "sextet finished with fewer than two exits"
            pair = None
            for i in range(len(outs) - 1):
                if outs[i + 1] == outs[i] + 1:
                    pair = (outs[i], outs[i + 1])
                    break
            assert pair is not None, "sextet has no adjacent outgoing pair"
            groups.append([6 * sx + pair[0], 6 * sx + pair[1]])
            for q in outs:
                if q not in pair:
                    groups.append([6 * sx + q])
        for s in sorted(leftover_out[v]):
            groups.append([s])
        assert len(groups) <= a_target, "angle budget exceeded"
        projected = _project_groups(v, groups, g.deg(v), 2)
        if projected:
            angles[v] = projected
    return Certificate("YES", AngleAssignment.build(angles))


def solve_no_deg3(g: RotationGraph, budget: int | None = None) -> Certificate:
    """2-SAT decision for graphs with no degree-3 vertex.

    One variable per slot of each vertex of degree >= 4 ("this slot is
    covered here"); a coverage clause per edge between such vertices and
    an exclusion clause per non-consecutive slot pair.  Vertices of
    degree <= 2 cover all of their edges outright.
    """
    if any(g.deg(v) == 3 for v in g.vertices):
        raise UnsupportedInputError("graph has a degree-3 vertex")
    high = [v for v in g.vertices if g.deg(v) >= 4]
    var_index: dict[tuple[int, int], int] = {}
    for v in sorted(high):
        for s in range(g.deg(v)):
            var_index[(v, s)] = len(var_index)
    n_vars = len(var_index)

    # Literal encoding: 2k for x_k, 2k + 1 for its negation.
    adj: list[list[int]] = [[] for _ in range(2 * n_vars)]

    def add_clause(l1: int, l2: int):
        adj[l1 ^ 1].append(l2)
        adj[l2 ^ 1].append(l1)

    for e in sorted(g.edges):
        darts = g.ends(e)
        lits = [2 * var_index[d] for d in darts if d in var_index]
        if len(lits) < len(darts):
            continue  # a low-degree endpoint covers this edge for free
        if len(lits) == 1:
            add_clause(lits[0], lits[0])
        else:
            add_clause(lits[0], lits[1])
    for v in sorted(high):
        d = g.deg(v)
        for i in range(d):
            for j in range(i + 1, d):
                if (i + 1) % d == j or (j + 1) % d == i:
                    continue
                add_clause(2 * var_index[(v, i)] + 1, 2 * var_index[(v, j)] + 1)

    comp = _tarjan_scc(adj)
    model = []
    for x in range(n_vars):
        if comp[2 * x] == comp[2 * x + 1]:
            return Certificate("NO")
        model.append(comp[2 * x] < comp[2 * x + 1])

    angles: dict[int, list[Angle]] = {}
    for v in sorted(g.vertices):
        d = g.deg(v)
        if d == 0:
            continue
        if d <= 2:
            angles[v] = [Angle(v, 0, min(2, d))]
            continue
        true_slots = sorted(s for s in range(d) if model[var_index[(v, s)]])
        if not true_slots:
            continue
        if len(true_slots) == 1:
            start = true_slots[0]
        else:
            s1, s2 = true_slots
            assert (s1 + 1) % d == s2 or (s2 + 1) % d == s1
            start = s1 if (s1 + 1) % d == s2 else s2
        angles[v] = [Angle(v, start, 2)]
    return Certificate("YES", AngleAssignment.build(angles))


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns component ids in reverse topological order
    (sinks get lower ids)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work[-1]
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            if ptr < len(adj[node]):
                work[-1] = (node, ptr + 1)
                nxt = adj[node][ptr]
                if index[nxt] == -1:
                    work.append((nxt, 0))
                elif on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
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
    angles: dict[int, list[Angle]] = {}
    for v in sorted(slots):
        _, arcs = min_arc_cover(deg[v], slots[v], m)
        angles[v] = _arcs_to_angles(v, deg[v], arcs, m)
    return best_size[0], AngleAssignment.build(angles)
