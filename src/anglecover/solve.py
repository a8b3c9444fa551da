"""Cover-finding algorithms.

Contains the exact oracle, a conflict-driven clause-learning search over
dart literals that turns the failed repairs of the capacity orientation
(`core.Orientation`) into conflict clauses (with an allowance of uncovered
edges, the search behind `reduce.max_coverage`, without the orientation),
the linear-time max-degree-4 solver, the 2-SAT solver for graphs without
degree-3 vertices, the sextet-based solver for even maximum degree, and the
outerplane entry point (an embedding check in front of the oracle).  The
max-degree-4 and sextet solvers are one slot-pairing walk on the dart index
(`DartIndex.walk`); they differ only in the pairing.  The walk leaves each
vertex at most once per pair {s, partner[s]}, and the slots it leaves on
get a minimum arc cover of width 2 (`_cover`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from operator import eq, lt, not_, or_

from .core import (
    Angle,
    AngleAssignment,
    BASIC_SPEC,
    DEFAULT_BUDGET,
    Certificate,
    CoverSpec,
    Orientation,
    RotationGraph,
    UnsupportedInputError,
    coverable_slots,
    trace_faces,
    _face_cycles,
)


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


def _cover(g: RotationGraph, marks, m: int, a: int, **counters) -> Certificate:
    """YES certificate, carrying `counters`, from one mark per dart of
    `g.dart_index`.

    A slot is covered when its dart's mark is 1.  Each vertex's covered
    slots get a minimum cover by arcs of width min(m, deg), at most `a`
    of them, computed once per distinct row of marks.
    """
    ix = g.dart_index
    marks = bytes(marks)
    angles: dict[int, tuple[Angle, ...]] = {}
    arcs_of: dict[bytes, tuple[int, list[int]]] = {}  # row -> width, arc starts
    for (v, f), deg in zip(ix.first.items(), ix.degree):
        row = marks[f : f + deg]
        hit = arcs_of.get(row)
        if hit is None:
            slots = [s for s in range(deg) if row[s] == 1]
            count, arcs = min_arc_cover(deg, slots, m)
            assert count <= a, "angle budget exceeded"
            hit = arcs_of[row] = (min(m, deg), arcs)
        w, arcs = hit
        if arcs:
            angles[v] = tuple(Angle(v, s, w) for s in arcs)
    return Certificate("YES", AngleAssignment(angles), **counters)


# Reasons of the literals that the two lazily explained constraints imply.
_VERTEX, _ALLOWANCE = "vertex", "allowance"
RESTART_UNIT = 100  # conflicts per term of the Luby sequence
ACTIVITY_DECAY = 0.95


def _luby(i: int) -> int:
    """Term i (from 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while (i + 1) & i:  # i is not 2^j - 1: drop the largest complete block
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def oracle_solve(
    g: RotationGraph,
    spec: CoverSpec = BASIC_SPEC,
    budget: int | None = None,
    forced: dict[int, int] | None = None,
    uncovered: int = 0,
) -> Certificate:
    """Exact decision of the (a, m) angle cover problem by conflict-driven search.

    A literal is a dart, true when the dart's vertex covers its edge at
    its slot.  With no allowance (`uncovered` = 0) an edge is one
    variable, covered at exactly one end, so a dart's negation is its
    twin.  With an allowance of k > 0 each dart is a variable, and an
    edge is uncovered when both of its darts are false.  Two constraints
    propagate without clauses and are explained only when conflict
    analysis asks:
    - the true darts at a vertex need at most `a` arcs of width
      min(m, deg) (min_arc_cover, cached per slot set); at `a` arcs, a
      dart that would need one more is false, explained by a greedily
      minimised set of the darts that were true before it;
    - at most k edges are uncovered; at k, an edge with one false dart is
      covered by the other, explained by the k uncovered edges.
    With no allowance the search also counts: it keeps the capacity
    orientation (`core.Orientation`, c = a·m) that a cover implies, with
    every true dart holding its edge.  The unplaced edges of its start
    and the edge of each dart made true are given to that dart's vertex,
    and after each trail step every vertex over capacity is repaired with
    the assigned edges pinned.  A failed repair visited a full set S, and
    the conflict clause negates the true darts that pull edges into S
    from outside (explained flow propagation in the manner of Downing,
    Feydy & Stuckey, CPAIOR 2012).  Backjumping only unassigns, so the
    orientation it leaves is repaired without failing.
    The search is CDCL with no randomness: 1-UIP learning, backjumping,
    two watched literals per learned clause, VSIDS, phase saving and
    Luby restarts.  A vertex of degree <= m covers its edges, and
    `forced` pins edges to a covering endpoint, at level 0.  More edges
    to cover than the Σ_v min(deg v, a·m) slots the vertices can cover,
    or no orientation at level 0, is a NO before the first decision.
    More than `budget` decisions plus conflicts yield INDETERMINATE,
    never a guessed verdict.  The certificate carries the search
    counters; `tight` counts the orientation's conflicts, the one that
    ends a search at level 0 included (which `conflicts` leaves out).
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    a, m, k = spec.a, spec.m, uncovered
    ix = g.dart_index
    vertex, twin, rank = ix.vertex, ix.twin, ix.rank
    start, deg = list(ix.first.values()), ix.degree  # per vertex rank
    n = len(twin)
    # Literal d < n is dart d; with an allowance, literal n + d negates it.
    # A variable is named by its lowest literal.
    if k:
        neg = [*range(n, 2 * n), *range(n)]
        var = [*range(n), *range(n)]
    else:
        neg = twin
        var = [d if d < t else t for d, t in enumerate(twin)]
    variables = [x for x in range(n) if var[x] == x]
    free = [0 < dg <= m for dg in deg]
    # Per dart: its slot bit, and (home) its vertex's slot-0 dart when more
    # than `a` arcs can be needed at that vertex, else -1.
    bit = [1 << (d - start[x]) for d, x in enumerate(rank)]
    home = [start[x] if deg[x] > m and -(-deg[x] // m) > a else -1 for x in rank]
    mask = [0] * n  # at a home dart: the true slots of its vertex
    tables: dict[int, dict[int, list]] = {dg: {} for dg in deg}
    # The capacity orientation, with no allowance only; the first
    # propagation repairs the vertices that the unplaced edges take over.
    over: list[int] = []
    if not k:
        orient = Orientation(ix, a * m)
        held, over, give = orient.held, orient.over, orient.give
        for d in orient.unplaced:
            give(d)

    def arcs(dg: int, mk: int) -> list:
        """[arcs needed, forbidden slots or None] for the slot set mk."""
        e = tables[dg].get(mk)
        if e is None:
            slots = [s for s in range(dg) if mk >> s & 1]
            e = tables[dg][mk] = [min_arc_cover(dg, slots, m)[0], None]
        return e

    val = [0] * len(neg)  # per literal: 1 true, -1 false, 0 open
    # Per variable: level, trail index, reason, activity, literal to decide.
    level, pos, reason, act = [0] * n, [0] * n, [None] * n, [0.0] * n
    phase = [x if x < twin[x] else neg[x] for x in range(n)]
    heap = [(0.0, x) for x in variables]  # VSIDS order: (-activity, variable)
    watches: list[list[list[int]] | None] = [None] * len(neg)  # made on first use
    trail: list[int] = []
    lim: list[int] = []  # trail length where each decision level starts
    unc: list[int] = []  # the later false dart of each uncovered edge
    qhead = 0
    inc = 1.0

    def watch(c: list[int], i: int = 1) -> None:
        """Add clause c to the watch list of its literal c[i]."""
        ws = watches[c[i]]
        if ws is None:
            watches[c[i]] = [c]
        else:
            ws.append(c)

    def assign(p: int, why) -> None:
        x = var[p]
        val[p], val[neg[p]] = 1, -1
        level[x], pos[x], reason[x] = len(lim), len(trail), why
        trail.append(p)
        if p < n:
            if home[p] >= 0:
                mask[home[p]] |= bit[p]
            if not k and not held[p]:  # the edge moves to p's vertex
                give(p)

    def vertex_clause(h: int, d: int, before: int) -> list[int]:
        """Negations of the darts at home h that were true before trail
        index `before`, greedily minimised (latest first) so that with dart
        d, if d >= 0, they still need more than `a` arcs."""
        dg = deg[rank[h]]
        true = sorted(
            (x for x in range(h, h + dg) if val[x] == 1 and pos[var[x]] < before),
            key=lambda x: -pos[var[x]],
        )
        mk = sum(bit[x] for x in true) | (bit[d] if d >= 0 else 0)
        keep = []
        for x in true:
            if arcs(dg, mk & ~bit[x])[0] > a:
                mk &= ~bit[x]
            else:
                keep.append(neg[x])
        return keep

    def uncovered_darts(j: int) -> list[int]:
        return [x for d in unc[:j] for x in (d, twin[d])]

    def antecedent(p: int) -> list[int]:
        """The false literals that implied the true literal p."""
        why = reason[var[p]]
        if why is _VERTEX:
            return vertex_clause(home[neg[p]], neg[p], pos[var[p]])
        return [twin[p], *uncovered_darts(k)] if why is _ALLOWANCE else why[1:]

    def settle() -> list[int] | None:
        """Repair each vertex over capacity; a conflict clause, or None."""
        nonlocal tight
        while over:
            region = orient.repair(over[-1], val)
            if region is not None:
                # An orientation existed before this level, so one of the
                # true darts that pull edges into the region is of it.
                tight += 1
                inside = set(region)
                clause = [
                    twin[d] for y in region for d in range(start[y], start[y] + deg[y])
                    if val[d] == 1 and rank[twin[d]] not in inside
                ]
                assert not lim or any(level[var[q]] == len(lim) for q in clause)
                return clause
            over.pop()
        return None

    def propagate() -> list[int] | None:
        """Propagate the trail from qhead; a conflict clause, or None.
        The capacity orientation is repaired after each trail step."""
        nonlocal qhead
        while True:
            if over:
                confl = settle()
                if confl is not None:
                    return confl
            if qhead == len(trail):
                return None
            p = trail[qhead]
            qhead += 1
            q = neg[p]
            ws = watches[q]
            if ws:
                i = j = 0
                while i < len(ws):
                    c = ws[i]
                    i += 1
                    if c[0] == q:
                        c[0], c[1] = c[1], q
                    if val[c[0]] != 1:
                        for t in range(2, len(c)):
                            if val[c[t]] != -1:
                                c[1], c[t] = c[t], q
                                watch(c)
                                break
                        else:
                            if val[c[0]] == -1:
                                del ws[j : i - 1]
                                return c
                            assign(c[0], c)
                        if c[1] != q:
                            continue
                    ws[j] = c
                    j += 1
                del ws[j:]
            h = home[p] if p < n else -1
            if h >= 0:
                dg, mk = deg[rank[h]], mask[h]
                e = arcs(dg, mk)
                if e[0] > a:
                    return vertex_clause(h, -1, len(trail))
                if e[0] == a:
                    if e[1] is None:
                        e[1] = [
                            s for s in range(dg)
                            if not mk >> s & 1 and arcs(dg, mk | 1 << s)[0] > a
                        ]
                    for s in e[1]:
                        if not val[h + s]:
                            assign(neg[h + s], _VERTEX)
            elif p >= n:  # dart p - n is false, so its edge may be uncovered
                d = p - n
                t = twin[d]
                if val[t] == -1 and pos[t] < pos[d]:
                    unc.append(d)
                    if len(unc) > k:
                        return uncovered_darts(k + 1)
                    if len(unc) == k:
                        for x in range(n):
                            if val[x] == -1 and not val[twin[x]]:
                                assign(twin[x], _ALLOWANCE)
                elif not val[t] and len(unc) == k:
                    assign(t, _ALLOWANCE)

    def analyze(confl: list[int]) -> tuple[list[int], int]:
        """The 1-UIP clause, asserting literal first and a literal of the
        next highest level second, and the level to jump back to."""
        seen = set()
        learnt = [0]
        here, pending, i = len(lim), 0, len(trail)
        clause = confl
        while True:
            for q in clause:
                x = var[q]
                if x in seen or not level[x]:
                    continue
                seen.add(x)
                act[x] += inc
                if level[x] == here:
                    pending += 1
                else:
                    learnt.append(q)
            i -= 1
            while var[trail[i]] not in seen:
                i -= 1
            p = trail[i]
            pending -= 1
            if not pending:
                break
            clause = antecedent(p)
        learnt[0] = neg[p]
        if len(learnt) == 1:
            return learnt, 0
        top = max(range(1, len(learnt)), key=lambda j: level[var[learnt[j]]])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, level[var[learnt[1]]]

    def backjump(lv: int) -> None:
        nonlocal qhead
        if len(lim) <= lv:
            return
        cut = lim[lv]
        while unc and pos[unc[-1]] >= cut:
            unc.pop()
        for p in trail[cut:]:
            x = var[p]
            val[p] = val[neg[p]] = 0
            phase[x] = p
            if p < n and home[p] >= 0:
                mask[home[p]] &= ~bit[p]
            heappush(heap, (-act[x], x))
        del trail[cut:], lim[lv:]
        qhead = cut
        # Unassigning moves no edge, and the orientation respected every
        # assignment kept here when this level was last settled, so the
        # vertices still over capacity can be repaired.
        confl = settle()
        assert confl is None, "no orientation at a level that had one"
        if len(heap) > 2 * len(variables) + 64:
            rebuild_heap()

    def rebuild_heap() -> None:
        heap[:] = sorted((-act[x], x) for x in variables if not val[x])

    # Level 0: an edge with a free candidate end is covered there, a
    # forced edge at its forced end; with an allowance its other dart is
    # false, and a forced loop is covered at one of its two darts.  Only
    # the edges with an end at a free vertex and the forced edges act.
    todo = sorted({
        *compress(ix.edge, [free[x] for x in rank]),
        *(forced.keys() & g.edges.keys() if forced else ()),
    })
    for e in todo:
        ends = g.end_darts(e)
        if forced and e in forced:
            ends = tuple(x for x in ends if vertex[x] == forced[e])
            if not ends:
                raise ValueError(f"edge {e} cannot be forced to vertex {forced[e]}")
        pick = next((x for x in ends if free[rank[x]]), ends[0] if len(ends) == 1 else None)
        if pick is not None:
            assign(pick, None)
            if k:
                assign(neg[twin[pick]], None)
        elif len(ends) == 2 and forced and e in forced and k:
            pair = list(ends)
            watch(pair, 0)
            watch(pair)

    if len(g.edges) - k > coverable_slots(g, spec):
        return Certificate("NO")

    decisions = conflicts = learned = restarts = tight = 0
    next_restart = RESTART_UNIT * _luby(1)
    while True:
        confl = propagate()
        if confl is not None:
            if not lim:
                verdict = "NO"
                break
            conflicts += 1
            if decisions + conflicts > budget:
                verdict = "INDETERMINATE"
                break
            clause, back = analyze(confl)
            backjump(back)
            if len(clause) > 1:
                watch(clause, 0)
                watch(clause)
                learned += 1
            assign(clause[0], clause if len(clause) > 1 else None)
            inc /= ACTIVITY_DECAY
            if inc > 1e100:
                act[:] = [x * 1e-100 for x in act]
                inc *= 1e-100
                rebuild_heap()
            continue
        if conflicts >= next_restart:
            restarts += 1
            next_restart = conflicts + RESTART_UNIT * _luby(restarts + 1)
            backjump(0)
        while heap and (val[heap[0][1]] or -heap[0][0] != act[heap[0][1]]):
            heappop(heap)
        if not heap:
            verdict = "YES"
            break
        decisions += 1
        if decisions + conflicts > budget:
            verdict = "INDETERMINATE"
            break
        lim.append(len(trail))
        assign(phase[heappop(heap)[1]], None)

    stats = dict(
        decisions=decisions, conflicts=conflicts, learned=learned, restarts=restarts,
        tight=tight,
    )
    if verdict != "YES":
        return Certificate(verdict, **stats)

    # A free vertex covers all of its slots with the angle at slot 0.
    marks = bytearray(val[x] == 1 for x in range(n))
    for f, dg, fr in zip(start, deg, free):
        if fr and any(marks[f : f + dg]):
            marks[f : f + dg] = b"\1" * dg
    return _cover(g, marks, m, a, **stats)


# ---------------------------------------------------------------------------
# The traversal solvers: one walk with a fixed slot pairing.


def solve_deg4(g: RotationGraph) -> Certificate:
    """Linear-time cover for maximum degree 4 (always YES).

    The walk leaves each vertex on the slot opposite its entry slot, so
    each vertex has at most one outgoing slot in each of the pairs
    {0, 2} and {1, 3}: consecutive slots, covered by one angle.
    """
    if max(g.dart_index.degree, default=0) > 4:
        raise UnsupportedInputError("solve_deg4 requires maximum degree <= 4")
    return _cover(g, g.dart_index.walk((2, 3, 0, 1)), 2, 1)


_SEXTET_PARTNER = (2, 4, 0, 5, 1, 3)


def solve_sextet(g: RotationGraph, delta: int) -> Certificate:
    """a-angle cover for even maximum degree `delta`, a = delta/2 - delta//6.

    The walk pairs the slots of each block of six consecutive slots (a
    sextet) as 0-2, 1-4, 3-5, and the slots after the last sextet as
    6k+2j with 6k+2j+1.  Three outgoing slots of a sextet include two
    adjacent ones, so it takes at most two angles, and every remaining
    pair takes at most one.
    """
    if delta <= 0 or delta % 2:
        raise UnsupportedInputError("delta must be a positive even integer")
    if max(g.dart_index.degree, default=0) > delta:
        raise UnsupportedInputError(f"graph has degree above {delta}")
    k = delta // 6
    partner = [
        s - s % 6 + _SEXTET_PARTNER[s % 6] if s < 6 * k else s ^ 1
        for s in range(delta)
    ]
    return _cover(g, g.dart_index.walk(partner), 2, delta // 2 - k)


def solve_no_deg3(g: RotationGraph) -> Certificate:
    """2-SAT decision for graphs with no degree-3 vertex.

    One variable per dart at a vertex of degree >= 4 ("this slot is
    covered here"), numbered as the dart; a coverage clause per edge
    between such vertices and an exclusion clause per non-consecutive
    slot pair.  Vertices of degree <= 2 cover all of their edges outright.
    More edges than coverable slots (`coverable_slots`) is a NO before
    the implication graph is built.
    """
    ix = g.dart_index
    twin, degree = ix.twin, ix.degree
    if 3 in degree:
        raise UnsupportedInputError("graph has a degree-3 vertex")
    if len(g.edges) > coverable_slots(g, BASIC_SPEC):
        return Certificate("NO")
    high = [degree[x] >= 4 for x in ix.rank]  # per dart

    # Literal 2d is "dart d covered", 2d + 1 its negation; a clause
    # (l1 or l2) adds the implications not-l1 -> l2 and not-l2 -> l1.  A
    # coverage clause (d or twin d) gives node 2d + 1 its one edge, and the
    # exclusion clauses (not d or not d') give node 2d its edges, in
    # ascending slot order.
    adj: list[list[int]] = [[] for _ in range(2 * len(twin))]
    excluded: dict[int, list[list[int]]] = {}  # degree -> slot i -> [2j + 1]
    for f, k in zip(ix.first.values(), degree):
        if k < 4:
            continue
        if k not in excluded:
            excluded[k] = [
                [2 * j + 1 for j in range(k) if (j - i) % k not in (0, 1, k - 1)]
                for i in range(k)
            ]
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
    return _cover(g, model, 2, 1)


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
    every non-isolated vertex; otherwise UnsupportedInputError.  The face
    walk stops at the first face whose darts reach all of them.
    """
    if trace_faces(g).is_plane:
        ix = g.dart_index
        vertex = ix.vertex
        want = len(ix.degree) - ix.degree.count(0)  # the non-isolated vertices
        if not want or any(
            len(set(map(vertex.__getitem__, face))) == want for face in _face_cycles(ix)
        ):
            return oracle_solve(g, BASIC_SPEC, budget)
    raise UnsupportedInputError("input is not outerplane")
