"""Hardness reductions from graph 3-colouring to angle cover variants.

The core construction replaces every source vertex by a gadget of three
colour paths around a centre; a cover of the output corresponds exactly
to a proper 3-colouring of the input.  Variants raise the angle budget
(clique attachments), cap the degree at 8 (the T fragment), widen the
angles (longer separator runs), or bootstrap hardness from any witness
graph with no multi-angle cover.  The bootstrap needs a maximum-coverage
assignment of the witness, which `max_coverage` gets from the oracle by
raising its allowance of uncovered edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    AngleAssignment,
    BASIC_SPEC,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
)
from .solve import oracle_solve
from .transform import Multigraph


class InvalidWitnessError(ValueError):
    """The supplied witness graph actually admits a cover."""


@dataclass(frozen=True)
class GadgetMap:
    """Bookkeeping for the 3-colouring reduction.

    `centre[v]` is the gadget centre for source vertex v; `e`, `a` and
    `b` map (v, colour, j) with 1-based path position j to the path and
    separator-leaf vertices.  `edge_order[v]` fixes the incident-edge
    numbering E_1(v)..E_deg(v); `centre_edges[(v, k)]` is the output edge
    (centre, first path vertex of colour k); `cross_edges[e]` lists the
    three inter-gadget edges standing in for source edge e.
    """

    centre: dict[int, int]
    e: dict[tuple[int, int, int], int]
    a: dict[tuple[int, int, int], int]
    b: dict[tuple[int, int, int], int]
    edge_order: dict[int, tuple[int, ...]]
    centre_edges: dict[tuple[int, int], int]
    cross_edges: dict[int, tuple[int, int, int]]


def _require_simple(g: Multigraph) -> None:
    seen = set()
    for u, v in g.edges.values():
        if u == v:
            raise UnsupportedInputError("input graph must be loop-free")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise UnsupportedInputError("input graph must be simple")
        seen.add(key)


@dataclass
class _Builder:
    """Mutable output-graph under construction."""

    edges: dict[int, tuple[int, int]] = field(default_factory=dict)
    rot: dict[int, list[int]] = field(default_factory=dict)
    next_vertex: int = 0
    next_edge: int = 0

    def new_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        self.rot[v] = []
        return v

    def add_edge(self, u: int, v: int) -> int:
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = (u, v)
        return e

    def attach_leaf(self, host: int) -> int:
        """New degree-1 vertex joined to host; returns the edge id.  The
        slot at host is not placed (callers build host rotations)."""
        leaf = self.new_vertex()
        e = self.add_edge(host, leaf)
        self.rot[leaf] = [e]
        return e

    def finish(self) -> RotationGraph:
        return RotationGraph.build(
            range(self.next_vertex),
            self.edges,
            {v: tuple(r) for v, r in self.rot.items()},
        )


def _build_gadgets(
    g: Multigraph, sep: int = 1, centre_sep: int = 0
) -> tuple[_Builder, GadgetMap]:
    """One gadget per source vertex plus the inter-gadget edges.

    `sep` is the number of separator leaves on each side of a path
    vertex (1 for the basic reduction, m-1 for m-wide angles);
    `centre_sep` leaves go between each consecutive pair of centre path
    edges (0 basic, m-2 wide).
    """
    _require_simple(g)
    b = _Builder()
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for e in sorted(g.edges):
        u, v = g.edges[e]
        incident[u].append(e)
        incident[v].append(e)
    # E_1(v)..E_deg(v): ascending neighbour id, ties by edge id.
    edge_order = {
        v: tuple(
            sorted(es, key=lambda e: (sum(g.edges[e]) - v, e))
        )
        for v, es in incident.items()
    }
    position = {}
    for v, es in edge_order.items():
        for j, e in enumerate(es, start=1):
            position[(v, e)] = j

    centre: dict[int, int] = {}
    ev: dict[tuple[int, int, int], int] = {}
    av: dict[tuple[int, int, int], int] = {}
    bv: dict[tuple[int, int, int], int] = {}
    centre_edges: dict[tuple[int, int], int] = {}
    path_edges: dict[tuple[int, int, int], int] = {}  # (v,k,j): to e^k_{j-1}

    for v in sorted(g.vertices):
        d = len(edge_order[v])
        centre[v] = b.new_vertex()
        if d == 0:
            # An isolated vertex contributes just its centre: any colour
            # works, and there is nothing for the paths to constrain.
            b.rot[centre[v]] = []
            continue
        for k in range(3):
            for j in range(1, d + 1):
                ev[(v, k, j)] = b.new_vertex()
        c_rot: list[int] = []
        for k in range(3):
            pe = b.add_edge(centre[v], ev[(v, k, 1)])
            centre_edges[(v, k)] = pe
            path_edges[(v, k, 1)] = pe
            c_rot.append(pe)
            c_rot.extend(b.attach_leaf(centre[v]) for _ in range(centre_sep))
            for j in range(2, d + 1):
                path_edges[(v, k, j)] = b.add_edge(
                    ev[(v, k, j - 1)], ev[(v, k, j)]
                )
        b.rot[centre[v]] = c_rot
        for k in range(3):
            for j in range(1, d + 1):
                host = ev[(v, k, j)]
                a_edges = [b.attach_leaf(host) for _ in range(sep)]
                b_edges = [b.attach_leaf(host) for _ in range(sep)]
                av[(v, k, j)] = b.edges[a_edges[0]][1]
                bv[(v, k, j)] = b.edges[b_edges[0]][1]
                # Rotation: previous path edge, a-leaves, the cross edge
                # (placed later), next path edge, b-leaves.
                rot = [path_edges[(v, k, j)]]
                rot.extend(a_edges)
                rot.append(-1)  # placeholder for the cross edge
                if j < d:
                    rot.append(path_edges[(v, k, j + 1)])
                rot.extend(b_edges)
                b.rot[host] = rot

    cross_edges: dict[int, tuple[int, int, int]] = {}
    for e in sorted(g.edges):
        u, v = g.edges[e]
        i, j = position[(u, e)], position[(v, e)]
        triple = []
        for k in range(3):
            ce = b.add_edge(ev[(u, k, i)], ev[(v, k, j)])
            triple.append(ce)
            for host in (ev[(u, k, i)], ev[(v, k, j)]):
                slot = b.rot[host].index(-1)
                b.rot[host][slot] = ce
        cross_edges[e] = tuple(triple)

    gmap = GadgetMap(centre, ev, av, bv, edge_order, centre_edges, cross_edges)
    return b, gmap


def reduce_3col(g: Multigraph) -> tuple[RotationGraph, GadgetMap]:
    """3-colouring to angle cover; output max degree 5.

    The output has |V| + 18|E| vertices and 21|E| edges: each source
    vertex becomes a centre with three colour paths whose vertices carry
    two separator leaves, and each source edge becomes three inter-gadget
    edges, one per colour.
    """
    b, gmap = _build_gadgets(g)
    h = b.finish()
    assert len(h.vertices) == len(g.vertices) + 18 * len(g.edges)
    assert len(h.edges) == 21 * len(g.edges)
    assert h.max_degree() <= 5
    return h, gmap


def extract_3colouring(
    h: RotationGraph, cover: AngleAssignment, gmap: GadgetMap
) -> dict[int, int]:
    """Read a 3-colouring off a valid cover of the reduction output.

    A centre has degree three (in the basic reduction) and covers two of
    its path edges; the colour of the uncovered one is the vertex colour.
    """
    colouring: dict[int, int] = {}
    for v, c in gmap.centre.items():
        if not gmap.edge_order[v]:
            colouring[v] = 0  # isolated source vertex: any colour
            continue
        deg = h.deg(c)
        covered: set[int] = set()
        for ang in cover.angles.get(c, ()):
            covered.update(ang.slots(deg))
        uncovered = [
            k
            for k in range(3)
            if not any(
                w == c and s in covered
                for w, s in h.ends(gmap.centre_edges[(v, k)])
            )
        ]
        if len(uncovered) != 1:
            raise UnsupportedInputError(
                f"centre of vertex {v} leaves {len(uncovered)} path edges"
                " uncovered; not a cover of this reduction output"
            )
        colouring[v] = uncovered[0]
    return colouring


def _attach_cliques(b: _Builder, host: int, at: int, count: int, size: int):
    """`count` fresh K_size copies, each joined to host by one edge; the
    new host slots are inserted contiguously at rotation index `at`."""
    new_edges = []
    for _ in range(count):
        vs = [b.new_vertex() for _ in range(size)]
        eid = {}
        for x, y in itertools.combinations(vs, 2):
            eid[(x, y)] = eid[(y, x)] = b.add_edge(x, y)
        stub = b.add_edge(host, vs[0])
        eid[(vs[0], host)] = stub
        for v in vs:
            nbrs = sorted(w for w in vs if w != v)
            if v == vs[0]:
                nbrs = sorted(nbrs + [host])
            b.rot[v] = [eid[(v, w)] for w in nbrs]
        new_edges.append(stub)
    b.rot[host][at:at] = new_edges


def reduce_multi(g: Multigraph, a: int) -> RotationGraph:
    """Multi-angle hardness: output max degree 4a+1 for the a-angle
    problem.  Clique attachments soak up a-1 angles at every path vertex
    and centre."""
    if a < 2:
        raise UnsupportedInputError("multi-angle reduction needs a >= 2")
    b, gmap = _build_gadgets(g)
    size = 4 * a + 1
    for v in sorted(gmap.centre):
        for k in range(3):
            for j in range(1, len(gmap.edge_order[v]) + 1):
                host = gmap.e[(v, k, j)]
                # Directly before the a-leaf edge (rotation index 1).
                _attach_cliques(b, host, 1, 2 * (a - 1), size)
        # Between the colour-0 and colour-1 path edges.
        _attach_cliques(b, gmap.centre[v], 1, 2 * (a - 1), size)
    h = b.finish()
    assert h.max_degree() == size
    for v in gmap.centre:
        assert h.deg(gmap.centre[v]) == 2 * a + 1
        for key, host in gmap.e.items():
            if key[0] == v and key[2] < len(gmap.edge_order[v]):
                assert h.deg(host) == 2 * a + 3
    return h


@dataclass(frozen=True)
class TFragment:
    """A degree-8 blocker: K7 plus two hubs, hung on an external vertex
    by two stub edges.  Any 2-angle cover leaves one stub for the host."""

    graph: RotationGraph
    stub_edges: tuple[int, int]
    external: int


def _attach_t(b: _Builder, host: int) -> tuple[int, int]:
    """One T copy joined to host by its two hub stubs; returns the stub
    edge ids (host slots left for the caller to place)."""
    core = [b.new_vertex() for _ in range(7)]
    hubs = [b.new_vertex() for _ in range(2)]
    eid = {}
    for x, y in itertools.combinations(core, 2):
        eid[(x, y)] = eid[(y, x)] = b.add_edge(x, y)
    for h in hubs:
        for v in core:
            eid[(h, v)] = eid[(v, h)] = b.add_edge(h, v)
    stubs = (b.add_edge(hubs[0], host), b.add_edge(hubs[1], host))
    for h, stub in zip(hubs, stubs):
        eid[(h, host)] = stub
    for v in core:
        nbrs = sorted(w for w in core + hubs if w != v)
        b.rot[v] = [eid[(v, w)] for w in nbrs]
    for h in hubs:
        nbrs = sorted(core + [host])
        b.rot[h] = [eid[(h, v)] for v in nbrs]
    return stubs


def build_T() -> TFragment:
    """The standalone blocker with its external anchor included: nine
    internal vertices of degree 8 and 37 edges counting the two stubs."""
    b = _Builder()
    external = b.new_vertex()
    stubs = _attach_t(b, external)
    b.rot[external] = list(stubs)
    g = b.finish()
    assert len(g.edges) == 37
    assert all(g.deg(v) == 8 for v in g.vertices if v != external)
    return TFragment(g, stubs, external)


def reduce_2angle_deg8(g: Multigraph) -> RotationGraph:
    """2-angle hardness at max degree 8: every path vertex gets a leaf x
    and one T copy (slot order x, hub, hub directly before the a-leaf);
    every centre gets two T copies between its first two path edges."""
    b, gmap = _build_gadgets(g)
    for v in sorted(gmap.centre):
        for k in range(3):
            for j in range(1, len(gmap.edge_order[v]) + 1):
                host = gmap.e[(v, k, j)]
                x_edge = b.attach_leaf(host)
                s1, s2 = _attach_t(b, host)
                b.rot[host][1:1] = [x_edge, s1, s2]
        c = gmap.centre[v]
        s1, s2 = _attach_t(b, c)
        s3, s4 = _attach_t(b, c)
        b.rot[c][1:1] = [s1, s2, s3, s4]
    h = b.finish()
    assert h.max_degree() == 8
    for v in gmap.centre:
        assert h.deg(gmap.centre[v]) == 7
        for key, host in gmap.e.items():
            if key[0] == v and key[2] < len(gmap.edge_order[v]):
                assert h.deg(host) == 8
    return h


def reduce_wide(g: Multigraph, m: int) -> RotationGraph:
    """m-wide hardness: runs of m-1 separator leaves on both sides of
    every path vertex and m-2 between consecutive centre path edges."""
    if m < 3:
        raise UnsupportedInputError("wide-angle reduction needs m >= 3")
    b, _ = _build_gadgets(g, sep=m - 1, centre_sep=m - 2)
    return b.finish()


def max_coverage(
    g: RotationGraph, spec: CoverSpec = BASIC_SPEC, budget: int | None = None
) -> tuple[int, AngleAssignment] | None:
    """An assignment covering the maximum number of edges, with that
    number; None if the oracle exhausts `budget` first.

    Asks the oracle for an assignment that leaves at most k edges
    uncovered for k = k0, k0 + 1, ...; the first YES is at the minimum k.
    A vertex covers at most min(deg, a * m) slots, so no assignment
    covers more edges than their sum, and every k below k0 = |E| minus
    that sum is a NO that needs no search.
    """
    reach = sum(min(g.deg(v), spec.a * spec.m) for v in g.vertices)
    k = max(0, len(g.edges) - reach)  # at k = |E| the oracle answers YES
    while (cert := oracle_solve(g, spec, budget, uncovered=k)).is_no:
        k += 1
    if not cert.is_yes:
        return None
    chk = check_cover(g, cert.assignment, spec)
    assert len(chk.uncovered_edges) == k and not chk.violations
    return len(g.edges) - k, cert.assignment


def reduce_witness(
    g_input: RotationGraph,
    witness: RotationGraph,
    a: int,
    budget: int | None = None,
) -> RotationGraph:
    """Bootstrap a-angle hardness from a witness with no a-angle cover
    and max degree at most 2a+3; output max degree stays at most 2a+3.

    The output stacks |D| copies of the input (D = edges a maximum
    a-angle assignment of the witness leaves uncovered) and, per input
    vertex, a-1 copies of the witness minus D; the x vertices absorb a-1
    angles on the reinstated D edges, leaving exactly one free angle that
    mirrors the input problem.
    """
    if a < 1:
        raise UnsupportedInputError("need a >= 1")
    spec = CoverSpec(a, 2)
    if witness.max_degree() > 2 * a + 3:
        raise UnsupportedInputError("witness max degree exceeds 2a+3")
    if g_input.max_degree() > 5:
        raise UnsupportedInputError("input max degree exceeds 5")
    best = max_coverage(witness, spec, budget)
    if best is None:
        raise InvalidWitnessError(
            "witness check exhausted its budget; refusing to guess"
        )
    if best[0] == len(witness.edges):
        raise InvalidWitnessError("witness admits an a-angle cover")
    d_edges = list(check_cover(witness, best[1], spec).uncovered_edges)
    return _build_witness_reduction(g_input, witness, d_edges, a)


def _build_witness_reduction(
    g_input: RotationGraph,
    witness: RotationGraph,
    d_edges: list[int],
    a: int,
) -> RotationGraph:
    """Assemble the stacked graph for a given uncovered-edge list."""
    b = _Builder()
    gv = sorted(g_input.vertices)
    hv = sorted(witness.vertices)
    d_set = set(d_edges)
    x_id = {(v, i): b.new_vertex() for i in range(len(d_edges)) for v in gv}
    y_id = {
        (u, j, v): b.new_vertex()
        for j in range(a - 1)
        for v in gv
        for u in hv
    }

    # Input copies.
    g_edge = {}
    for i in range(len(d_edges)):
        for e in sorted(g_input.edges):
            p, q = g_input.edges[e]
            g_edge[(i, e)] = b.add_edge(x_id[(p, i)], x_id[(q, i)])

    # Witness-minus-D copies.
    h_edge = {}
    for j in range(a - 1):
        for v in gv:
            for e in sorted(witness.edges):
                if e in d_set:
                    continue
                p, q = witness.edges[e]
                h_edge[(j, v, e)] = b.add_edge(
                    y_id[(p, j, v)], y_id[(q, j, v)]
                )

    # Reinstated edges: pair j at x_{v,i} goes to the endpoints' copies
    # of the i-th uncovered witness edge.
    b_edge = {}
    for i, de in enumerate(d_edges):
        w, w2 = witness.edges[de]
        for v in gv:
            for j in range(a - 1):
                b_edge[(i, v, j, 0)] = b.add_edge(
                    x_id[(v, i)], y_id[(w, j, v)]
                )
                b_edge[(i, v, j, 1)] = b.add_edge(
                    x_id[(v, i)], y_id[(w2, j, v)]
                )

    for (v, i), xid in x_id.items():
        rot = [g_edge[(i, e)] for e in g_input.rotation.get(v, ())]
        for j in range(a - 1):
            rot += [b_edge[(i, v, j, 0)], b_edge[(i, v, j, 1)]]
        b.rot[xid] = rot

    d_index = {de: i for i, de in enumerate(d_edges)}
    for (u, j, v), yid in y_id.items():
        rot = []
        seen_d: dict[int, int] = {}
        for e in witness.rotation.get(u, ()):
            if e not in d_set:
                rot.append(h_edge[(j, v, e)])
                continue
            i = d_index[e]
            w, w2 = witness.edges[e]
            occ = seen_d.get(e, 0)
            seen_d[e] = occ + 1
            if w == w2:  # loop: its two slots take the pair in order
                side = occ
            else:
                side = 0 if u == w else 1
            rot.append(b_edge[(i, v, j, side)])
        b.rot[yid] = rot

    h = b.finish()
    assert len(h.vertices) == len(d_edges) * len(gv) + (a - 1) * len(hv) * len(gv)
    assert h.max_degree() <= 2 * a + 3
    return h


def check_3colouring(g: Multigraph, colouring: dict[int, int]) -> bool:
    """Proper-colouring check with colours in {0, 1, 2}."""
    if any(colouring.get(v) not in (0, 1, 2) for v in g.vertices):
        return False
    return all(colouring[u] != colouring[v] for u, v in g.edges.values())


def brute_3col(g: Multigraph, cap: int = 20) -> str:
    """Exhaustive 3-colourability verdict ("YES"/"NO") for small graphs."""
    verts = sorted(g.vertices)
    if len(verts) > cap:
        raise UnsupportedInputError(f"brute-force capped at {cap} vertices")
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in g.edges.values():
        if u == v:
            return "NO"
        adj[u].append(v)
        adj[v].append(u)
    colour: dict[int, int] = {}

    def go(i: int) -> bool:
        if i == len(verts):
            return True
        v = verts[i]
        for c in range(3):
            if all(colour.get(w) != c for w in adj[v]):
                colour[v] = c
                if go(i + 1):
                    return True
                del colour[v]
        return False

    return "YES" if go(0) else "NO"
