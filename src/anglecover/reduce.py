"""Hardness reductions from graph 3-colouring to angle cover variants.

The core construction replaces every source vertex by a gadget of three
colour paths around a centre; a cover of the output corresponds exactly
to a proper 3-colouring of the input.  Variants raise the angle budget
(hung cliques), cap the degree at 8 (the T fragment), widen the angles
(longer separator runs), or bootstrap hardness from any witness graph
with no multi-angle cover.  One block builder, `_hang`, hangs both the
cliques and the T fragments on their hosts.  The bootstrap needs a
maximum-coverage assignment of the witness, which `max_coverage` gets
from the oracle by raising its allowance of uncovered edges.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .core import (
    AngleAssignment,
    BASIC_SPEC,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    coverable_slots,
    simple_graph_fault,
    _Record,
)

if TYPE_CHECKING:
    from .transform import Multigraph


class InvalidWitnessError(ValueError):
    """The supplied witness graph actually admits a cover."""


class WitnessBudgetError(InvalidWitnessError):
    """The witness check ran out of search budget before it decided."""


class GadgetMap(_Record):
    """Bookkeeping for the 3-colouring reduction.

    `centre[v]` is the gadget centre for source vertex v; `e` maps
    (v, colour, j) with 1-based path position j to the path vertex.
    `edge_order[v]` fixes the incident-edge numbering E_1(v)..E_deg(v);
    `centre_edges[(v, k)]` is the output edge (centre, first path vertex
    of colour k); `cross_edges[e]` lists the three inter-gadget edges
    standing in for source edge e.
    """

    __slots__ = _fields = (
        "centre", "e", "edge_order", "centre_edges", "cross_edges",
    )
    centre: dict[int, int]
    e: dict[tuple[int, int, int], int]
    edge_order: dict[int, tuple[int, ...]]
    centre_edges: dict[tuple[int, int], int]
    cross_edges: dict[int, tuple[int, int, int]]


class _Builder:
    """Mutable output graph under construction; vertices and edges are
    numbered 0, 1, ... in the order they are added."""

    __slots__ = ("edges", "rot")

    def __init__(self):
        self.edges = {}
        self.rot = {}

    def new_vertex(self) -> int:
        v = len(self.rot)
        self.rot[v] = []
        return v

    def add_edge(self, u: int, v: int) -> int:
        e = len(self.edges)
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
        # Every container is fresh, so the graph takes them without a copy.
        return RotationGraph(
            tuple(range(len(self.rot))),
            self.edges,
            {v: tuple(r) for v, r in self.rot.items()},
        )


def _build_gadgets(g: Multigraph, sep: int = 1) -> tuple[_Builder, GadgetMap]:
    """One gadget per source vertex plus the inter-gadget edges.

    `sep` is the number of separator leaves on each side of a path
    vertex (1 for the basic reduction, m-1 for m-wide angles); one fewer
    go between each consecutive pair of centre path edges.
    """
    fault = simple_graph_fault(g.edges)
    if fault:
        raise UnsupportedInputError(f"input graph must be {fault}")
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
    centre_edges: dict[tuple[int, int], int] = {}
    path_edges: dict[tuple[int, int, int], int] = {}  # (v,k,j): to e^k_{j-1}

    for v in sorted(g.vertices):
        d = len(edge_order[v])
        centre[v] = b.new_vertex()
        if d == 0:
            # An isolated vertex contributes just its centre: any colour
            # works, and there is nothing for the paths to constrain.
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
            c_rot.extend(b.attach_leaf(centre[v]) for _ in range(sep - 1))
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

    gmap = GadgetMap(centre, ev, edge_order, centre_edges, cross_edges)
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


def _hang(b: _Builder, host: int, size: int, hubs: int = 0) -> list[int]:
    """Hang a fresh K_size on host and return host's new edges, which the
    caller places in host's rotation.  With no hubs one edge joins the
    first clique vertex to host; otherwise `hubs` hubs are each joined to
    every clique vertex and to host.  Every new vertex lists its
    neighbours in ascending id order."""
    clique = [b.new_vertex() for _ in range(size)]
    tops = [b.new_vertex() for _ in range(hubs)]
    at: dict[int, dict[int, int]] = {v: {} for v in (host, *clique, *tops)}

    def join(u: int, w: int) -> None:
        at[u][w] = at[w][u] = b.add_edge(u, w)

    for x, y in itertools.combinations(clique, 2):
        join(x, y)
    for h in tops:
        for v in clique:
            join(h, v)
    for h in tops:
        join(h, host)
    if not tops:
        join(host, clique[0])
    for v in (*clique, *tops):
        b.rot[v] = [at[v][w] for w in sorted(at[v])]
    return list(at[host].values())


def _hosts(gmap: GadgetMap):
    """Per source vertex with edges, in vertex order: its path vertices,
    colour by colour, and its centre.  An isolated source vertex keeps a
    bare centre."""
    for v, c in gmap.centre.items():
        if d := len(gmap.edge_order[v]):
            yield [gmap.e[(v, k, j)] for k in range(3) for j in range(1, d + 1)], c


def reduce_multi(g: Multigraph, a: int) -> RotationGraph:
    """Multi-angle hardness: output max degree 4a+1 for the a-angle
    problem.  The hung cliques soak up a-1 angles at every path vertex
    and centre."""
    if a < 2:
        raise UnsupportedInputError("multi-angle reduction needs a >= 2")
    b, gmap = _build_gadgets(g)
    size = 4 * a + 1
    for path, c in _hosts(gmap):
        # 2(a-1) cliques per host, their edges at rotation index 1: directly
        # before a path vertex's a-leaf edge, between a centre's colour-0
        # and colour-1 path edges.
        for host in (*path, c):
            hung = [e for _ in range(2 * (a - 1)) for e in _hang(b, host, size)]
            b.rot[host][1:1] = hung
    h = b.finish()
    _check_gadget_degrees(h, gmap, size, 2 * a + 1, 2 * a + 3)
    return h


def _check_gadget_degrees(
    h: RotationGraph, gmap: GadgetMap, top: int, centre: int, inner: int
) -> None:
    """Assert the output's maximum degree and, at every source vertex with
    edges, the degree of its centre and of its inner path vertices (all
    but the last of each path)."""
    assert h.max_degree() == (top if gmap.cross_edges else 0)
    for v, c in gmap.centre.items():
        assert h.deg(c) == (centre if gmap.edge_order[v] else 0)
    for (v, _, j), host in gmap.e.items():
        if j < len(gmap.edge_order[v]):
            assert h.deg(host) == inner


class TFragment(_Record):
    """A degree-8 blocker: K7 plus two hubs, hung on an external vertex
    by two stub edges.  Any 2-angle cover leaves one stub for the host."""

    __slots__ = _fields = ("graph", "stub_edges", "external")
    graph: RotationGraph
    stub_edges: tuple[int, int]
    external: int


def build_T() -> TFragment:
    """The standalone blocker with its external anchor included: nine
    internal vertices of degree 8 and 37 edges counting the two stubs."""
    b = _Builder()
    external = b.new_vertex()
    b.rot[external] = stubs = _hang(b, external, 7, 2)
    g = b.finish()
    assert len(g.edges) == 37
    assert all(g.deg(v) == 8 for v in g.vertices if v != external)
    return TFragment(g, tuple(stubs), external)


def reduce_2angle_deg8(g: Multigraph) -> RotationGraph:
    """2-angle hardness at max degree 8: every path vertex gets a leaf x
    and one T copy (slot order x, hub, hub directly before the a-leaf);
    every centre gets two T copies between its first two path edges."""
    b, gmap = _build_gadgets(g)
    for path, c in _hosts(gmap):
        for host in path:
            x_edge = b.attach_leaf(host)
            b.rot[host][1:1] = [x_edge, *_hang(b, host, 7, 2)]
        b.rot[c][1:1] = _hang(b, c, 7, 2) + _hang(b, c, 7, 2)
    h = b.finish()
    _check_gadget_degrees(h, gmap, 8, 7, 8)
    return h


def reduce_wide(g: Multigraph, m: int) -> RotationGraph:
    """m-wide hardness: runs of m-1 separator leaves on both sides of
    every path vertex and m-2 between consecutive centre path edges."""
    if m < 3:
        raise UnsupportedInputError("wide-angle reduction needs m >= 3")
    b, _ = _build_gadgets(g, sep=m - 1)
    return b.finish()


def max_coverage(
    g: RotationGraph, spec: CoverSpec = BASIC_SPEC, budget: int | None = None
) -> tuple[int, AngleAssignment] | None:
    """An assignment covering the maximum number of edges, with that
    number; None if the oracle exhausts `budget` first.

    Asks the oracle for an assignment that leaves at most k edges
    uncovered for k = k0, k0 + 1, ...; the first YES is at the minimum k.
    No assignment covers more edges than `coverable_slots`, so every k
    below k0 = |E| minus that count is a NO that needs no search.
    """
    from .solve import oracle_solve

    # At k = |E| the oracle answers YES.
    k = max(0, len(g.edges) - coverable_slots(g, spec))
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
        raise WitnessBudgetError("witness check exhausted its budget; refusing to guess")
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

    gix = g_input.dart_index
    for (v, i), xid in x_id.items():
        d = gix.first[v]
        rot = [g_edge[(i, e)] for e in gix.edge[d : d + g_input.deg(v)]]
        for j in range(a - 1):
            rot += [b_edge[(i, v, j, 0)], b_edge[(i, v, j, 1)]]
        b.rot[xid] = rot

    # Per dart of a D edge: its index in d_edges and the side of the pair
    # it takes, 0 at the edge's first end (`end_darts`) and 1 at the other.
    ix = witness.dart_index
    pair_end = {}
    for i, de in enumerate(d_edges):
        head, tail = witness.end_darts(de)
        pair_end[head], pair_end[tail] = (i, 0), (i, 1)
    for (u, j, v), yid in y_id.items():
        rot = []
        for d in range(ix.first[u], ix.first[u] + witness.deg(u)):
            if d in pair_end:
                i, side = pair_end[d]
                rot.append(b_edge[(i, v, j, side)])
            else:
                rot.append(h_edge[(j, v, ix.edge[d])])
        b.rot[yid] = rot

    h = b.finish()
    assert len(h.vertices) == len(d_edges) * len(gv) + (a - 1) * len(hv) * len(gv)
    assert h.max_degree() <= 2 * a + 3
    return h

