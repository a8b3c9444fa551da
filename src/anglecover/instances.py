"""Built-in instance corpus and random-instance generators.

The named instances are reconstructions of known counterexamples: each is
built to satisfy the documented structural properties (degree ranges,
edge counts, planarity, Laman counts) and its expected verdict is
enforced by an explicit combinatorial argument, re-checked by the exact
oracle in the test suite.

The random generators are deterministic per seed.  Each one draws from
`random.Random(seed)` the same `getrandbits` widths, in the same order,
as its `shuffle`, `randrange` and `choice` methods would, by CPython's
rule for a draw below k: `getrandbits(k.bit_length())`, drawn again
while it is k or more.  It calls `random()` as it is.  The draws are made
in inline loops (`_below`, `_shuffle`, the rotation shuffles and the
plane walk), since `random`'s Python wrappers cost more than the bits.
"""

from __future__ import annotations

import math
import random
from itertools import product

from .core import Angle, AngleAssignment, RotationGraph, UnsupportedInputError, _Record, find


class NamedInstance(_Record):
    __slots__ = _fields = ("name", "graph", "expected", "cover")
    _defaults = (None, None)
    name: str
    graph: RotationGraph
    expected: str | None  # verdict for the (1, 2) problem
    cover: AngleAssignment | None  # known-good cover, when shipped


def _graph_from_coords(
    names,
    positions,
    edge_list: list[tuple],
    bends: dict[tuple, float] | None = None,
) -> RotationGraph:
    """Build a RotationGraph from a straight-line drawing.

    `names` lists the vertex names, and `positions` maps each name to its
    (x, y); a list serves when the names are 0, 1, ...

    Rotations are counterclockwise by departure direction; `bends` may
    override the departure angle (degrees) of an edge at one endpoint,
    for edges drawn as arcs.
    """
    ids = {name: i for i, name in enumerate(names)}
    edges = {i: (ids[u], ids[v]) for i, (u, v) in enumerate(edge_list)}
    tau = 2 * math.pi
    darts: dict[int, list[tuple[float, int]]] = {i: [] for i in ids.values()}
    for i, (u, v) in enumerate(edge_list):
        (xu, yu), (xv, yv) = positions[u], positions[v]
        at_u, at_v = math.atan2(yv - yu, xv - xu), math.atan2(yu - yv, xu - xv)
        if bends:
            if (i, u) in bends:
                at_u = math.radians(bends[i, u])
            if (i, v) in bends:
                at_v = math.radians(bends[i, v])
        darts[ids[u]].append((at_u % tau, i))
        darts[ids[v]].append((at_v % tau, i))
    rotation = {v: tuple(e for _, e in sorted(row)) for v, row in darts.items()}
    # Every container is fresh, so the graph takes them without a copy.
    return RotationGraph(tuple(sorted(ids.values())), edges, rotation)


def _graph_from_tables(
    names: list[str],
    edge_list: list[tuple[str, str]],
    rotations: dict[str, list[int]],
) -> tuple[RotationGraph, dict[str, int]]:
    """Build a RotationGraph from explicit rotation tables (edge indices)."""
    ids = {name: i for i, name in enumerate(names)}
    edges = {i: (ids[u], ids[v]) for i, (u, v) in enumerate(edge_list)}
    rotation = {ids[n]: tuple(rotations[n]) for n in names}
    return RotationGraph.build(sorted(ids.values()), edges, rotation), ids


def _octagon_names(prefix: str) -> list[str]:
    return [f"{prefix}{i}" for i in range(8)]


def _fig1() -> NamedInstance:
    """Square antiprism: 8 vertices, 16 edges, 4-regular, plane, YES."""
    names = [f"o{i}" for i in range(4)] + [f"i{i}" for i in range(4)]
    pos = {f"o{i}": (2 * math.cos(math.pi * i / 2), 2 * math.sin(math.pi * i / 2)) for i in range(4)}
    pos.update(
        {
            f"i{i}": (
                math.cos(math.pi * i / 2 + math.pi / 4),
                math.sin(math.pi * i / 2 + math.pi / 4),
            )
            for i in range(4)
        }
    )
    edges = [(f"o{i}", f"o{(i + 1) % 4}") for i in range(4)]
    edges += [(f"i{i}", f"i{(i + 1) % 4}") for i in range(4)]
    edges += [(f"o{i}", f"i{i}") for i in range(4)]
    edges += [(f"o{i}", f"i{(i - 1) % 4}") for i in range(4)]
    g = _graph_from_coords(names, pos, edges)
    cover = AngleAssignment.build(
        {v: [ang] for v, ang in _FIG1_COVER.items()}
    )
    return NamedInstance("fig1", g, "YES", cover)


# A frozen cover of fig1 (computed once by the degree-4 solver, then
# validated by check_cover in the tests).
_FIG1_COVER: dict[int, Angle] = {
    0: Angle(0, 0, 2),
    1: Angle(1, 0, 2),
    2: Angle(2, 2, 2),
    3: Angle(3, 0, 2),
    4: Angle(4, 0, 2),
    5: Angle(5, 1, 2),
    6: Angle(6, 2, 2),
    7: Angle(7, 0, 2),
}


def _gadget_edges(centre_arm_1: str, centre_arm_2: str) -> list[tuple[str, str]]:
    """Edges of the forcing gadget around centre `c`.

    The centre's rotation alternates arm edges with forced edges, so no
    single angle at `c` can cover both arm edges; combined with the tight
    edge count (|E| = 2|V|) this rules out any cover.
    """
    return [
        ("c", centre_arm_1),
        ("c", "u1"),
        ("c", centre_arm_2),
        ("c", "u2"),
        ("u1", centre_arm_1),
        ("u2", centre_arm_2),
    ]


def _double_octagon(edge_list: list[tuple[str, str]], pos: dict, bends: dict):
    """Shared frame of the degree-2-to-5 counterexample family: two nested
    octagons, spokes, four outside arcs, and two annulus diagonals."""
    ri, ro = 10.0, 20.0
    for i in range(8):
        a = math.pi * i / 4
        pos[f"I{i}"] = (ri * math.cos(a), ri * math.sin(a))
        pos[f"O{i}"] = (ro * math.cos(a), ro * math.sin(a))
    for i in range(8):
        edge_list.append((f"I{i}", f"I{(i + 1) % 8}"))
    for i in range(8):
        edge_list.append((f"O{i}", f"O{(i + 1) % 8}"))
    for i in range(8):
        edge_list.append((f"I{i}", f"O{i}"))
    # Arcs outside the outer octagon, over the odd vertices.
    for i in (0, 2, 4, 6):
        idx = len(edge_list)
        edge_list.append((f"O{i}", f"O{(i + 2) % 8}"))
        bends[(idx, f"O{i}")] = 45 * i + 60
        bends[(idx, f"O{(i + 2) % 8}")] = 45 * (i + 2) - 60
    edge_list.append(("I2", "O1"))
    edge_list.append(("I6", "O5"))


def _fig2a() -> NamedInstance:
    """21 vertices, 42 edges, degrees 2-5, plane, no cover.

    The degree-2 vertices u1, u2 must cover both their edges; every angle
    at the centre would re-cover one of them, impossible at edge count 2n.
    """
    names = ["c", "u1", "u2", "L", "R"] + _octagon_names("I") + _octagon_names("O")
    pos = {"c": (0.0, 0.0), "u1": (0.0, 5.0), "u2": (0.0, -5.0), "L": (5.0, 0.0), "R": (-5.0, 0.0)}
    bends: dict[tuple[int, str], float] = {}
    edge_list = _gadget_edges("L", "R")
    edge_list += [("L", "I7"), ("L", "I0"), ("L", "I1")]
    edge_list += [("R", "I3"), ("R", "I4"), ("R", "I5")]
    _double_octagon(edge_list, pos, bends)
    g = _graph_from_coords(names, pos, edge_list, bends)
    return NamedInstance("fig2a", g, "NO")


def _k4_block(tag: str, base: tuple[float, float], up: float) -> tuple[list[str], dict, list]:
    """A K4 hanging off attachment vertex `<tag>1`, drawn up (`up` = 1) or down (-1)."""
    x0, y0 = base
    names = [f"{tag}{i}" for i in range(1, 5)]
    pos = {
        f"{tag}1": (x0, y0),
        f"{tag}2": (x0 - 1.5, y0 + 3.5 * up),
        f"{tag}3": (x0 + 1.5, y0 + 3.5 * up),
        f"{tag}4": (x0, y0 + 2.2 * up),
    }
    edges = [
        (f"{tag}1", f"{tag}2"),
        (f"{tag}1", f"{tag}3"),
        (f"{tag}1", f"{tag}4"),
        (f"{tag}2", f"{tag}3"),
        (f"{tag}2", f"{tag}4"),
        (f"{tag}3", f"{tag}4"),
    ]
    return names, pos, edges


def _fig2b() -> NamedInstance:
    """27 vertices, 54 edges, degrees 3-5, plane, no cover.

    The degree-2 vertices of the 2a gadget are replaced by K4 blocks whose
    capacity exactly matches their incident edges, so each block is still
    forced to cover its centre edge.
    """
    names = ["c", "L", "R"]
    pos = {"c": (0.0, 0.0), "L": (5.0, 0.0), "R": (-5.0, 0.0)}
    bends: dict[tuple[int, str], float] = {}
    pn, pp, pe = _k4_block("p", (0.0, 3.0), 1.0)
    qn, qp, qe = _k4_block("q", (0.0, -3.0), -1.0)
    names += pn + qn + _octagon_names("I") + _octagon_names("O")
    pos.update(pp)
    pos.update(qp)
    edge_list = [("c", "L"), ("c", "p1"), ("c", "R"), ("c", "q1"), ("L", "p1"), ("R", "q1")]
    edge_list += pe + qe
    edge_list += [("L", "I7"), ("L", "I0"), ("L", "I1")]
    edge_list += [("R", "I3"), ("R", "I4"), ("R", "I5")]
    _double_octagon(edge_list, pos, bends)
    g = _graph_from_coords(names, pos, edge_list, bends)
    return NamedInstance("fig2b", g, "NO")


def _fig3() -> NamedInstance:
    """Plane, 3-connected, 15 vertices, 30 edges, min degree 3, no cover,
    yet the edges admit a strongly connected orientation with out-degree 2
    everywhere (stored in FIG3_ORIENTATION).

    The graph is point-symmetric (a<->a2, b<->c2, c<->b2, d<->d2, f<->g2,
    g<->f2, t<->u); with 30 = 2*15 edges any cover must cover exactly two
    edges per vertex with no edge covered twice.  The rotation at s
    alternates its two "horizontal" edges sa, sa2 with st, su, so by
    symmetry we may assume s covers (sa, st).  Then the degree-3 vertex a
    must cover (ab, ac), and a four-way case split on which consecutive
    pair the degree-4 vertex d covers reaches a contradiction at b or c
    in every branch."""
    names = ["s", "t", "u", "a", "b", "c", "d", "f", "g",
             "a2", "b2", "c2", "d2", "f2", "g2"]
    edge_list = [("s", "a"), ("s", "a2"), ("s", "t"), ("s", "u")]
    for x, y in [("a", "b"), ("a", "c"), ("b", "d"), ("b", "f"), ("c", "d"),
                 ("c", "g"), ("d", "f"), ("d", "g"), ("f", "g")]:
        edge_list.append((x, y))
    for x, y in [("a2", "b2"), ("a2", "c2"), ("b2", "d2"), ("b2", "f2"),
                 ("c2", "d2"), ("c2", "g2"), ("d2", "f2"), ("d2", "g2"),
                 ("f2", "g2")]:
        edge_list.append((x, y))
    edge_list += [("t", "b"), ("t", "b2"), ("u", "c"), ("u", "c2")]
    edge_list += [("f", "t"), ("f2", "t"), ("g", "u"), ("g2", "u")]
    # Rotations as counter-clockwise neighbour sequences of the (unique,
    # up to reflection) planar embedding.
    neighbour_order = {
        "s": ["t", "a2", "u", "a"],
        "t": ["f", "f2", "b2", "s", "b"],
        "u": ["g2", "g", "c", "s", "c2"],
        "a": ["c", "b", "s"],
        "b": ["d", "f", "t", "a"],
        "c": ["g", "d", "a", "u"],
        "d": ["g", "f", "b", "c"],
        "f": ["g", "t", "b", "d"],
        "g": ["d", "c", "u", "f"],
        "a2": ["c2", "s", "b2"],
        "b2": ["f2", "d2", "a2", "t"],
        "c2": ["d2", "g2", "u", "a2"],
        "d2": ["c2", "b2", "f2", "g2"],
        "f2": ["b2", "t", "g2", "d2"],
        "g2": ["c2", "d2", "f2", "u"],
    }
    eidx = {frozenset(pair): i for i, pair in enumerate(edge_list)}
    rotations = {
        n: [eidx[frozenset((n, m))] for m in nbrs]
        for n, nbrs in neighbour_order.items()
    }
    g, _ = _graph_from_tables(names, edge_list, rotations)
    return NamedInstance("fig3", g, "NO")


# A strongly connected orientation of fig3 with out-degree 2 everywhere:
# edge index -> True when directed from its first listed endpoint.
FIG3_ORIENTATION: dict[int, bool] = {
    0: False, 1: False, 2: True, 3: True, 4: False, 5: True, 6: False,
    7: True, 8: True, 9: True, 10: True, 11: False, 12: True, 13: True,
    14: False, 15: True, 16: True, 17: False, 18: True, 19: False,
    20: True, 21: False, 22: True, 23: True, 24: True, 25: True,
    26: True, 27: True, 28: True, 29: True,
}


def _fig4(yes: bool) -> NamedInstance:
    """One 9-vertex, 18-edge graph with two rotation systems.

    Both share every rotation except the centre's: grouping the arm edges
    admits a cover (`yes`), alternating them does not (tight-count
    argument).
    """
    names = ["c", "u1", "u2", "L", "R", "w1", "w2", "w3", "w4"]
    E = [
        ("c", "L"),      # 0
        ("c", "R"),      # 1
        ("c", "u1"),     # 2
        ("c", "u2"),     # 3
        ("u1", "L"),     # 4
        ("u2", "R"),     # 5
        ("L", "w1"),     # 6
        ("L", "w2"),     # 7
        ("L", "w3"),     # 8
        ("R", "w2"),     # 9
        ("R", "w3"),     # 10
        ("R", "w4"),     # 11
        ("w1", "w2"),    # 12
        ("w1", "w3"),    # 13
        ("w1", "w4"),    # 14
        ("w2", "w3"),    # 15
        ("w2", "w4"),    # 16
        ("w3", "w4"),    # 17
    ]
    shared = {
        "u1": [2, 4],
        "u2": [3, 5],
        "L": [0, 4, 6, 7, 8],
        "R": [1, 5, 10, 11, 9],
        "w1": [12, 13, 6, 14],
        "w2": [7, 12, 16, 9, 15],
        "w3": [8, 17, 13, 15, 10],
        "w4": [14, 16, 11, 17],
    }
    centre = [0, 1, 2, 3] if yes else [0, 2, 1, 3]
    g, ids = _graph_from_tables(names, E, {**shared, "c": centre})
    if not yes:
        return NamedInstance("fig4-no", g, "NO")
    cover = AngleAssignment.build(
        {
            ids["c"]: [Angle(ids["c"], 0, 2)],
            ids["u1"]: [Angle(ids["u1"], 0, 2)],
            ids["u2"]: [Angle(ids["u2"], 0, 2)],
            ids["L"]: [Angle(ids["L"], 2, 2)],
            ids["R"]: [Angle(ids["R"], 2, 2)],
            ids["w1"]: [Angle(ids["w1"], 0, 2)],
            ids["w2"]: [Angle(ids["w2"], 3, 2)],
            ids["w3"]: [Angle(ids["w3"], 0, 2)],
            ids["w4"]: [Angle(ids["w4"], 0, 2)],
        }
    )
    return NamedInstance("fig4-yes", g, "YES", cover)


def _laman_fig6() -> NamedInstance:
    """A Laman graph (9 vertices, 15 edges) without an angle cover.

    Black part: K4 minus one edge (5 black edges on 4 black vertices);
    each black rotation alternates black and red edges, so every black
    vertex can cover at most one black edge -- 4 < 5.
    """
    names = ["B1", "B2", "B3", "B4", "R1", "R2", "R3", "R4", "R5"]
    E = [
        ("B1", "B2"),  # 0  black
        ("B1", "B3"),  # 1  black
        ("B1", "B4"),  # 2  black
        ("B2", "B3"),  # 3  black
        ("B2", "B4"),  # 4  black
        ("R1", "B1"),  # 5
        ("R1", "B2"),  # 6
        ("R2", "B1"),  # 7
        ("R2", "B3"),  # 8
        ("R3", "B1"),  # 9
        ("R3", "B4"),  # 10
        ("R4", "B2"),  # 11
        ("R4", "B3"),  # 12
        ("R5", "B2"),  # 13
        ("R5", "B4"),  # 14
    ]
    rotations = {
        "B1": [0, 5, 1, 7, 2, 9],
        "B2": [0, 6, 3, 11, 4, 13],
        "B3": [1, 8, 3, 12],
        "B4": [2, 10, 4, 14],
        "R1": [5, 6],
        "R2": [7, 8],
        "R3": [9, 10],
        "R4": [11, 12],
        "R5": [13, 14],
    }
    g, _ = _graph_from_tables(names, E, rotations)
    return NamedInstance("laman-fig6", g, "NO")


def _t_graph() -> NamedInstance:
    """The degree-8 blocker fragment with its external anchor: any
    2-angle cover must leave one of the two anchor edges to the anchor."""
    from .reduce import build_T

    return NamedInstance("t-graph", build_T().graph)


# Name -> builder; a lookup builds only the instance it names.
_CATALOGUE = {
    "fig1": _fig1,
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig3": _fig3,
    "fig4-no": lambda: _fig4(False),
    "fig4-yes": lambda: _fig4(True),
    "laman-fig6": _laman_fig6,
    "t-graph": _t_graph,
}


def instance_names() -> list[str]:
    return sorted(_CATALOGUE)


def get_instance(name: str) -> NamedInstance:
    if name not in _CATALOGUE:
        known = ", ".join(instance_names())
        raise UnsupportedInputError(f"unknown instance {name!r}; known: {known}")
    return _CATALOGUE[name]()


# ---------------------------------------------------------------------------
# Random generators (deterministic per seed).


class _RankList:
    """A list of distinct items with append, remove by value and `[k]`, each
    O(log n) where `list.remove` is O(n): a Fenwick tree (Fenwick 1994)
    counts the live items among append-only slots."""

    def __init__(self, items=()):
        self._items, self._tree, self._pos = [], [0], {}  # tree is 1-based
        for x in items:
            self.append(x)

    def __len__(self) -> int:
        return len(self._pos)

    def append(self, x) -> None:
        i = self._pos[x] = len(self._tree)
        self._items.append(x)
        # Node i counts the live slots in (i - lowbit(i), i].
        total, j, stop = 1, i - 1, i - (i & -i)
        while j > stop:
            total += self._tree[j]
            j -= j & -j
        self._tree.append(total)

    def remove(self, x) -> None:
        i, tree, size = self._pos.pop(x), self._tree, len(self._tree)
        while i < size:
            tree[i] -= 1
            i += i & -i

    def __getitem__(self, k: int):
        if not 0 <= k < len(self._pos):
            raise IndexError(k)
        tree, i, size = self._tree, 0, len(self._tree)
        step = 1 << (size.bit_length() - 1)
        while step:
            j = i + step
            if j < size and tree[j] <= k:
                i, k = j, k - tree[j]
            step >>= 1
        return self._items[i]


def _below(getrandbits, k: int) -> int:
    """`randrange(k)`, from the same `getrandbits` draws."""
    b = k.bit_length()
    r = getrandbits(b)
    while r >= k:
        r = getrandbits(b)
    return r


def _shuffle(getrandbits, x: list) -> None:
    """`shuffle(x)`, from the same `getrandbits` draws: position i swaps
    with a draw below i + 1, for i from the last down to 1, here taken in
    runs of one draw width."""
    hi = len(x) - 1
    while hi > 0:
        b = (hi + 1).bit_length()
        lo = (1 << (b - 1)) - 1  # the lowest i with that width
        for i in range(hi, lo - 1, -1):
            j = getrandbits(b)
            while j > i:
                j = getrandbits(b)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


def _random_rotation_graph(edges: dict[int, tuple[int, int]], n: int, rng) -> RotationGraph:
    """The graph on vertices 0..n-1 with each rotation a random shuffle of
    its incident edges (ascending ids, a loop twice), vertex by vertex."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(edges):
        u, v = edges[e]
        incident[u].append(e)
        incident[v].append(e)
    # `_shuffle` of each list, inline, since a call per vertex costs more
    # than its draws: the steps (i, draw width) for each length there is.
    steps = {
        size: tuple((i, (i + 1).bit_length()) for i in range(size - 1, 0, -1))
        for size in set(map(len, incident))
    }
    getrandbits = rng.getrandbits
    for slots in incident:
        for i, b in steps[len(slots)]:
            j = getrandbits(b)
            while j > i:
                j = getrandbits(b)
            slots[i], slots[j] = slots[j], slots[i]
    return RotationGraph(tuple(range(n)), edges, dict(enumerate(map(tuple, incident))))


def gen_random_bounded_degree(n: int, dmax: int, seed) -> RotationGraph:
    """Connected random multigraph with max degree <= dmax, random rotations."""
    if n < 1:
        raise UnsupportedInputError("need n >= 1")
    if n >= 2 and dmax < 1 or n >= 3 and dmax < 2:
        raise UnsupportedInputError(
            f"no connected graph on {n} vertices with max degree {dmax}"
        )
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    capacity = [dmax] * n
    edges: dict[int, tuple[int, int]] = {}
    # open_slots holds exactly the vertices with spare capacity.
    open_slots = _RankList([0] if dmax > 0 else [])
    for v in range(1, n):
        u = open_slots[_below(getrandbits, len(open_slots))]
        edges[len(edges)] = (u, v)
        capacity[u] -= 1
        capacity[v] -= 1
        if capacity[u] == 0:
            open_slots.remove(u)
        if capacity[v] > 0:
            open_slots.append(v)
    for _ in range(_below(getrandbits, max(2, n))):
        if not open_slots:
            break
        i = _below(getrandbits, len(open_slots))
        u = open_slots[i]
        if capacity[u] >= 2 and rng.random() < 0.1:
            v = u  # occasional self-loop
        else:
            if len(open_slots) == 1:
                continue
            j = _below(getrandbits, len(open_slots) - 1)
            v = open_slots[j + (j >= i)]  # any open vertex but u
        edges[len(edges)] = (u, v)
        capacity[u] -= 1
        capacity[v] -= 1
        for w in {u, v}:
            if capacity[w] == 0:
                open_slots.remove(w)
    return _random_rotation_graph(edges, n, rng)


def gen_regular(n: int, d: int, seed) -> RotationGraph:
    """d-regular random multigraph (configuration model), random rotations."""
    if n < 1 or d < 0:
        raise UnsupportedInputError("need n >= 1 and d >= 0")
    if (n * d) % 2:
        raise UnsupportedInputError("n * d must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    _shuffle(rng.getrandbits, stubs)
    edges = dict(enumerate(zip(stubs[::2], stubs[1::2])))
    return _random_rotation_graph(edges, n, rng)


def random_henneberg_steps(k: int, seed) -> list[tuple]:
    """k random valid Henneberg steps starting from a single edge."""
    if k < 0:
        raise UnsupportedInputError(f"need k >= 0 steps, got {k}")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    n = 2
    edge_ids = _RankList([0])
    next_edge = 1
    steps: list[tuple] = []
    for _ in range(k):
        if n >= 3 and rng.random() < 0.5:
            e = edge_ids[_below(getrandbits, len(edge_ids))]
            steps.append(("s2", e, None))  # third endpoint picked at build time
            edge_ids.remove(e)
            for x in range(next_edge, next_edge + 3):
                edge_ids.append(x)
            next_edge += 3
        else:
            u = _below(getrandbits, n)
            v = _below(getrandbits, n)
            while v == u:
                v = _below(getrandbits, n)
            steps.append(("s1", u, v))
            edge_ids.append(next_edge)
            edge_ids.append(next_edge + 1)
            next_edge += 2
        n += 1
    return steps


def gen_henneberg_laman(steps: list[tuple], seed) -> RotationGraph:
    """Laman graph built from a single edge by Henneberg steps.

    Step ("s1", u, v): new vertex joined to u and v.
    Step ("s2", e, w): subdivide edge e, join the new vertex to w
    (w = None picks a deterministic valid third vertex).
    New edges get consecutive fresh ids; rotations are random per seed.
    """
    rng = random.Random(seed)
    n = 2
    edges: dict[int, tuple[int, int]] = {0: (0, 1)}
    next_edge = 1
    for step in steps:
        if step[0] == "s1":
            _, u, v = step
            if not (0 <= u < n and 0 <= v < n and u != v):
                raise UnsupportedInputError(f"invalid S1 step {step!r}")
            edges[next_edge] = (u, n)
            edges[next_edge + 1] = (v, n)
            next_edge += 2
        elif step[0] == "s2":
            _, e, w = step
            if e not in edges:
                raise UnsupportedInputError(f"invalid S2 step {step!r}: no edge {e}")
            x, y = edges.pop(e)
            if w is None:
                w = min(z for z in range(min(n, 3)) if z not in (x, y))
            if not (0 <= w < n) or w in (x, y):
                raise UnsupportedInputError(f"invalid S2 step {step!r}")
            edges[next_edge] = (x, n)
            edges[next_edge + 1] = (y, n)
            edges[next_edge + 2] = (w, n)
            next_edge += 3
        else:
            raise UnsupportedInputError(f"unknown step kind {step[0]!r}")
        n += 1
    return _random_rotation_graph(edges, n, rng)


def gen_random_outerplane(n: int, seed) -> RotationGraph:
    """Random sub-maximal outerplane graph: a convex polygon plus a subset
    of the diagonals of a random triangulation, rotations from the convex
    drawing."""
    if n < 3:
        raise UnsupportedInputError("need n >= 3")
    rng = random.Random(seed)
    diagonals: list[tuple[int, int]] = []

    # Split polygon ranges in pre-order (left part first), as a loop over
    # an explicit stack so the depth does not grow with n.
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        k = lo + 1 + _below(rng.getrandbits, hi - lo - 1)
        if k - lo > 1:
            diagonals.append((lo, k))
        if hi - k > 1:
            diagonals.append((k, hi))
        stack += [(k, hi), (lo, k)]
    kept = [d for d in diagonals if rng.random() < 0.7]
    edge_list = [(i, (i + 1) % n) for i in range(n)]
    edge_list += kept
    # Vertex names are the integers themselves, positions a list by them.
    pos = [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]
    return _graph_from_coords(range(n), pos, edge_list)


def gen_random_plane_deg4(n: int, seed) -> RotationGraph:
    """Random plane graph with max degree 4: a connected random subgraph
    of a unit grid with the rotation read off the drawing."""
    if n < 1:
        raise UnsupportedInputError("need n >= 1")
    rng = random.Random(seed)
    side = max(2, math.isqrt(n - 1) + 1)
    # Cell (x, y) is x * side + y.  A random walk collects n distinct
    # cells, numbered as it reaches them.  A step draws below the cell's
    # neighbour count: steps[c] is the draw width b and the neighbours, in
    # the order +x, -x, +y, -y, padded with None up to 2**b, and a None is
    # drawn again.
    moves = ((side, 1, 0), (-side, -1, 0), (1, 0, 1), (-1, 0, -1))
    steps = []
    for c, (x, y) in enumerate(product(range(side), repeat=2)):
        options = tuple(
            c + d for d, dx, dy in moves if 0 <= x + dx < side and 0 <= y + dy < side
        )
        b = len(options).bit_length()
        steps.append((b, options + (None,) * ((1 << b) - len(options))))
    getrandbits = rng.getrandbits
    index = {0: 0}
    cur = 0
    for count in range(1, n):
        while cur in index:
            b, table = steps[cur]
            cur = table[getrandbits(b)]
            while cur is None:
                cur = table[getrandbits(b)]
        index[cur] = count
    # Spanning tree over the taken cells, then extra grid edges at random.
    # A candidate is (vertex, its +x or +y neighbour, 0 for +x or 1 for +y).
    candidates = []
    for c, i in index.items():
        if c + side in index:
            candidates.append((i, index[c + side], 0))
        if (c + 1) % side and c + 1 in index:  # y + 1 < side
            candidates.append((i, index[c + 1], 1))
    _shuffle(getrandbits, candidates)
    parent = list(range(n))
    chosen = []
    extras = []
    for cand in candidates:
        a, b = find(parent, cand[0]), find(parent, cand[1])
        if a != b:
            parent[a] = b
            chosen.append(cand)
        else:
            extras.append(cand)
    chosen += [e for e in extras if rng.random() < 0.5]
    # Counterclockwise from the east: slots +x, +y, -x, -y.
    slots = [[-1] * 4 for _ in range(n)]
    for e, (a, b, k) in enumerate(chosen):
        slots[a][k] = slots[b][k + 2] = e
    edges = {e: (a, b) for e, (a, b, _) in enumerate(chosen)}
    rotation = {v: tuple(e for e in row if e >= 0) for v, row in enumerate(slots)}
    return RotationGraph(tuple(range(n)), edges, rotation)
