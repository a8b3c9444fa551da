"""Shared test helpers: small graph builders, random generators, and the
exhaustive reference searches that the package's answers are tested
against."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from anglecover.core import Angle, AngleAssignment, RotationGraph, UnsupportedInputError
from anglecover.density import max_bipartite_matching
from anglecover.solve import min_arc_cover
from anglecover.transform import Multigraph, build_gmat


def rotation_graph(edge_pairs, rotations=None, n=None):
    """RotationGraph from an edge list; default rotation is incidence
    order ascending by edge id."""
    edges = {i: tuple(e) for i, e in enumerate(edge_pairs)}
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges.values()), default=-1)
    if rotations is None:
        rotations = {v: [] for v in range(n)}
        for e in sorted(edges):
            u, v = edges[e]
            rotations[u].append(e)
            if v != u:
                rotations[v].append(e)
            else:
                rotations[u].append(e)
    return RotationGraph.build(range(n), edges, rotations)


def edge_slots(g, v):
    """Slots at v in rotation graph g keyed by edge id (a loop maps to
    both its slots)."""
    out = {}
    for s, e in enumerate(g.rotation.get(v, ())):
        out.setdefault(e, []).append(s)
    return out


def disjoint_union(g, h):
    """g and a copy of h whose vertex and edge ids follow g's."""
    voff = max(g.vertices, default=-1) + 1
    eoff = max(g.edges, default=-1) + 1
    edges = dict(g.edges)
    edges.update({e + eoff: (u + voff, v + voff) for e, (u, v) in h.edges.items()})
    rotation = {v: g.rotation.get(v, ()) for v in g.vertices}
    rotation.update(
        {v + voff: [e + eoff for e in h.rotation.get(v, ())] for v in h.vertices}
    )
    vertices = list(g.vertices) + [v + voff for v in h.vertices]
    return RotationGraph.build(vertices, edges, rotation)


def multigraph(n, edge_pairs):
    return Multigraph(tuple(range(n)), {i: tuple(e) for i, e in enumerate(edge_pairs)})


def complete_graph(n):
    return multigraph(n, list(itertools.combinations(range(n), 2)))


def connected(g):
    """Whether g (with `vertices` and `edges`) is connected; the empty
    graph is."""
    if not g.vertices:
        return True
    adj = {v: [] for v in g.vertices}
    for u, v in g.edges.values():
        adj[u].append(v)
        adj[v].append(u)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def connected_simple_graphs(n):
    """Every connected simple graph on the labelled vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        g = multigraph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        if connected(g):
            yield g


def wheel_graph(n):
    """The wheel W_n: a rim cycle on vertices 0..n-1 and hub n joined to
    every rim vertex."""
    rim = [(i, (i + 1) % n) for i in range(n)]
    return multigraph(n + 1, rim + [(i, n) for i in range(n)])


def complete_rotation_graph(n, rotations=None):
    return rotation_graph(list(itertools.combinations(range(n), 2)), rotations)


# K4 drawn with vertex 3 inside the triangle 0, 1, 2: plane, but no face
# holds all four vertices.  (The default rotation of K4 is not plane.)
K4_PLANE_ROTATION = {0: (0, 1, 2), 1: (4, 3, 0), 2: (1, 3, 5), 3: (5, 4, 2)}


def random_rotation_graph(rng, n_max=6, e_max=8, loops=False):
    """Small random multigraph with a random rotation system."""
    n = rng.randint(1, n_max)
    m = rng.randint(0, e_max)
    edges = {}
    for i in range(m):
        u = rng.randrange(n)
        if loops and n >= 1 and rng.random() < 0.15:
            v = u
        else:
            v = rng.randrange(n)
            if v == u and not loops:
                v = (u + 1) % n if n > 1 else u
        edges[i] = (u, v)
    incident = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        incident[u].append(e)
        incident[v].append(e) if v != u else incident[u].append(e)
    for slots in incident.values():
        rng.shuffle(slots)
    return RotationGraph.build(range(n), edges, incident)


def random_fixed_degree_graph(rng, n, degree_choices):
    """Configuration-model multigraph whose degrees all come from
    `degree_choices` (the last vertex may be adjusted for parity within
    the choice set)."""
    if n % 2 and all(d % 2 for d in degree_choices):
        raise ValueError(f"no graph on {n} vertices with odd degrees {degree_choices}")
    while True:
        degs = [rng.choice(degree_choices) for _ in range(n)]
        if sum(degs) % 2 == 0:
            break
    stubs = [v for v, d in enumerate(degs) for _ in range(d)]
    rng.shuffle(stubs)
    edges = {i: (stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)}
    incident = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        incident[u].append(e)
        if v != u:
            incident[v].append(e)
        else:
            incident[u].append(e)
    for slots in incident.values():
        rng.shuffle(slots)
    return RotationGraph.build(range(n), edges, incident)


def _covered_counts(g, spec):
    """Edges covered by each per-vertex covered-slot choice in turn."""
    verts = sorted(g.vertices)
    per_vertex = []
    for v in verts:
        d = g.deg(v)
        if d == 0:
            per_vertex.append([frozenset()])
            continue
        w = min(spec.m, d)
        opts = {
            frozenset((s + t) % d for s in starts for t in range(w))
            for starts in itertools.combinations(range(d), min(spec.a, d))
        }
        per_vertex.append(sorted(opts, key=sorted))
    slot_of = {v: edge_slots(g, v) for v in verts}
    for combo in itertools.product(*per_vertex):
        chosen = dict(zip(verts, combo))
        yield sum(
            any(s in chosen[w2] for w2 in set(pair) for s in slot_of[w2].get(e, ()))
            for e, pair in g.edges.items()
        )


def naive_cover_search(g, spec):
    """Complete search over every per-vertex covered-slot choice."""
    full = len(g.edges)
    return "YES" if any(c == full for c in _covered_counts(g, spec)) else "NO"


def naive_max_coverage(g, spec):
    """The most edges that any per-vertex covered-slot choice covers."""
    return max(_covered_counts(g, spec))


def min_allocation_bruteforce(g, m=2, cap=18):
    """Exact minimum total angle count over all allocations, and an
    assignment that attains it.

    Branch-and-bound over per-edge coverer choices; assigning each edge to
    exactly one endpoint is optimal because min_arc_cover is monotone.
    """
    if len(g.edges) > cap:
        raise UnsupportedInputError(f"instance above brute-force cap ({cap} edges)")
    deg = {v: g.deg(v) for v in g.vertices}
    edge_ids = sorted(g.edges)
    options = {e: g.ends(e) for e in edge_ids}
    committed = {v: set() for v in g.vertices}
    mac = {v: 0 for v in g.vertices}
    best_size = [len(g.edges) + 1]
    best_slots = [{}]

    def dfs(i, bound):
        if bound >= best_size[0]:
            return
        if i == len(edge_ids):
            best_size[0] = bound
            best_slots[0] = {v: set(s) for v, s in committed.items() if s}
            return
        for v, s in options[edge_ids[i]]:
            old = mac[v]
            committed[v].add(s)
            mac[v] = min_arc_cover(deg[v], committed[v], m)[0]
            dfs(i + 1, bound - old + mac[v])
            mac[v] = old
            committed[v].discard(s)

    dfs(0, 0)
    angles = {
        v: [Angle(v, s, min(m, deg[v])) for s in min_arc_cover(deg[v], slots, m)[1]]
        for v, slots in best_slots[0].items()
    }
    return best_size[0], AngleAssignment.build(angles)


def brute_low_density(g):
    """Whether every vertex subset S spans at most 2|S| edges, by trying
    every subset."""
    verts = sorted(g.vertices)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    ends = [bit[u] | bit[v] for u, v in g.edges.values()]
    return all(
        sum(e & s == e for e in ends) <= 2 * bin(s).count("1")
        for s in range(1 << len(verts))
    )


def matching_density_witness(g):
    """The density witness from a maximum matching of the edge/doubled-
    vertex graph: the endpoints of the edges alternating-reachable from
    the unmatched ones (None when every edge is matched)."""
    b = build_gmat(g)
    matching = max_bipartite_matching(b)
    if len(matching) == len(b.left):
        return None
    adj = {l: [] for l in b.left}
    for l, r in b.edges:
        adj[l].append(r)
    pair_right = {r: l for l, r in matching.items()}
    reachable = [l for l in b.left if l not in matching]
    seen = set(reachable)
    for l in reachable:
        for r in adj[l]:
            other = pair_right.get(r)
            if other is not None and other not in seen:
                seen.add(other)
                reachable.append(other)
    return frozenset(w for e in seen for w in g.edges[e])


def check_3colouring(g, colouring):
    """Proper-colouring check with colours in {0, 1, 2}."""
    if any(colouring.get(v) not in (0, 1, 2) for v in g.vertices):
        return False
    return all(colouring[u] != colouring[v] for u, v in g.edges.values())


def brute_3col(g, cap=20):
    """Exhaustive 3-colourability verdict ("YES"/"NO") for small graphs."""
    verts = sorted(g.vertices)
    if len(verts) > cap:
        raise UnsupportedInputError(f"brute-force capped at {cap} vertices")
    adj = {v: [] for v in verts}
    for u, v in g.edges.values():
        if u == v:
            return "NO"
        adj[u].append(v)
        adj[v].append(u)
    colour = {}

    def go(i):
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


def reference_faces(g):
    """(face count, genus) of g's combinatorial map, walked over
    `g.rotation` with the next slot at w as (s + 1) % deg(w): the
    reference for `trace_faces`.  An isolated vertex is a component with
    one face; like `trace_faces`, the count leaves those faces out and
    the genus takes them in."""
    ends = {}
    for v in g.vertices:
        for s, e in enumerate(g.rotation.get(v, ())):
            ends.setdefault(e, []).append((v, s))
    twin = {}
    for a, b in ends.values():
        twin[a], twin[b] = b, a
    seen = set()
    faces = 0
    for start in twin:
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            w, s = twin[d]
            d = (w, (s + 1) % len(g.rotation[w]))
    isolated = sum(not g.rotation.get(v) for v in g.vertices)
    root = {v: v for v in g.vertices}
    for u, v in g.edges.values():
        while root[u] != u:
            u = root[u]
        while root[v] != v:
            v = root[v]
        root[u] = v
    components = sum(root[v] == v for v in g.vertices)
    defect = 2 * components - len(g.vertices) + len(g.edges) - faces - isolated
    return faces, defect // 2


def reference_validate_graph(g):
    """validate_graph as a walk over every rotation entry, kept as the
    reference for the messages and their order."""
    issues = []
    vset = set(g.vertices)
    for e, (u, v) in sorted(g.edges.items()):
        for w in {u, v}:
            if w not in vset:
                issues.append(f"edge {e}: endpoint {w} is not a vertex")
    occurrences = Counter()
    for v in g.vertices:
        for e in g.rotation.get(v, ()):
            occurrences[v, e] += 1
            if e not in g.edges:
                issues.append(f"vertex {v}: rotation names unknown edge {e}")
            elif v not in g.edges[e]:
                issues.append(f"vertex {v}: rotation lists non-incident edge {e}")
    for e, (u, v) in sorted(g.edges.items()):
        if u not in vset or v not in vset:
            continue
        if u == v:
            count = occurrences[u, e]
            if count != 2:
                issues.append(
                    f"self-loop {e} at {u} occurs {count} times in rotation, expected 2"
                )
        else:
            for w in (u, v):
                count = occurrences[w, e]
                if count != 1:
                    issues.append(
                        f"edge {e}=({u},{v}) occurs {count} times in rotation of {w},"
                        " expected 1"
                    )
    endpoints = {w for ends in g.edges.values() for w in ends}
    for v in g.vertices:
        if v not in g.rotation and v in endpoints:
            issues.append(f"vertex {v}: missing rotation")
    return issues


def reference_serialize_instance(g):
    """`fileio.serialize_instance` written one f-string per line, the
    reference its block writer must match byte for byte."""
    tg = None if isinstance(g, RotationGraph) else g
    if tg is not None:
        g = tg.base
    vertices, edges, rotation = sorted(g.vertices), g.edges, g.rotation
    lines = [f"v {v}" for v in vertices]
    lines += [f"e {e} {u} {v}" for e in sorted(edges) for u, v in (edges[e],)]
    lines += [
        f"rot {v}: {' '.join(map(str, rotation.get(v, ())))}".rstrip() for v in vertices
    ]
    if tg is not None:
        for x in sorted(tg.crossings):
            cr = tg.crossings[x]
            lines.append(f"x {x} {cr.e} {cr.f} {cr.bit}")
        for e in sorted(tg.sequences):
            seq = " ".join(str(x) for x in tg.sequences[e])
            lines.append(f"seq {e}: {seq}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")
