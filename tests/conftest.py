"""Shared test helpers: small graph builders and random generators."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from anglecover.core import RotationGraph
from anglecover.transform import Multigraph


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
    slot_of = {v: g.edge_slots(v) for v in verts}
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
