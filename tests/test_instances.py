import random
import time

import pytest

from anglecover.core import BASIC_SPEC, check_cover, trace_faces, validate_graph
from anglecover.instances import (
    FIG3_ORIENTATION,
    gen_henneberg_laman,
    gen_random_bounded_degree,
    gen_random_outerplane,
    gen_random_plane_deg4,
    gen_regular,
    get_instance,
    instance_names,
    random_henneberg_steps,
)


def test_catalogue_graphs_are_clean():
    for name in instance_names():
        inst = get_instance(name)
        assert validate_graph(inst.graph) == [], name


def test_shipped_covers_validate():
    for name in instance_names():
        inst = get_instance(name)
        if inst.cover is not None:
            assert inst.expected == "YES"
            assert check_cover(inst.graph, inst.cover, BASIC_SPEC).valid, name


def test_catalogue_planarity():
    for name in ("fig1", "fig2a", "fig2b", "fig3"):
        g = get_instance(name).graph
        assert trace_faces(g).genus == 0, name


def test_fig3_structure():
    g = get_instance("fig3").graph
    assert len(g.vertices) == 15 and len(g.edges) == 30
    assert all(g.deg(v) in (3, 4, 5) for v in g.vertices)


def test_fig3_orientation_out_degree_two():
    g = get_instance("fig3").graph
    out = {v: 0 for v in g.vertices}
    for e, (u, v) in g.edges.items():
        out[u if FIG3_ORIENTATION[e] else v] += 1
    assert all(c == 2 for c in out.values())


def test_fig3_orientation_strongly_connected():
    g = get_instance("fig3").graph
    succ = {v: [] for v in g.vertices}
    pred = {v: [] for v in g.vertices}
    for e, (u, v) in g.edges.items():
        s, t = (u, v) if FIG3_ORIENTATION[e] else (v, u)
        succ[s].append(t)
        pred[t].append(s)
    for adj in (succ, pred):
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(g.vertices)


def test_fig4_variants_share_edge_sets():
    a = get_instance("fig4-no").graph
    b = get_instance("fig4-yes").graph
    assert a.edges == b.edges
    assert a.rotation != b.rotation


def test_laman_instance_edge_count():
    g = get_instance("laman-fig6").graph
    n = len(g.vertices)
    assert len(g.edges) == 2 * n - 3


def test_generators_deterministic():
    for gen in (
        lambda s: gen_random_bounded_degree(20, 4, s),
        lambda s: gen_regular(20, 4, s),
        lambda s: gen_random_outerplane(12, s),
        lambda s: gen_random_plane_deg4(15, s),
    ):
        g1, g2 = gen(7), gen(7)
        assert g1.edges == g2.edges and g1.rotation == g2.rotation


def test_gen_regular_degrees():
    for d in (3, 4, 6):
        g = gen_regular(24, d, 1)
        assert all(g.deg(v) == d for v in g.vertices)
        assert validate_graph(g) == []


def test_gen_bounded_degree_respects_bound():
    for seed in range(5):
        g = gen_random_bounded_degree(30, 4, seed)
        assert max(g.deg(v) for v in g.vertices) <= 4
        assert validate_graph(g) == []


def test_gen_bounded_degree_is_fast_and_pinned():
    t0 = time.perf_counter()
    gen_random_bounded_degree(20_000, 4, 2)
    assert time.perf_counter() - t0 < 3.0
    # The benchmark pins this instance by its seed.
    g = gen_random_bounded_degree(10_000, 4, 3)
    assert len(g.edges) == 15777
    assert sum(u == v for u, v in g.edges.values()) == 385


def test_henneberg_laman_count():
    rng = random.Random(3)
    for seed in range(5):
        steps = random_henneberg_steps(rng.randint(0, 8), seed)
        g = gen_henneberg_laman(steps, seed)
        assert len(g.edges) == 2 * len(g.vertices) - 3
        assert validate_graph(g) == []


def test_henneberg_steps_reject_negative_count():
    # A negative count once ran as 0 and returned no steps.
    with pytest.raises(ValueError):
        random_henneberg_steps(-1, 1)
    assert random_henneberg_steps(0, 1) == []


def test_gen_outerplane_one_face_has_all_vertices():
    for seed in range(5):
        g = gen_random_outerplane(10, seed)
        assert validate_graph(g) == []
        fd = trace_faces(g)
        assert fd.genus == 0
        assert any(
            {v for v, _ in face} == set(g.vertices) for face in fd.faces
        )


def test_gen_plane_deg4_plane_and_bounded():
    for seed in range(10):
        g = gen_random_plane_deg4(25, seed)
        assert validate_graph(g) == []
        assert max(g.deg(v) for v in g.vertices) <= 4
        assert trace_faces(g).genus == 0
