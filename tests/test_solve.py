import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from anglecover.core import (
    BASIC_SPEC,
    Angle,
    Certificate,
    CoverSpec,
    RotationGraph,
    UnsupportedInputError,
    check_cover,
    coverable_slots,
    trace_faces,
)
from anglecover.instances import (
    gen_random_bounded_degree,
    gen_random_outerplane,
    gen_regular,
    get_instance,
)
from anglecover.fileio import serialize_cover
from anglecover.reduce import reduce_2angle_deg8, reduce_3col, reduce_multi
from anglecover.solve import (
    min_arc_cover,
    oracle_solve,
    solve_deg4,
    solve_no_deg3,
    solve_outerplane,
    solve_sextet,
)
from conftest import (
    K4_PLANE_ROTATION,
    complete_graph,
    complete_rotation_graph,
    disjoint_union,
    min_allocation_bruteforce,
    naive_cover_search,
    random_fixed_degree_graph,
    random_rotation_graph,
    rotation_graph,
    wheel_graph,
)


def brute_arc_cover(deg, slots, m):
    pts = sorted(slots)
    for k in range(1, len(pts) + 1):
        for starts in itertools.combinations(range(deg), k):
            covered = {(s + t) % deg for s in starts for t in range(min(m, deg))}
            if all(p in covered for p in pts):
                return k
    return 0


def test_min_arc_cover_vs_bruteforce():
    rng = random.Random(17)
    for _ in range(1500):
        deg = rng.randint(1, 10)
        m = rng.randint(1, 4)
        k = rng.randint(0, deg)
        slots = set(rng.sample(range(deg), k))
        count, arcs = min_arc_cover(deg, slots, m)
        assert count == brute_arc_cover(deg, slots, m)
        covered = {(s + t) % deg for s in arcs for t in range(min(m, deg))}
        assert slots <= covered and len(arcs) == count


def test_min_arc_cover_wrapped_points():
    # Points straddling the wrap; first-start candidates must sweep cyclically.
    count, _ = min_arc_cover(8, {0, 3, 6}, 2)
    assert count == 3


def test_oracle_matches_naive_search():
    rng = random.Random(23)
    for _ in range(150):
        g = random_rotation_graph(rng, n_max=5, e_max=7, loops=True)
        a = rng.randint(1, 3)
        m = rng.randint(2, 3)
        spec = CoverSpec(a, m)
        cert = oracle_solve(g, spec)
        assert cert.verdict == naive_cover_search(g, spec)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, spec).valid


def test_oracle_on_figure_corpus():
    for name in ("fig1", "fig2a", "fig2b", "fig3", "fig4-no", "fig4-yes"):
        inst = get_instance(name)
        cert = oracle_solve(inst.graph)
        assert cert.verdict == inst.expected, name
        if cert.is_yes:
            assert check_cover(inst.graph, cert.assignment, BASIC_SPEC).valid


def test_oracle_budget_indeterminate():
    # fig2a is a NO that takes one decision and one conflict.  A clique
    # such as K8 would not do: its slot count is a NO before any decision.
    g = get_instance("fig2a").graph
    assert oracle_solve(g, BASIC_SPEC, budget=1).verdict == "INDETERMINATE"


def test_oracle_budget_bounds_an_undecided_search():
    # The 3-angle reduction of the wheel W5 is NO, and refuting it takes
    # the search about 15k decisions plus conflicts; a small budget must
    # stop it with INDETERMINATE.
    h = reduce_multi(wheel_graph(5), 3)
    t0 = time.perf_counter()
    cert = oracle_solve(h, CoverSpec(3, 2), budget=5000)
    assert cert.verdict == "INDETERMINATE"
    assert time.perf_counter() - t0 < 2.0


def test_oracle_certificate_counts_its_search():
    h = reduce_2angle_deg8(wheel_graph(6))
    cert = oracle_solve(h, CoverSpec(2, 2))
    assert cert.is_yes
    assert cert.decisions > 0 and cert.restarts > 0
    assert 0 < cert.learned <= cert.conflicts
    assert 0 < cert.tight <= cert.conflicts
    # The counters take no part in comparisons.
    assert cert == Certificate(cert.verdict, cert.assignment)
    # The budget counts decisions plus conflicts.
    cut = oracle_solve(h, CoverSpec(2, 2), budget=100)
    assert cut.verdict == "INDETERMINATE"
    assert cut.decisions + cut.conflicts == 101
    assert solve_deg4(gen_regular(10, 4, 0)).decisions == 0


@pytest.mark.parametrize(
    "make, spec, uncovered, verdict",
    [
        (lambda: reduce_2angle_deg8(wheel_graph(6)), (2, 2), 0, "YES"),
        (lambda: reduce_2angle_deg8(wheel_graph(5)), (2, 2), 0, "NO"),
        (lambda: reduce_multi(complete_graph(4), 2), (2, 2), 1, "YES"),
        (lambda: reduce_3col(complete_graph(5))[0], (1, 2), 1, "NO"),
    ],
    ids=["deg8-W6", "deg8-W5", "multi-K4-allowance", "3col-K5-allowance"],
)
def test_oracle_is_deterministic(make, spec, uncovered, verdict):
    # Each case needs conflicts and restarts, so learning, VSIDS ties and
    # the restart schedule all take part; two runs must agree exactly.
    g, spec = make(), CoverSpec(*spec)
    runs = [oracle_solve(g, spec, uncovered=uncovered) for _ in range(2)]
    counts = [(c.decisions, c.conflicts, c.learned, c.restarts) for c in runs]
    assert [c.verdict for c in runs] == [verdict] * 2
    assert counts[0] == counts[1] and counts[0][3] > 0
    if verdict == "YES":
        covers = [serialize_cover(c.assignment) for c in runs]
        assert covers[0] == covers[1]
        chk = check_cover(g, runs[0].assignment, spec)
        assert not chk.violations and len(chk.uncovered_edges) <= uncovered


def test_oracle_refutes_deg8_k4_by_counting():
    # Each T gadget has one slot to spare: once a stub is covered inside
    # it, the orientation finds the tight set, where clause learning
    # alone would relearn that for every T copy.
    cert = oracle_solve(reduce_2angle_deg8(complete_graph(4)), CoverSpec(2, 2))
    assert cert.is_no
    assert cert.conflicts < 300 and cert.tight > 0


def test_oracle_refutes_multi_k4_within_budget():
    # The K13 blockers are exactly tight, so every stub must be covered
    # by its host; clause learning alone is undecided at this budget.
    h = reduce_multi(complete_graph(4), 3)
    assert oracle_solve(h, CoverSpec(3, 2), budget=200_000).is_no


def test_oracle_covers_multi_k3():
    h = reduce_multi(complete_graph(3), 3)
    cert = oracle_solve(h, CoverSpec(3, 2))
    assert cert.is_yes
    assert check_cover(h, cert.assignment, CoverSpec(3, 2)).valid
    # The K13 blockers are exactly tight, so counting, not learning,
    # places their stubs.
    assert cert.conflicts < 100 and cert.tight > 0


def test_oracle_counts_slots_before_searching():
    # 60 edges, 24 vertices with min(5, 1 * 2) = 2 coverable slots each:
    # leaving 11 uncovered still needs 49 > 48 slots.
    g = gen_regular(24, 5, 4)
    cert = oracle_solve(g, CoverSpec(1, 2), budget=20000, uncovered=11)
    assert cert.is_no and cert.decisions == cert.conflicts == 0
    # At 12 uncovered the count no longer decides it: the search runs.
    cert = oracle_solve(g, CoverSpec(1, 2), budget=1, uncovered=12)
    assert cert.verdict == "INDETERMINATE"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_regular3_n1000(seed):
    # Runs at the default recursion limit: the search is a loop.
    g = gen_regular(1000, 3, seed)
    cert = oracle_solve(g)
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_outerplane_n1500(seed):
    g = gen_random_outerplane(1500, seed)
    cert = solve_outerplane(g)
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def doubled_every_fifth_edge(g):
    """`g` with a parallel copy of every edge whose id is 0 mod 5, drawn
    next to it: right after it at its first endpoint, right before it at
    its second, so the embedding stays outerplane."""
    edges = dict(g.edges)
    rotation = {v: list(r) for v, r in g.rotation.items()}
    copy = max(edges) + 1
    for e in sorted(g.edges):
        if e % 5:
            continue
        u, v = edges[copy] = g.edges[e]
        rotation[u].insert(rotation[u].index(e) + 1, copy)
        rotation[v].insert(rotation[v].index(e), copy)
        copy += 1
    return RotationGraph.build(g.vertices, edges, rotation)


@pytest.mark.parametrize("n", [16, 20])
def test_solve_outerplane_multigraph(n):
    # A backtracking peel took 4.9 s at n = 16 and over 50 s at n = 20.
    g = doubled_every_fifth_edge(gen_random_outerplane(n, 0))
    start = time.perf_counter()
    cert = solve_outerplane(g)
    assert time.perf_counter() - start < 2.0
    assert cert.is_yes
    assert check_cover(g, cert.assignment, BASIC_SPEC).valid


@pytest.mark.parametrize(
    "rotation", [K4_PLANE_ROTATION, None], ids=["plane", "nonplane"]
)
def test_solve_outerplane_rejects_non_outerplane(rotation):
    g = complete_rotation_graph(4, rotation)
    assert trace_faces(g).is_plane == (rotation is not None)
    with pytest.raises(UnsupportedInputError):
        solve_outerplane(g)


@st.composite
def component_graphs(draw):
    """Rotation graphs of up to three blocks of vertices, each with random
    edges, loops and parallel edges among its own vertices, plus isolated
    vertices; random rotations, vertices listed out of order."""
    vertices, edges = [], {}
    for _ in range(draw(st.integers(1, 3))):
        block = range(len(vertices), len(vertices) + draw(st.integers(1, 4)))
        vertices += block
        for u, w in draw(st.lists(st.tuples(st.sampled_from(block),
                                            st.sampled_from(block)), max_size=5)):
            edges[len(edges)] = (u, w)
    vertices += range(len(vertices), len(vertices) + draw(st.integers(0, 2)))
    incident = {v: [] for v in vertices}
    for e, (u, w) in edges.items():
        incident[u].append(e)
        incident[w].append(e)
    rotation = {v: draw(st.permutations(slots)) for v, slots in incident.items()}
    return RotationGraph.build(draw(st.permutations(vertices)), edges, rotation)


def outerplane_by_rotation(g):
    """Whether g is plane with one face holding every non-isolated vertex,
    from face walks over `g.rotation` and Euler's formula summed over the
    components (an isolated vertex is a component with one face)."""
    rot = {v: g.rotation.get(v, ()) for v in g.vertices}
    ends = {}  # edge -> its two (vertex, slot) ends
    for v, r in rot.items():
        for s, e in enumerate(r):
            ends.setdefault(e, []).append((v, s))
    faces, seen = [], set()
    for dart in ends.values():
        for v, s in dart:
            face = set()
            while (v, s) not in seen:
                seen.add((v, s))
                face.add(v)
                a, b = ends[rot[v][s]]
                v, t = b if a == (v, s) else a
                s = (t + 1) % len(rot[v])
            if face:
                faces.append(face)
    label = {v: v for v in g.vertices}

    def root(v):
        while label[v] != v:
            v = label[v]
        return v

    for u, w in g.edges.values():
        label[root(u)] = root(w)
    components = len({root(v) for v in g.vertices})
    isolated = [v for v in g.vertices if not rot[v]]
    euler = 2 * components - len(g.vertices) + len(g.edges) - len(faces) - len(isolated)
    non_isolated = set(g.vertices) - set(isolated)
    return euler == 0 and (
        not non_isolated or any(non_isolated <= face for face in faces)
    )


@settings(max_examples=200, deadline=None)
@given(component_graphs())
def test_solve_outerplane_rejects_exactly_the_non_outerplane(g):
    try:
        cert = solve_outerplane(g)
    except UnsupportedInputError as err:
        assert str(err) == "input is not outerplane"
        assert not outerplane_by_rotation(g)
    else:
        assert outerplane_by_rotation(g)
        assert cert.verdict in ("YES", "NO")
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def test_oracle_forced_flips_verdict():
    spec = CoverSpec(1, 2)
    star = rotation_graph([(0, 1), (0, 2), (0, 3)])
    assert oracle_solve(star, spec).is_yes
    # Leaves are free; force all edges to the centre instead.
    forced = {e: 0 for e in star.edges}
    assert oracle_solve(star, spec, forced=forced).is_no


def test_solve_deg4_matches_oracle():
    rng = random.Random(31)
    for _ in range(200):
        g = random_fixed_degree_graph(rng, rng.randint(2, 9), (1, 2, 3, 4))
        cert = solve_deg4(g)
        assert cert.verdict == oracle_solve(g).verdict
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def test_solve_deg4_on_generator_output():
    for seed in range(20):
        g = gen_random_bounded_degree(40, 4, seed)
        # A disjoint union has open trails in each of its components.
        union = disjoint_union(g, gen_random_bounded_degree(seed + 1, 4, seed + 50))
        for h in (g, union):
            cert = solve_deg4(h)
            assert cert.verdict in ("YES", "NO")
            if cert.is_yes:
                assert check_cover(h, cert.assignment, BASIC_SPEC).valid


def _decided_by_scc(g, cert):
    """A NO that the slot count in front of the implication graph does
    not give, so the SCC search found it."""
    return cert.is_no and len(g.edges) <= coverable_slots(g, BASIC_SPEC)


def test_solve_no_deg3_matches_oracle():
    rng = random.Random(41)
    scc_no = 0
    for _ in range(150):
        g = random_fixed_degree_graph(rng, rng.randint(2, 8), (1, 2, 4, 5))
        cert = solve_no_deg3(g)
        assert cert.verdict == oracle_solve(g).verdict
        scc_no += _decided_by_scc(g, cert)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid
    assert scc_no


def test_solve_no_deg3_counts_before_the_implication_graph():
    # 16-regular: 8n edges and 2n coverable slots, a NO by counting.  A
    # degree-3 vertex is refused before the count, over-full or not.
    assert solve_no_deg3(gen_regular(200, 16, 1)).is_no
    tripled = [(0, 1), (0, 2), (1, 2), (3, 0)] * 3
    g = rotation_graph(tripled)
    assert g.deg(3) == 3 and len(g.edges) > coverable_slots(g, BASIC_SPEC)
    with pytest.raises(UnsupportedInputError):
        solve_no_deg3(g)


def _with_loops(rng, g):
    """g plus a loop, both slots at random places, at some vertices of
    degree >= 2, so no vertex reaches degree 3."""
    edges = dict(g.edges)
    rotation = {v: list(g.rotation[v]) for v in g.vertices}
    for v in g.vertices:
        if g.deg(v) >= 2 and rng.random() < 0.5:
            e = len(edges)
            edges[e] = (v, v)
            for _ in range(2):
                rotation[v].insert(rng.randint(0, len(rotation[v])), e)
    return RotationGraph.build(g.vertices, edges, rotation)


def test_solve_no_deg3_matches_oracle_at_high_degree():
    # Degrees up to 8, with and without extra loops, exercise the
    # per-dart variables at vertices with many slots.
    rng = random.Random(43)
    scc_no = 0
    for i in range(300):
        g = random_fixed_degree_graph(rng, rng.randint(1, 7), (1, 2, 4, 6, 8))
        if i % 2:
            g = _with_loops(rng, g)
        cert = solve_no_deg3(g)
        assert cert.verdict == oracle_solve(g).verdict, i
        scc_no += _decided_by_scc(g, cert)
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid, i
    assert scc_no


def test_solve_sextet_produces_valid_cover():
    # Delta mod 6 takes each of 0, 2 and 4.  The bounded-degree graphs are
    # non-regular and have loops, so they and their disjoint unions
    # exercise the open trails.
    for delta in (2, 4, 6, 8, 10, 12, 14, 16):
        spec = CoverSpec(delta // 2 - delta // 6, 2)
        for seed in range(10):
            bounded = gen_random_bounded_degree(5 + 3 * seed, delta, seed)
            graphs = [
                gen_regular(18, delta, seed),
                bounded,
                disjoint_union(bounded, gen_random_bounded_degree(seed + 1, delta, seed + 50)),
            ]
            for g in graphs:
                cert = solve_sextet(g, delta)
                assert cert.is_yes
                assert check_cover(g, cert.assignment, spec).valid


@pytest.mark.parametrize("delta", [4, 8])
def test_walk_solvers_cover_each_component_alone(delta):
    # No walk crosses between components, so the cover of a disjoint
    # union is g's cover plus h's cover shifted by the vertex offset.
    solve = solve_deg4 if delta == 4 else (lambda g: solve_sextet(g, delta))
    for seed in range(30):
        g = gen_random_bounded_degree(40, delta, seed)
        h = gen_random_bounded_degree(seed + 1, delta, seed + 50)
        off = max(g.vertices) + 1
        shifted = {
            v + off: tuple(Angle(v + off, x.start, x.width) for x in angles)
            for v, angles in solve(h).assignment.angles.items()
        }
        union = solve(disjoint_union(g, h)).assignment.angles
        assert union == {**solve(g).assignment.angles, **shifted}, seed


def test_solve_outerplane_matches_oracle():
    for seed in range(30):
        g = gen_random_outerplane(9, seed)
        cert = solve_outerplane(g)
        assert cert.verdict == oracle_solve(g).verdict
        if cert.is_yes:
            assert check_cover(g, cert.assignment, BASIC_SPEC).valid


def test_min_allocation_bruteforce_triangle():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    size, asg = min_allocation_bruteforce(g)
    assert size == 2
    assert check_cover(g, asg, CoverSpec(3, 2)).valid


def test_min_allocation_bruteforce_cap():
    g = complete_rotation_graph(7)
    with pytest.raises(UnsupportedInputError):
        min_allocation_bruteforce(g)
