import hashlib
import random
import time

import pytest

from anglecover.core import (
    BASIC_SPEC,
    check_cover,
    trace_faces,
    validate_graph,
    _face_cycles,
)
from anglecover.fileio import serialize_instance
from anglecover.instances import (
    FIG3_ORIENTATION,
    _below,
    _random_rotation_graph,
    _RankList,
    _shuffle,
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
        assert trace_faces(g).genus == 0
        vertex = g.dart_index.vertex
        assert any(
            {vertex[d] for d in face} == set(g.vertices)
            for face in _face_cycles(g.dart_index)
        )


def test_gen_plane_deg4_plane_and_bounded():
    for seed in range(10):
        g = gen_random_plane_deg4(25, seed)
        assert validate_graph(g) == []
        assert max(g.deg(v) for v in g.vertices) <= 4
        assert trace_faces(g).genus == 0


def _steps(k, seed):
    return repr(random_henneberg_steps(k, seed))


def _laman(k, seed):
    return gen_henneberg_laman(random_henneberg_steps(k, seed), seed)


# sha256 of each generated instance's serialization (of the repr, for a
# step list).  Saved files and the benchmark name instances by generator
# and seed, so a generator may change its speed but not its random draws.
PINNED_BYTES = [
    (gen_regular, (1, 0, 1),
     "070426f783f196fe0c687665ceb2f0a9c0c7918f886450da552ba8cf8824caa7"),
    (gen_regular, (9, 2, 2),
     "78ce51b98d30ec8e89a5b55d0eb464d02fbfa5f98b010538506647d6281c5d15"),
    (gen_regular, (24, 3, 3),
     "3d64348a5c19d8757123efae2c7119b0ddb8e42290ae276a4be6132f58a77e32"),
    (gen_regular, (40, 4, 4),
     "4ea25d8663fcfa3735573acfc8576d6cd9acf683a843c5f105fda827ea98c604"),
    (gen_regular, (31, 6, 5),
     "609f857c9bf06f71c43b258397294ed79cc2b1e799d03c3e49b21aa5b10ec812"),
    (gen_random_bounded_degree, (1, 0, 1),
     "070426f783f196fe0c687665ceb2f0a9c0c7918f886450da552ba8cf8824caa7"),
    (gen_random_bounded_degree, (2, 1, 2),
     "920feed12cf5e3a6ec3720a100932f13f8d6daa5790121159f079423b128bc44"),
    (gen_random_bounded_degree, (9, 2, 3),
     "849383a189e4dcba2b6701cb87aa5119a39110d4ed7f2b798f02d7db17a22a64"),
    (gen_random_bounded_degree, (40, 3, 4),
     "2a6962cf1ea13803aad26da79f1493aeb8681ce7717ed072eb77b7723a5ab197"),
    (gen_random_bounded_degree, (200, 4, 5),
     "d751c239d1644e30bda3b31a62a32e09e16df5f8985e555016f25a0148874751"),
    (gen_random_bounded_degree, (200, 5, 6),
     "8408820f409c32c08dbd4820c2ccc52b9cf45dbc9272c4afb6c74533145e1dfc"),
    (gen_random_bounded_degree, (1000, 6, 7),
     "f532be40cff1f4ff7ada2d655c6840386fad89adc27c9431d6d999cd322cf87d"),
    (gen_random_plane_deg4, (1, 1),
     "070426f783f196fe0c687665ceb2f0a9c0c7918f886450da552ba8cf8824caa7"),
    (gen_random_plane_deg4, (2, 2),
     "920feed12cf5e3a6ec3720a100932f13f8d6daa5790121159f079423b128bc44"),
    (gen_random_plane_deg4, (3, 3),
     "248f0469d3ddb14305285c2482a57073ab03c11f792c7c5bf28b332bb0f7de92"),
    (gen_random_plane_deg4, (17, 4),
     "27b1d73a333c558495dca614638ae1a4b8777f4ef47f2f78343f5dd785acc22c"),
    (gen_random_plane_deg4, (200, 5),
     "02365ac3262e602e63997cc9b22a086e50a43324a35cb2965e9830ec1b781e59"),
    (gen_random_plane_deg4, (1000, 6),
     "725d7e63a73424b0092f427e247474fb9a9292c433063babcd3bb1052731bbdc"),
    (_steps, (0, 1),
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (_steps, (12, 2),
     "74b6edeeb3611f41960c051df9b3238d3edd95a5ae5fa34a8d6ff8a5b6158c2a"),
    (_steps, (300, 3),
     "781a4035e8c2cca54e276b6559e9fea8901e155ea842550beacc02e8f2b3e374"),
    (_laman, (0, 1),
     "920feed12cf5e3a6ec3720a100932f13f8d6daa5790121159f079423b128bc44"),
    (_laman, (12, 2),
     "59fbcc21a1003762edaebdcd201fb3db5cdff8599c3f891f33103ecef4d37189"),
    (_laman, (300, 3),
     "ae4bad33003befb7d671c46b19311085372f756fb4afe6ddc6ee4d66ca07886e"),
    (gen_random_outerplane, (3, 0),
     "b50b0c0a3746da74a184b527d8b420b4e60840bfd2a9967385262957a9ea20c7"),
    (gen_random_outerplane, (17, 1),
     "d85e7b296b013ddb2c3492278f8d1bd0e3ef61bf056f72be5b1b68f21687687d"),
    # The cli workload's outerplane instance and the search workload's
    # two at seed 1.
    (gen_random_outerplane, (200, 108),
     "e1ecf764d15bb2879d8de26331c680f6fdad1b08824063294462c6265ec889d1"),
    (gen_random_outerplane, (600, 103),
     "20fa12fff44d586e45aab9b094ca50c9624d381b2b01409a889a3114c22855cc"),
    (gen_random_outerplane, (1000, 104),
     "e3be6706d5f50f8c3bebefae7ffe3aa26e10fa28ce5ae0d24c0273be190b6da9"),
    # The matching workload's instances at seed 1.
    (gen_regular, (1500, 4, 101),
     "3b9d9c45b9ecdd473892fe838896f49bea9a9200f8578826b8f561e7a08460a6"),
    (gen_random_plane_deg4, (500, 1),
     "d4d861feaff43b2327aadecb1ebab684a962e3b948ca6194c5d95d4c63df6965"),
    (gen_random_plane_deg4, (500, 2),
     "a40b70c32d8ef8bacc825c41043e6e6c921f748a25bf194c846b0ab43401f954"),
    (gen_random_plane_deg4, (500, 3),
     "848dad418aa81689a2d72dab6038884373f49fa98624b1a590fdfa892dea9b86"),
    (gen_random_plane_deg4, (1000, 0),
     "af2c274b1e890931d816080278d8a5fb6b6ad5fee5b6bfab7aef1c2d604e0747"),
    (gen_regular, (30_000, 4, 102),
     "e97da4a6be73d47b0aa69c8339856ba964b14665ad735389896ed0a508207189"),
    (gen_regular, (30_000, 5, 103),
     "1cb4ab0db2dc8b3580545ed661119fbb9d9dbe807a7378bb1d34f46e2b0a2cfa"),
    (_laman, (9998, 104),
     "6db31ca00b07d14f12446acb244478c15bed8e20f685f5393a58f676c8c06f6a"),
    # The linear workload's plane instance at seed 1 and its pinned
    # bounded-degree instance (15777 edges, 385 loops).
    (gen_random_plane_deg4, (10_000, 102),
     "1cfc82870538b19591d133aa92d485eaedfd8c1a31607ee4e754977b2c7b0c9d"),
    (gen_random_bounded_degree, (10_000, 4, 3),
     "909c7b062ab0c5cb25117c7108e962ab844bf65dcd0d7be61209d13aafac0d19"),
    # The linear workload's regular instances at seed 1; n = 10^5 shuffles
    # its stubs with draws up to 19 bits wide.
    (gen_regular, (100_000, 4, 101),
     "da939f8d0fd5ec770fb1b4272d86fe9ef0b18b1c368c9c60fdd4c9305a6a94fa"),
    (gen_regular, (20_000, 4, 104),
     "caebf01a131a708556ec68bcbd857b053ea59b35c3c433f57adf31961d5ee219"),
    (gen_regular, (5_000, 16, 105),
     "3dbb07b5aef61646ef7c2cd171976c396d68f8de3413aa854e6fc47dfdeabc43"),
    (gen_regular, (20_000, 6, 106),
     "a1f023709682102d3f65d544cdeeb24fec4e550a3c9b73bb5698b689f67817c8"),
]


@pytest.mark.parametrize(
    "gen, args, digest", PINNED_BYTES, ids=[f"{g.__name__}{a}" for g, a, _ in PINNED_BYTES]
)
def test_generated_bytes_are_pinned(gen, args, digest):
    out = gen(*args)
    text = out if isinstance(out, str) else serialize_instance(out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Lengths 0-70, then each power of two up to 2^18 with its neighbours,
# where the draw width changes.
DRAW_SIZES = sorted({*range(71), *(2**k + d for k in range(1, 19) for d in (-1, 0, 1))})


@pytest.mark.parametrize("seed", range(5))
def test_inlined_draws_match_random(seed):
    # `random` is the reference: the generators draw its `getrandbits`
    # widths themselves, so a Python whose `random` draws otherwise fails
    # here and not only in the pinned digests.  Seed 0 runs every size;
    # the others stop at 2^10 + 1, since the long shuffles take most of
    # the time and one seed checks their widths.
    ref, rng = random.Random(seed), random.Random(seed)
    getrandbits = rng.getrandbits
    for size in DRAW_SIZES if seed == 0 else [n for n in DRAW_SIZES if n <= 2**10 + 1]:
        expected, got = list(range(size)), list(range(size))
        ref.shuffle(expected)
        _shuffle(getrandbits, got)
        assert got == expected, size
        if size:
            draws = [ref.randrange(size) for _ in range(50)]
            assert [_below(getrandbits, size) for _ in range(50)] == draws, size
        assert rng.getstate() == ref.getstate(), size


@pytest.mark.parametrize("seed", range(5))
def test_rotation_shuffles_match_random(seed):
    # Vertex v < 71 has degree v: v // 2 loops, and for odd v an edge to
    # vertex 71; the edge ids come in a shuffled order.
    ends = [(v, v) for v in range(71) for _ in range(v // 2)]
    ends += [(v, 71) for v in range(1, 71, 2)]
    ids = list(range(len(ends)))
    random.Random(seed).shuffle(ids)
    edges = dict(zip(ids, ends))
    ref, rng = random.Random(seed), random.Random(seed)
    g = _random_rotation_graph(edges, 72, rng)
    incident = [[] for _ in range(72)]
    for e, (u, v) in sorted(edges.items()):
        incident[u].append(e)
        incident[v].append(e)
    for slots in incident:
        ref.shuffle(slots)
    assert g.rotation == dict(enumerate(map(tuple, incident)))
    assert rng.getstate() == ref.getstate()


def test_rotation_shuffles_scale_with_the_edges():
    # A step table for every length up to the maximum degree would be
    # quadratic in a hub's degree; Henneberg's 10^4 steps make one of 4008.
    edges = {e: (0, e + 1) for e in range(5000)}
    t0 = time.perf_counter()
    g = _random_rotation_graph(edges, 5001, random.Random(1))
    assert time.perf_counter() - t0 < 1.0
    assert sorted(g.rotation[0]) == list(range(5000))


def test_rank_list_matches_a_list():
    rng = random.Random(5)
    for _ in range(200):
        ref, ranked = [], _RankList()
        for step in range(rng.randint(0, 60)):
            if ref and rng.random() < 0.4:
                x = rng.choice(ref)
                ref.remove(x)
                ranked.remove(x)
            else:
                ref.append(step)
                ranked.append(step)
            assert len(ranked) == len(ref)
            assert [ranked[k] for k in range(len(ref))] == ref
        for k in (-1, len(ref)):
            with pytest.raises(IndexError):
                ranked[k]


def test_henneberg_steps_scale():
    # One deletion from a plain list per subdivided edge made this
    # quadratic: about 8 s at this size.
    t0 = time.perf_counter()
    steps = random_henneberg_steps(40_000, 1)
    assert time.perf_counter() - t0 < 2.0
    assert len(steps) == 40_000


def test_bounded_degree_scales():
    # One deletion from a plain list per full vertex made this quadratic:
    # about 37 s at this size and seed.
    t0 = time.perf_counter()
    g = gen_random_bounded_degree(100_000, 4, 2)
    assert time.perf_counter() - t0 < 10.0
    assert len(g.vertices) == 100_000 and g.max_degree() <= 4
