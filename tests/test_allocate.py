import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from anglecover.allocate import (
    max_matching_general,
    optimal_allocation,
    tutte_berge_holds,
)
from anglecover.core import CoverSpec, RotationGraph, check_cover
from anglecover.fileio import serialize_cover, serialize_multigraph
from anglecover.instances import gen_random_plane_deg4, gen_regular, get_instance
from anglecover.transform import medial_graph
from conftest import (
    min_allocation_bruteforce,
    multigraph,
    random_rotation_graph,
    rotation_graph,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return rotation_graph(outer + inner + spokes)


def test_matching_sizes():
    assert len(max_matching_general(multigraph(3, [(0, 1), (1, 2), (2, 0)]))) == 1
    c6 = multigraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert len(max_matching_general(c6)) == 3


def test_matching_petersen_medial():
    med, _ = medial_graph(petersen())
    assert len(max_matching_general(med)) == len(med.vertices) // 2


def test_allocation_size_formula():
    g = petersen()
    med, _ = medial_graph(g)
    asg, size = optimal_allocation(g)
    assert size == len(g.edges) - len(max_matching_general(med))
    spec = CoverSpec(len(g.edges), 2)
    assert check_cover(g, asg, spec).valid


def test_allocation_triangle():
    g = rotation_graph([(0, 1), (1, 2), (2, 0)])
    _, size = optimal_allocation(g)
    assert size == 2


def test_allocation_single_edge():
    g = rotation_graph([(0, 1)])
    asg, size = optimal_allocation(g)
    assert size == 1
    assert check_cover(g, asg, CoverSpec(1, 2)).valid


def test_allocation_matches_bruteforce():
    rng = random.Random(61)
    for _ in range(150):
        g = random_rotation_graph(rng, n_max=6, e_max=10, loops=True)
        if len(g.edges) == 0:
            continue
        asg, size = optimal_allocation(g)
        assert size == min_allocation_bruteforce(g)[0]
        spec = CoverSpec(max(1, len(g.edges)), 2)
        assert check_cover(g, asg, spec).valid


def bruteforce_matching_size(pairs) -> int:
    """Size of a maximum matching by trying each edge in or out."""
    if not pairs:
        return 0
    (u, v), rest = pairs[0], pairs[1:]
    skip = bruteforce_matching_size(rest)
    if u == v:
        return skip
    free = [(a, b) for a, b in rest if not {a, b} & {u, v}]
    return max(skip, 1 + bruteforce_matching_size(free))


@st.composite
def small_multigraphs(draw):
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_max_matching_general_matches_bruteforce(graph):
    n, pairs = graph
    matching = max_matching_general(multigraph(n, pairs))
    ends = [w for pair in matching for w in pair]
    assert len(ends) == len(set(ends))
    edge_set = {tuple(sorted(p)) for p in pairs}
    assert all(u < v and (u, v) in edge_set for u, v in matching)
    assert len(matching) == bruteforce_matching_size(pairs)


def test_tutte_berge_rejects_non_maximum_matching():
    p4 = [[1], [0, 2], [1, 3], [2]]
    assert not tutte_berge_holds(p4, [-1, 2, 1, -1], set())
    assert tutte_berge_holds(p4, [1, 0, 3, 2], set())


@pytest.mark.parametrize("seed", [1, 3])
def test_plane_allocation_finishes(seed):
    g = gen_random_plane_deg4(500, seed)
    asg, size = optimal_allocation(g)
    assert size >= (len(g.edges) + 1) // 2
    assert check_cover(g, asg, CoverSpec(len(g.edges), 2)).valid


def _loops_and_a_degree_2_vertex():
    # Loops at 0 and 2; vertex 1 has degree 2, vertex 3 degree 1, and 4
    # is isolated.
    return RotationGraph.build(
        range(5),
        {0: (0, 0), 1: (0, 1), 2: (1, 2), 3: (2, 2), 4: (0, 2), 5: (2, 3)},
        {0: (0, 4, 0, 1), 1: (1, 2), 2: (3, 2, 4, 3, 5), 3: (5,), 4: ()},
    )


# sha256 of serialize_multigraph(medial_graph(g)[0]), of the repr of its
# provenance map and of serialize_cover(optimal_allocation(g)[0]): the
# catalogue, the allocation graphs of the benchmark's `matching` workload,
# and a graph with loops.
PINNED_ALLOCATIONS = [
    ("fig1", lambda: get_instance("fig1").graph,
     ("8ff32098b66c55ac2ad55782eaf43b28c078da0d6f0314c6ab65304bae4603e9",
      "c9ac04d952412f76d1fe8c7487eff9b59c2bebbbdad32707ceede3ef3a4d31f1",
      "150955809c64928902a65c020aee1295b25b93370e37a718c42631b7b8692bdf")),
    ("fig2a", lambda: get_instance("fig2a").graph,
     ("62f6165226a6f113ba5cb0046ab123703894e96b2e4b58a33d2d052219fcc0c7",
      "e8216ba25d5da37174174fbdfed8d4b84af042cadcbd0c90e1403a55b7d18fe9",
      "0fd8ffc4a69b793fb2df9e19ae51c1cc7ff960aaf4a5951af63ab72d86dbe568")),
    ("fig2b", lambda: get_instance("fig2b").graph,
     ("c68086c15f7fde8b91de0ad7d63316618d12ea40516da63bbffa6eb844198d86",
      "635e50cb2f480cd8b88fd636d1817b458257191927cbc04db77518f32f1daa4f",
      "2afab9b0683ddb9c8619084799dc2005ad0312d7f9e6538ce9a37be16eb65f30")),
    ("fig3", lambda: get_instance("fig3").graph,
     ("2c73fd3f5ce5f4e7406e7cd451b605737440128e68263f4e44e57e9b756e2ac6",
      "e643b7c30b6cc04e3dec3b06b268bc6e46e430ec1ab49d1bc459c039f9205e11",
      "50f26ea79221db46819eac2f13bcc751dc7c6f16b86a93d2c3fc81c672c14d9a")),
    ("fig4-no", lambda: get_instance("fig4-no").graph,
     ("f7d81825c0e423cce32585f1f508d29174f03037591248bba35f0571b814dcb8",
      "7732a126159151b62a7507e901bd5efbd06641ef301a50ca1ae462a20ba020a6",
      "316d74f620190b0fdb73c985f462462e9b5ac2acfaf1b7aa24fbb53e152afc96")),
    ("fig4-yes", lambda: get_instance("fig4-yes").graph,
     ("ac8f36cee9b550d2c5bb1aae5101abdee4c04999bad7bd759f77a7a8f3b1c506",
      "7732a126159151b62a7507e901bd5efbd06641ef301a50ca1ae462a20ba020a6",
      "316d74f620190b0fdb73c985f462462e9b5ac2acfaf1b7aa24fbb53e152afc96")),
    ("laman-fig6", lambda: get_instance("laman-fig6").graph,
     ("77e4792417fbb2194bb1e2e6b3729c1aa7d0c67942e4c23b552d2d4e7aafc4ee",
      "a791995e92382ec7d970df6e92b3347fef64d86e2b1759b2dfcaf3e50b09409e",
      "ebf7d16f53e0d8b118e7e762a4cc6f5ad81ef6b63a547e21baa5043c8013e183")),
    ("t-graph", lambda: get_instance("t-graph").graph,
     ("862c8febb7ae195100ddad82102c40b518ca873fa3592691063995e9ea90bf7a",
      "52b84c20513bca62461effc2224c48e77689229022434bd3681a89f5b058d739",
      "72210286e8e52ce049b6663a0ee39bdfd711d25dd86bbbe17fe0e988a90a621e")),
    ("regular4-n1500-s101", lambda: gen_regular(1500, 4, 101),
     ("8c61add5f8041b4dcc245fa92d745a3b020630a5bcac1bbf008e728b4bbfa0aa",
      "9da64b234f17175410d50f8f1621ccb02ad13c2f3c39c9ade1f7ed9d5abf2013",
      "43ab5e9b7f3310cc9b186017d8d3f0783da1e50ee830c678c4255e747bdb3d23")),
    ("plane-n500-s1", lambda: gen_random_plane_deg4(500, 1),
     ("e2afcebeaa82d6d9f23c7ce5697e61bbe843ce9b9346ccb6e0ebeb2cc423695d",
      "96ab92af60e0fc82edf13cd40b57747ec74cf535dc343cab42279fe9eb8f3d20",
      "7083503d0b951d139c1b466fe69c08111f96f84d90c5d5e91ef305c30533e5d2")),
    ("plane-n500-s2", lambda: gen_random_plane_deg4(500, 2),
     ("52c990ff46cefdb1aa58cfef717c850f171134f851d0f6e521a7b5f5e502355e",
      "705c37f30c6af5d1a71f2ad4a0c9e035f6390e87d2e9b3d84bb7d775f0c416a2",
      "613cc922edae162bb5e3e876bfa0453da003ea0aa2cca3b774fcd9cd3abe7981")),
    ("plane-n500-s3", lambda: gen_random_plane_deg4(500, 3),
     ("e5251927ac3eef2843a0b03ea0b7b5af4735e2a6b21799addec2124c4e100022",
      "3d6b4cce3ad1e173640ef135989ca9f300821e3e519c27a79aa0edad0b7b2dc9",
      "d09bbaa5170c518450a15acd740d477ac23b04628ae39d50e1b537352d1b7dec")),
    ("plane-n1000-s0", lambda: gen_random_plane_deg4(1000, 0),
     ("6137a7696ebac184e79925d137c77667af69bfeb7b162df81c371c3f8de418b1",
      "fe448839a77ab5717ab62dc0bbd36c68b019e3a997b86e5fa4915888bbae34bb",
      "00bba87714a13a61a1aab9c2f465e9c0794b8f8005da79ebd3041a38c44f13d5")),
    ("loops", _loops_and_a_degree_2_vertex,
     ("70cd8dad3574a59fc48adef116c901eb63dbb0e5935afc6b3566879b347d869a",
      "d07cddefc8717d7de184b007130d8d1f67d9b7905b939092b29d201244b9975b",
      "f25f80ac5e1d0580edfcaf39d5963fce52cab30db9ba63ee5415831da3928cdc")),
]


@pytest.mark.parametrize(
    "build, digests",
    [p[1:] for p in PINNED_ALLOCATIONS],
    ids=[p[0] for p in PINNED_ALLOCATIONS],
)
def test_medial_and_allocation_bytes_are_pinned(build, digests):
    g = build()
    med, provenance = medial_graph(g)
    texts = serialize_multigraph(med), repr(provenance), serialize_cover(optimal_allocation(g)[0])
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests
