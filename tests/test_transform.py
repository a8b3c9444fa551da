import hashlib

import pytest

from anglecover.core import UnsupportedInputError, trace_faces
from anglecover.fileio import parse_instance, serialize_instance
from anglecover.transform import (
    Crossing,
    TopologicalGraph,
    blowup2,
    blowup_vertex,
    build_gmat,
    medial_graph,
    planarize,
)
from conftest import rotation_graph


def square():
    return rotation_graph(
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        {0: (3, 0), 1: (0, 1), 2: (1, 2), 3: (2, 3)},
    )


def test_planarize_no_crossings_is_relabelled_identity():
    g = square()
    out = planarize(TopologicalGraph(g, {}, {}))
    assert len(out.vertices) == 4 and len(out.edges) == 4
    assert trace_faces(out).genus == trace_faces(g).genus


def test_planarize_single_crossing():
    # Two disjoint edges crossing once.
    g = rotation_graph([(0, 1), (2, 3)], {0: (0,), 1: (0,), 2: (1,), 3: (1,)})
    tg = TopologicalGraph(g, {0: Crossing(0, 1, 0)}, {0: (0,), 1: (0,)})
    out = planarize(tg)
    assert len(out.vertices) == 5 and len(out.edges) == 4
    w = max(out.vertices)
    assert out.deg(w) == 4
    assert trace_faces(out).genus == 0


# sha256 of serialize_instance of each planarized instance: a loop that
# crosses an edge away from its vertex (its two darts take pieces 0 and
# 1: `rot 0: 0 2`), and two disjoint edges crossing once.
PINNED_PLANARIZATIONS = [
    ("crossed-loop",
     "e 0 0 0\ne 1 1 2\nrot 0: 0 0\nrot 1: 1\nrot 2: 1\nx 0 0 1 0\nseq 0: 0\nseq 1: 0\n",
     "7a56f517a68afed23102c1727f9e7107af639f7d2b87cc78c7f21c22b62f46b9"),
    ("cross",
     "e 0 0 1\ne 1 2 3\nrot 0: 0\nrot 1: 0\nrot 2: 1\nrot 3: 1\nx 0 0 1 0\nseq 0: 0\nseq 1: 0\n",
     "43e8a57ec5bf2fc43b62c7ff8c44df0d58dfd12aa1103af755996ea2006c11f3"),
]


@pytest.mark.parametrize(
    "text, digest",
    [p[1:] for p in PINNED_PLANARIZATIONS],
    ids=[p[0] for p in PINNED_PLANARIZATIONS],
)
def test_planarize_bytes_are_pinned(text, digest):
    out = serialize_instance(planarize(parse_instance(text)))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_planarize_rejects_shared_endpoint_crossing():
    g = rotation_graph([(0, 1), (1, 2)], {0: (0,), 1: (0, 1), 2: (1,)})
    tg = TopologicalGraph(g, {0: Crossing(0, 1, 0)}, {0: (0,), 1: (0,)})
    with pytest.raises(UnsupportedInputError):
        planarize(tg)


def test_planarize_rejects_bad_occurrence_count():
    g = rotation_graph([(0, 1), (2, 3)], {0: (0,), 1: (0,), 2: (1,), 3: (1,)})
    tg = TopologicalGraph(g, {0: Crossing(0, 1, 0)}, {0: (0,)})
    with pytest.raises(UnsupportedInputError):
        planarize(tg)


def test_planarize_rejects_self_crossing():
    g = rotation_graph([(0, 1)], {0: (0,), 1: (0,)})
    tg = TopologicalGraph(g, {0: Crossing(0, 0, 0)}, {0: (0, 0)})
    with pytest.raises(UnsupportedInputError):
        planarize(tg)


def test_medial_square():
    med, prov = medial_graph(square())
    # Four medial vertices (the edges), one medial edge per corner.
    assert med.vertices == (0, 1, 2, 3)
    assert len(med.edges) == 4
    for mid, (v, (s, t)) in prov.items():
        g = square()
        assert set(med.edges[mid]) == {g.rotation[v][s], g.rotation[v][t]}


def test_medial_degree2_parallels_deduped():
    g = rotation_graph([(0, 1), (1, 2)], {0: (0,), 1: (0, 1), 2: (1,)})
    med, _ = medial_graph(g)
    assert len(med.edges) == 1  # both slot pairs at vertex 1 coincide


def test_build_gmat_counts():
    g = square()
    b = build_gmat(g)
    assert len(b.left) == 4 and len(b.right) == 8
    assert len(b.edges) == 4 * 4  # 2 endpoints x 2 copies per edge


def test_blowup_vertex_encoding():
    assert blowup_vertex(3, 1) == 6 and blowup_vertex(3, 2) == 7


def test_blowup2_counts():
    g = square()
    b = blowup2(g)
    assert len(b.vertices) == 8 and len(b.edges) == 16


def test_blowup2_rejects_loops():
    g = rotation_graph([(0, 0)], {0: (0, 0)})
    with pytest.raises(UnsupportedInputError):
        blowup2(g)
