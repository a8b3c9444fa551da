import hashlib

import pytest

from anglecover.cli import main
from anglecover.core import RotationGraph, UnsupportedInputError, trace_faces
from anglecover.fileio import serialize_instance
from anglecover.instances import gen_random_plane_deg4, get_instance
from anglecover.solve import oracle_solve, solve_deg4
from anglecover.thickness import (
    BlowupDecomposition,
    blowup_decomposition,
    verify_decomposition,
)
from anglecover.transform import blowup2
from conftest import rotation_graph


def square():
    return rotation_graph(
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        {0: (3, 0), 1: (0, 1), 2: (1, 2), 3: (2, 3)},
    )


def solved(g):
    cert = solve_deg4(g)
    assert cert.is_yes
    return cert.assignment


def test_square_decomposition():
    g = square()
    d = blowup_decomposition(g, solved(g))
    assert len(d.h.edges) == 2 * len(g.edges)
    assert trace_faces(d.h).genus == 0
    assert trace_faces(d.h_tilde).genus == 0
    chk = verify_decomposition(g, d)
    assert chk.valid, chk.violations


def test_decomposition_union_is_blowup():
    g = square()
    d = blowup_decomposition(g, solved(g))
    from collections import Counter

    union = Counter()
    for layer in (d.h, d.h_tilde):
        for u, v in layer.edges.values():
            union[frozenset((u, v))] += 1
    want = Counter(frozenset((u, v)) for u, v in blowup2(g).edges.values())
    assert union == want


def test_random_plane_graphs_decompose():
    for seed in range(25):
        g = gen_random_plane_deg4(18, seed)
        cert = solve_deg4(g)
        if not cert.is_yes:
            continue
        d = blowup_decomposition(g, cert.assignment)
        chk = verify_decomposition(g, d)
        assert chk.valid, (seed, chk.violations)


def test_rejects_nonplane_input():
    from conftest import complete_rotation_graph

    g = complete_rotation_graph(5)
    cert = oracle_solve(g)
    assert cert.is_yes
    with pytest.raises(UnsupportedInputError):
        blowup_decomposition(g, cert.assignment)


@pytest.mark.parametrize(
    "pairs", [[(0, 1), (1, 1)], [(0, 1), (1, 2), (1, 0)]], ids=["loop", "parallel"]
)
def test_rejects_non_simple_input(pairs):
    g = rotation_graph(pairs)
    with pytest.raises(UnsupportedInputError, match="^decomposition needs a simple graph$"):
        blowup_decomposition(g, solved(g))


def test_rejects_invalid_cover():
    from anglecover.core import Angle, AngleAssignment

    g = square()
    bad = AngleAssignment.build({0: [Angle(0, 0, 2)]})
    with pytest.raises(UnsupportedInputError):
        blowup_decomposition(g, bad)


def _drop_edge(layer: RotationGraph, eid: int) -> RotationGraph:
    edges = {e: uv for e, uv in layer.edges.items() if e != eid}
    rot = {
        v: [e for e in slots if e != eid]
        for v, slots in layer.rotation.items()
    }
    return RotationGraph.build(layer.vertices, edges, rot)


def test_verify_flags_missing_edge():
    g = square()
    d = blowup_decomposition(g, solved(g))
    tampered = BlowupDecomposition(_drop_edge(d.h, 0), d.h_tilde, d.iso)
    chk = verify_decomposition(g, tampered)
    assert not chk.valid
    assert any("missing" in v for v in chk.violations)


def test_verify_flags_broken_isomorphism():
    g = square()
    d = blowup_decomposition(g, solved(g))
    bad_iso = dict(d.iso)
    bad_iso[0] = bad_iso[2]  # two vertices now collide under the map
    chk = verify_decomposition(g, BlowupDecomposition(d.h, d.h_tilde, bad_iso))
    assert not chk.valid
    assert any("iso" in v for v in chk.violations)


def _swap_slots(layer: RotationGraph, v: int, i: int, j: int) -> RotationGraph:
    rot = dict(layer.rotation)
    slots = list(rot[v])
    slots[i], slots[j] = slots[j], slots[i]
    rot[v] = slots
    return RotationGraph.build(layer.vertices, layer.edges, rot)


def test_verify_flags_positive_genus():
    g = square()
    d = blowup_decomposition(g, solved(g))
    v = next(v for v in d.h.vertices if d.h.deg(v) >= 3)
    h = _swap_slots(d.h, v, 0, 1)  # the same edges, another embedding
    genus = trace_faces(h).genus
    assert genus > 0
    chk = verify_decomposition(g, BlowupDecomposition(h, d.h_tilde, d.iso))
    assert chk.violations == (f"layer H has genus {genus}",)


def _double_edge(layer: RotationGraph, eid: int) -> RotationGraph:
    """The layer plus a parallel copy of edge eid, placed beside it at both
    ends so that the two bound a new face and the genus stays the same."""
    new = max(layer.edges) + 1
    u, w = layer.edges[eid]
    rot = dict(layer.rotation)
    i = rot[u].index(eid) + 1
    rot[u] = rot[u][:i] + (new,) + rot[u][i:]
    j = rot[w].index(eid)
    rot[w] = rot[w][:j] + (new,) + rot[w][j:]
    return RotationGraph.build(layer.vertices, {**layer.edges, new: (u, w)}, rot)


def test_verify_flags_excess_edge():
    g = square()
    d = blowup_decomposition(g, solved(g))
    h, h_tilde = _double_edge(d.h, 0), _double_edge(d.h_tilde, 0)
    assert h_tilde.edges[max(h_tilde.edges)] == tuple(d.iso[x] for x in h.edges[0])
    chk = verify_decomposition(g, BlowupDecomposition(h, h_tilde, d.iso))
    excess = sorted(tuple(sorted(layer.edges[0])) for layer in (h, h_tilde))
    assert chk.violations == (f"union has excess edges {excess}",)


def _covered(n, seed, solver):
    g = gen_random_plane_deg4(n, seed)
    return g, solver(g).assignment


def _fig1():
    inst = get_instance("fig1")
    return inst.graph, inst.cover


# sha256 of serialize_instance(d.h) + serialize_instance(d.h_tilde).  The
# layers' edge ids and rotations follow from the cover alone, so a change
# to how they are built must leave these bytes alone.  The oracle's cover
# of the last graph has an arc that wraps past slot 0.
PINNED_LAYERS = [
    ("deg4(30, 1)", lambda: _covered(30, 1, solve_deg4),
     "12b36f49372b7381a039c21ff199ac4b1897276b63faf6463b30912c9181c559"),
    ("deg4(200, 2)", lambda: _covered(200, 2, solve_deg4),
     "cbd49073846c5252c75ae7f5cd6b1da72c14b97debd5382d108bcb11f9f0171a"),
    ("deg4(2000, 3)", lambda: _covered(2000, 3, solve_deg4),
     "354217441a913dd0e908e60f716cc01fa0eaf37dcbf2a135a3d202799563ffc9"),
    ("fig1", _fig1,
     "5a463424af37c8fdbff84e8a005de36d9302416e6edc92126612f976babf7f95"),
    ("oracle(15, 4)", lambda: _covered(15, 4, oracle_solve),
     "11e654c5e62a4c8a642f63b365fb6437f39d73309594a79a49bb1040d576accc"),
]


@pytest.mark.parametrize(
    "covered, digest", [p[1:] for p in PINNED_LAYERS], ids=[p[0] for p in PINNED_LAYERS]
)
def test_layer_bytes_are_pinned(covered, digest):
    g, asg = covered()
    d = blowup_decomposition(g, asg)
    assert verify_decomposition(g, d).valid
    text = serialize_instance(d.h) + serialize_instance(d.h_tilde)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cli_decompose_output_is_pinned(tmp_path, capsys):
    f = tmp_path / "fig1.inst"
    f.write_text(serialize_instance(get_instance("fig1").graph))
    assert main(["decompose", "--verify", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4b50a5ff052b851a816d1b348b2d874ed01bd9ff9b1ec6743224edd360efefe3"
    )
