"""Line-based instance and cover file formats.

InstanceFile: `#` comments; optional `v <id>` lines; `e <eid> <u> <v>`
per edge; `rot <v>: <eid> ...` per vertex (a self-loop id appears twice);
topological graphs add `x <xid> <e> <f> <bit>` crossing records and
`seq <e>: <xid> ...` per crossed edge.  Canonical serialization lists
vertices, then edges, then rotations (then crossings and sequences),
ascending ids, single spaces, newline-terminated; an empty graph is the
empty string.  The `v`, `e` and `rot` blocks are each written by one `%`
format over a flat tuple of their fields (`_vertex_edge_blocks` serves
`serialize_multigraph` too), which costs far less than one f-string per
line at 10^5 vertices; crossings and sequences are written line by line.

CoverFile: `angle <v> <start-slot> <width>` lines ascending by (v, start).

The topological and rotation-free types (`TopologicalGraph`, `Multigraph`
in the annotations) live in `transform`, which is imported only when a
file has crossing records or a Multigraph is built.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

from .core import Angle, AngleAssignment, RotationGraph


class FormatError(ValueError):
    pass


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def parse_instance(text: str) -> RotationGraph | TopologicalGraph:
    """Parse an InstanceFile; returns a TopologicalGraph when crossing
    records are present.  Vertices missing a `rot` line get the default
    rotation: incident edges ascending by id, loops twice."""
    vertices: set[int] = set()
    edges: dict[int, tuple[int, int]] = {}
    rotation: dict[int, tuple[int, ...]] = {}
    crossings: dict[int, tuple[int, int, int]] = {}
    sequences: dict[int, tuple[int, ...]] = {}
    try:
        for lineno, toks in _tokens(text):
            kind = toks[0]
            if kind == "e" and len(toks) == 4:
                eid, u, v = int(toks[1]), int(toks[2]), int(toks[3])
                if eid in edges:
                    raise FormatError(f"line {lineno}: duplicate edge id {eid}")
                edges[eid] = (u, v)
            elif kind == "rot" and len(toks) >= 2 and toks[1].endswith(":"):
                v = int(toks[1][:-1])
                if v in rotation:
                    raise FormatError(
                        f"line {lineno}: duplicate rotation for vertex {v}"
                    )
                rotation[v] = tuple(map(int, toks[2:]))
            elif kind == "v" and len(toks) == 2:
                vertices.add(int(toks[1]))
            elif kind == "x" and len(toks) == 5:
                xid, e, f, bit = map(int, toks[1:])
                if xid in crossings:
                    raise FormatError(f"line {lineno}: duplicate crossing id {xid}")
                crossings[xid] = (e, f, bit)
            elif kind == "seq" and len(toks) >= 2 and toks[1].endswith(":"):
                e = int(toks[1][:-1])
                if e in sequences:
                    raise FormatError(f"line {lineno}: duplicate sequence for edge {e}")
                sequences[e] = tuple(map(int, toks[2:]))
            else:
                raise FormatError(f"line {lineno}: cannot parse {' '.join(toks)!r}")
    except ValueError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(str(exc)) from exc
    vertices.update(rotation)
    vertices.update(chain.from_iterable(edges.values()))
    missing = sorted(vertices - rotation.keys())
    if missing:
        default: dict[int, list[int]] = {v: [] for v in missing}
        for e in sorted(edges):
            for w in edges[e]:  # a loop lands twice in a row
                if w in default:
                    default[w].append(e)
        rotation.update((v, tuple(slots)) for v, slots in default.items())
    g = RotationGraph(tuple(sorted(vertices)), edges, rotation)
    if crossings or sequences:
        from .transform import Crossing, TopologicalGraph

        crossed = {x: Crossing(*rec) for x, rec in crossings.items()}
        tg = TopologicalGraph(g, crossed, sequences)
        issues = tg.validate()
        if issues:
            raise FormatError("; ".join(issues))
        return tg
    return g


def _vertex_edge_blocks(vertices: list[int], edges: dict[int, tuple[int, int]]) -> str:
    """The `v` lines of `vertices` (ascending) and the `e` lines of `edges`
    by ascending id, each block one `%` over a flat tuple."""
    eids = sorted(edges)
    ends = [edges[e] for e in eids]
    flat = [None] * (3 * len(eids))
    flat[::3] = eids
    flat[1::3] = [u for u, _ in ends]
    flat[2::3] = [v for _, v in ends]
    return (
        ("v %s\n" * len(vertices)) % tuple(vertices)
        + ("e %s %s %s\n" * len(eids)) % tuple(flat)
    )


def serialize_instance(g: RotationGraph | TopologicalGraph) -> str:
    tg = None if isinstance(g, RotationGraph) else g
    if tg is not None:
        g = tg.base
    vertices, rotation = sorted(g.vertices), g.rotation
    rows = [rotation.get(v, ()) for v in vertices]
    rot_line = {k: "rot %s:" + " %s" * k + "\n" for k in set(map(len, rows))}
    flat = []
    for v, row in zip(vertices, rows):
        flat.append(v)
        flat += row
    text = _vertex_edge_blocks(vertices, g.edges)
    text += "".join([rot_line[len(row)] for row in rows]) % tuple(flat)
    if tg is None:
        return text
    lines = []
    for x in sorted(tg.crossings):
        cr = tg.crossings[x]
        lines.append(f"x {x} {cr.e} {cr.f} {cr.bit}\n")
    for e in sorted(tg.sequences):
        seq = " ".join(str(x) for x in tg.sequences[e])
        lines.append(f"seq {e}: {seq}".rstrip() + "\n")
    return text + "".join(lines)


def serialize_multigraph(m: Multigraph) -> str:
    """Rotation-free output for medial and blowup results."""
    return _vertex_edge_blocks(sorted(m.vertices), m.edges)


def instance_to_multigraph(g: RotationGraph) -> Multigraph:
    from .transform import Multigraph

    return Multigraph(tuple(sorted(g.vertices)), dict(g.edges))


def parse_cover(text: str) -> AngleAssignment:
    angles: dict[int, list[Angle]] = {}
    for lineno, toks in _tokens(text):
        if toks[0] != "angle" or len(toks) != 4:
            raise FormatError(f"line {lineno}: expected 'angle <v> <start> <width>'")
        try:
            v, start, width = (int(t) for t in toks[1:])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        angles.setdefault(v, []).append(Angle(v, start, width))
    return AngleAssignment.build(angles)


def serialize_cover(asg: AngleAssignment) -> str:
    """One `angle` line per angle, by vertex and then start."""
    angles = sorted(asg.all_angles(), key=attrgetter("vertex", "start"))
    flat = tuple(chain.from_iterable(map(attrgetter("vertex", "start", "width"), angles)))
    return ("angle %s %s %s\n" * len(angles)) % flat
