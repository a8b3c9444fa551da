"""Line-based instance and cover file formats.

InstanceFile: `#` comments; optional `v <id>` lines; `e <eid> <u> <v>`
per edge; `rot <v>: <eid> ...` per vertex (a self-loop id appears twice);
topological graphs add `x <xid> <e> <f> <bit>` crossing records and
`seq <e>: <xid> ...` per crossed edge.  Canonical serialization lists
vertices, then edges, then rotations (then crossings and sequences),
ascending ids, single spaces, newline-terminated.

CoverFile: `angle <v> <start-slot> <width>` lines ascending by (v, start).
"""

from __future__ import annotations

from itertools import chain

from .core import Angle, AngleAssignment, RotationGraph
from .transform import Crossing, Multigraph, TopologicalGraph


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
    crossings: dict[int, Crossing] = {}
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
                crossings[xid] = Crossing(e, f, bit)
            elif kind == "seq" and len(toks) >= 2 and toks[1].endswith(":"):
                e = int(toks[1][:-1])
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
        tg = TopologicalGraph(g, crossings, sequences)
        issues = tg.validate()
        if issues:
            raise FormatError("; ".join(issues))
        return tg
    return g


def serialize_instance(g: RotationGraph | TopologicalGraph) -> str:
    tg = g if isinstance(g, TopologicalGraph) else None
    if tg is not None:
        g = tg.base
    lines = [f"v {v}" for v in sorted(g.vertices)]
    for e in sorted(g.edges):
        u, v = g.edges[e]
        lines.append(f"e {e} {u} {v}")
    for v in sorted(g.vertices):
        rot = g.rotation.get(v, ())
        lines.append(f"rot {v}: {' '.join(str(e) for e in rot)}".rstrip())
    if tg is not None:
        for x in sorted(tg.crossings):
            cr = tg.crossings[x]
            lines.append(f"x {x} {cr.e} {cr.f} {cr.bit}")
        for e in sorted(tg.sequences):
            seq = " ".join(str(x) for x in tg.sequences[e])
            lines.append(f"seq {e}: {seq}".rstrip())
    return "\n".join(lines) + "\n"


def serialize_multigraph(m: Multigraph) -> str:
    """Rotation-free output for medial and blowup results."""
    lines = [f"v {v}" for v in sorted(m.vertices)]
    for e in sorted(m.edges):
        u, v = m.edges[e]
        lines.append(f"e {e} {u} {v}")
    return "\n".join(lines) + "\n"


def instance_to_multigraph(g: RotationGraph) -> Multigraph:
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
    lines = []
    for ang in sorted(asg.all_angles(), key=lambda a: (a.vertex, a.start)):
        lines.append(f"angle {ang.vertex} {ang.start} {ang.width}")
    return "\n".join(lines) + ("\n" if lines else "")
