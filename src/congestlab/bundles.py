"""On-disk instance bundles and canonical JSON.

A bundle is a directory with three files: graph.txt (canonical edge
list), meta.json (family, side split, cut, labels, blocks, structure),
and inputs.json (the bit pair, hex-encoded).  Everything is written
through canonical_json_bytes, so building the same instance twice
yields byte-identical bundles; reports elsewhere in the package reuse
the same encoder for the same reason.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bitstrings import bits_to_hex, hex_to_bits
from .families import FamilyInstance, InputPair
from .graphs import Graph, crossing_edges

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json_bytes",
    "read_bundle",
    "read_split",
    "write_bundle",
]


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON: sorted keys, fixed separators, no NaN, one
    trailing newline.  Equal objects serialize to equal bytes."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def write_bundle(inst: FamilyInstance, directory: str | Path) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "graph.txt").write_text(inst.graph.to_text())
    meta = {
        "schema_version": SCHEMA_VERSION,
        "family": inst.family,
        "params": inst.params,
        "n_vertices": inst.graph.n,
        "side_a": list(inst.side_a),
        "side_b": list(inst.side_b),
        "cut_edges": [list(e) for e in sorted(inst.cut_edges)],
        "labels": {str(v): name for v, name in inst.labels.items()},
        "blocks": {key: list(vs) for key, vs in inst.blocks.items()},
        "meta": inst.meta,
    }
    (d / "meta.json").write_bytes(canonical_json_bytes(meta))
    inputs = {
        "schema_version": SCHEMA_VERSION,
        "bits": inst.pair.length,
        "x_hex": bits_to_hex(inst.pair.x),
        "y_hex": bits_to_hex(inst.pair.y),
    }
    (d / "inputs.json").write_bytes(canonical_json_bytes(inputs))
    return d


def _checked_side_a(meta: dict, g: Graph) -> tuple[int, ...]:
    """Side A of a bundle's meta, after checking that the schema is
    supported and that side_a and side_b split g's vertices."""
    if meta["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {meta['schema_version']}")
    side_a = tuple(meta["side_a"])
    ids = side_a + tuple(meta["side_b"])
    if len(ids) != g.n or set(ids) != set(range(g.n)):
        raise ValueError(f"side_a and side_b do not split the {g.n} graph vertices")
    return side_a


def _check_cut(meta: dict, cut: frozenset) -> None:
    """ValueError unless the stored cut is *cut*, the one the graph and
    side A give."""
    if frozenset(tuple(e) for e in meta["cut_edges"]) != cut:
        raise ValueError("stored cut_edges disagree with the graph and side split")


class _StoredObject(dict):
    """A JSON object read from *path*; a missing key is a ValueError naming it."""

    def __init__(self, path: Path):
        super().__init__(json.loads(path.read_text(encoding="utf-8")))
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"missing key {key} in {self.path}")


def read_split(path: str | Path, g: Graph) -> tuple[tuple[int, ...], frozenset]:
    """Side A and the cut stored in a bundle directory (or its meta.json),
    checked against *g* as read_bundle checks them; ValueError if they
    do not belong to g or a key is missing."""
    p = Path(path)
    if p.is_dir():
        p = p / "meta.json"
    try:
        meta = _StoredObject(p)
        side_a = _checked_side_a(meta, g)
        cut = crossing_edges(g, side_a)
        _check_cut(meta, cut)
    except TypeError as exc:
        raise ValueError(f"malformed {p}: {exc}") from exc
    return side_a, cut


def read_bundle(directory: str | Path) -> FamilyInstance:
    """The instance stored in a bundle directory, checked as read_split
    checks a split; a missing key is named with its file."""
    d = Path(directory)
    g = Graph.from_text((d / "graph.txt").read_text())
    meta = _StoredObject(d / "meta.json")
    inputs = _StoredObject(d / "inputs.json")
    pair = InputPair(
        x=hex_to_bits(inputs["x_hex"], inputs["bits"]),
        y=hex_to_bits(inputs["y_hex"], inputs["bits"]),
    )
    inst = FamilyInstance(
        family=meta["family"],
        params=meta["params"],
        pair=pair,
        graph=g,
        side_a=_checked_side_a(meta, g),
        labels={int(v): name for v, name in meta["labels"].items()},
        blocks={key: tuple(vs) for key, vs in meta["blocks"].items()},
        meta=meta["meta"],
    )
    _check_cut(meta, inst.cut_edges)
    return inst
