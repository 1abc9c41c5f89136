"""Patch interchange format: exact, versioned, round-trip safe.

A patch file is JSON with a fixed key order.  Tile positions are stored
as exact data only: the rotation exponent r of zeta_n^r and the
translation as an integer coefficient vector over the cyclotomic power
basis with a common denominator.  A parallel "shadow" block carries float
corner coordinates for consumers that do not implement the field
arithmetic; the shadow is derived data and ignored on import.
"""

from __future__ import annotations

import json

from .field import field_for_order
from .prototiles import prototile_catalog
from .substitution import Isometry, Patch, Tile

FORMAT = "deltoid-patch"
VERSION = 1


class SchemaError(ValueError):
    pass


def _elem_out(e):
    return {"num": list(e.num), "den": e.den}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _elem_in(f, rec):
    try:
        num, den = rec["num"], rec["den"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed field element: {exc}")
    if not _is_int(den) or den <= 0:
        raise SchemaError(f"denominator must be a positive integer: {den!r}")
    if not isinstance(num, list) or not all(_is_int(c) for c in num):
        raise SchemaError("numerator must be a list of integers")
    try:
        return f.from_coeffs(num, den)
    except ValueError as exc:
        raise SchemaError(str(exc))


def patch_document(patch: Patch, manifest=None, precision=12):
    f = field_for_order(patch.d)
    tiles = []
    shadow = []
    for t in patch.tiles:
        tiles.append({"name": t.name, "r": t.iso.r,
                      "t": _elem_out(t.iso.t)})
        zs = [c.cvalue() for c in t.corners(patch.d)]
        shadow.append([[round(z.real, precision), round(z.imag, precision)]
                       for z in zs])
    return {
        "format": FORMAT,
        "version": VERSION,
        "d": patch.d,
        "field_order": f.n,
        "field_degree": f.degree,
        "manifest": manifest or {},
        "tiles": tiles,
        "shadow": {"precision": precision, "corners": shadow},
    }


def export_patch(patch: Patch, path, manifest=None, precision=12):
    doc = patch_document(patch, manifest, precision)
    data = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return doc


def import_patch(path):
    """(patch, manifest) from a patch file; exact data only is trusted."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}")
    if doc.get("format") != FORMAT:
        raise SchemaError(f"not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise SchemaError(f"unsupported version {doc.get('version')!r}")
    d = doc.get("d")
    if not isinstance(d, int) or d < 5:
        raise SchemaError(f"bad symmetry order {d!r}")
    f = field_for_order(d)
    if doc.get("field_order") != f.n or doc.get("field_degree") != f.degree:
        raise SchemaError("field parameters do not match the declared d")
    names = {p.name for p in prototile_catalog(d).prototiles}
    tiles = []
    for rec in doc.get("tiles", []):
        try:
            name, r, t = rec["name"], rec["r"], rec["t"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed tile record: {exc}")
        if not isinstance(name, str) or name not in names:
            raise SchemaError(f"unknown prototile {name!r} for d={d}")
        if not _is_int(r):
            raise SchemaError(f"rotation exponent must be an integer: {r!r}")
        tiles.append(Tile(name, Isometry(r % f.n, _elem_in(f, t))))
    return Patch(d, tiles), doc.get("manifest", {})
