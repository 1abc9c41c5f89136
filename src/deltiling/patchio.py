"""Patch interchange format: exact, versioned, round-trip safe.

A patch file is JSON with a fixed key order.  Tile positions are stored
as exact data only: the rotation exponent r of zeta_n^r and the
translation as an integer coefficient vector over the cyclotomic power
basis with a common denominator.  A parallel "shadow" block carries float
corner coordinates for consumers that do not implement the field
arithmetic; the shadow is derived data and ignored on import.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .field import field_for_order
from .substitution import INT64_SAFE, Patch, max_abs, prototile_ids

FORMAT = "deltoid-patch"
VERSION = 1


class SchemaError(ValueError):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _tile_columns(patch):
    """(names, r, nums, dens) per tile, each translation normalised on its
    own; nums is an int64 array, the rest are lists."""
    names, _ = prototile_ids(patch.d)
    ids, r, t, den = patch.columns
    dens = np.full(len(ids), den, dtype=np.int64)
    if den != 1:
        g = np.gcd(np.gcd.reduce(t, axis=1), den)
        t, dens = t // g[:, None], dens // g
    return ([names[i] for i in ids.tolist()], r.tolist(), t, dens.tolist())


def _distinct(values):
    """(uniq, index): the distinct floats of values, told apart by their
    bits, with values = uniq[index]."""
    bits, index = np.unique(np.ascontiguousarray(values).view(np.int64),
                            return_inverse=True)
    return bits.view(np.float64).tolist(), index.reshape(values.shape)


def _shadow(patch, precision):
    """(rounded, index): the N x 6 shadow floats (x, y of each corner) are
    rounded[index]; Python `round` (np.round gives other digits) runs once
    per distinct float."""
    z = patch.corner_values()
    uniq, index = _distinct(np.stack([z.real, z.imag], axis=-1)
                            .reshape(len(z), 6))
    return [round(x, precision) for x in uniq], index


def _document(patch, manifest, precision, tiles, corners):
    f = field_for_order(patch.d)
    return {
        "format": FORMAT,
        "version": VERSION,
        "d": patch.d,
        "field_order": f.n,
        "field_degree": f.degree,
        "manifest": manifest or {},
        "tiles": tiles,
        "shadow": {"precision": precision, "corners": corners},
    }


def patch_document(patch: Patch, manifest=None, precision=12):
    names, r, nums, dens = _tile_columns(patch)
    tiles = [{"name": n, "r": rk, "t": {"num": num, "den": den}}
             for n, rk, num, den in zip(names, r, nums.tolist(), dens)]
    rounded, index = _shadow(patch, precision)
    corners = np.array(rounded)[index].reshape(len(patch), 3, 2).tolist()
    return _document(patch, manifest, precision, tiles, corners)


def _tiles_block(patch):
    """The "tiles" items as json.dumps(indent=1) prints them at depth 1."""
    names, r, nums, dens = _tile_columns(patch)
    uniq, index = np.unique(nums, return_inverse=True)
    text = np.array([str(v) for v in uniq.tolist()],
                    dtype=object)[index.reshape(nums.shape)].tolist()
    head = ('  {\n   "name": %s,\n   "r": %d,\n   "t": {\n    "den": %d,\n'
            '    "num": [\n     ')
    sep = ",\n     "
    tail = "\n    ]\n   }\n  }"
    quoted = {n: json.dumps(n) for n in set(names)}
    return ",\n".join(head % (quoted[n], rk, den) + sep.join(num) + tail
                      for n, rk, den, num in zip(names, r, dens, text))


def _corners_block(patch, precision):
    """The shadow "corners" items as json.dumps(indent=1) prints them at
    depth 2."""
    rounded, index = _shadow(patch, precision)
    text = np.array([repr(x) for x in rounded], dtype=object)[index].tolist()
    corner = "    [\n     %s,\n     %s\n    ]"
    tile = "   [\n" + ",\n".join([corner] * 3) + "\n   ]"
    return ",\n".join(tile % tuple(row) for row in text)


#: tiles per block of text that `export_patch` writes at a time
CHUNK = 8192


def _write_blocks(fh, patch, block):
    """Write block(part) for the consecutive parts of CHUNK tiles of the
    patch, joined by commas."""
    ids, r, t, den = patch.columns
    for a in range(0, len(ids), CHUNK):
        s = slice(a, a + CHUNK)
        part = Patch.from_columns(patch.d, ids[s], r[s], t[s], den)
        fh.write((",\n" if a else "") + block(part))


def export_patch(patch: Patch, path, manifest=None, precision=12):
    """Write the patch file: the bytes of json.dumps(patch_document(patch),
    indent=1, sort_keys=True) + newline, without building the document.

    The small header goes through json.dumps; the tiles and shadow corners
    are printed from line templates, CHUNK tiles at a time, and written
    between its parts.
    """
    text = json.dumps(_document(patch, manifest, precision, [], []),
                      indent=1, sort_keys=True)
    with open(path, "w") as fh:
        if len(patch):
            # "shadow" and "tiles" sort after "manifest": the last matches
            # are the top-level keys
            text, _, rest = text.rpartition('"tiles": []')
            text, _, mid = text.rpartition('"corners": []')
            fh.write(text + '"corners": [\n')
            _write_blocks(fh, patch, lambda c: _corners_block(c, precision))
            fh.write("\n  ]" + mid + '"tiles": [\n')
            _write_blocks(fh, patch, _tiles_block)
            text = "\n ]" + rest
        fh.write(text + "\n")


def import_patch(path):
    """(patch, manifest) from a patch file; exact data only is trusted."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise SchemaError(f"not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise SchemaError(f"unsupported version {doc.get('version')!r}")
    d = doc.get("d")
    if not _is_int(d) or d < 5:
        raise SchemaError(f"bad symmetry order {d!r}")
    f = field_for_order(d)
    if doc.get("field_order") != f.n or doc.get("field_degree") != f.degree:
        raise SchemaError("field parameters do not match the declared d")
    _, index = prototile_ids(d)
    records = doc.get("tiles", [])
    if not isinstance(records, list):
        raise SchemaError("tiles must be a list")
    ids, rs, nums, dens = [], [], [], []
    for rec in records:
        try:
            name, r, t = rec["name"], rec["r"], rec["t"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed tile record: {exc}")
        if not isinstance(name, str) or name not in index:
            raise SchemaError(f"unknown prototile {name!r} for d={d}")
        if not _is_int(r):
            raise SchemaError(f"rotation exponent must be an integer: {r!r}")
        try:
            num, den = t["num"], t["den"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed field element: {exc}")
        if not _is_int(den) or den <= 0:
            raise SchemaError("denominator must be a positive integer: "
                              f"{den!r}")
        if not isinstance(num, list):
            raise SchemaError("numerator must be a list of integers")
        if len(num) != f.degree:
            raise SchemaError("coefficient vector length mismatch")
        ids.append(index[name])
        rs.append(r % f.n)
        nums.append(num)
        dens.append(den)
    if not {type(c) for c in itertools.chain.from_iterable(nums)} <= {int}:
        raise SchemaError("numerator must be a list of integers")
    common = math.lcm(*dens)
    if common > 1:
        nums = [num if den == common else [c * (common // den) for c in num]
                for num, den in zip(nums, dens)]
    try:
        t = np.array(nums, dtype=np.int64).reshape(len(nums), f.degree)
    except OverflowError:
        t = None
    if t is None or common >= INT64_SAFE or max_abs(t) >= INT64_SAFE:
        raise SchemaError("coefficients and denominators must be below 2**62")
    return (Patch.from_columns(d, np.array(ids, dtype=np.int16),
                               np.array(rs, dtype=np.int32), t, common),
            doc.get("manifest", {}))
