"""Patch interchange format: exact, versioned, round-trip safe.

A patch file is JSON with a fixed key order.  Tile positions are stored
as exact data only: the rotation exponent r of zeta_n^r and the
translation as an integer coefficient vector over the cyclotomic power
basis with a common denominator.  A parallel "shadow" block carries float
corner coordinates for consumers that do not implement the field
arithmetic; the shadow is derived data: import uses none of its
numbers.

Export prints the file without building the JSON document: each block of
CHUNK tile records is one join of strings gathered from a small table of
the integers that occur in it (`_tiles_block`), and each block of CHUNK
shadow corner triples one join gathered from the block's distinct
floats, each printed once, and the fixed layout pieces between them
(`_corners_block`).  The distinct floats are printed as
repr(round(x, precision)) by one numpy kernel, `floattext.round_reprs`:
it rounds x * 10**precision half to even on the exact binary value, the
error of the float product (Dekker's TwoProduct) deciding the ties, and
writes the digits in uint8 arithmetic.  For 1e-4 <= |x| and
|x| * 10**precision < 2**52 that is repr's text, since the rounded
double's ulp is below 10**-precision, so no shorter text rounds to it
(proved in the `floattext` docstring); every other value, and every
precision outside 0..15, is printed by repr(round(x, precision)) one
value at a time.  `patch_document`, the document the file equals,
rounds with Python's `round` per distinct float.

Import reads a file without `json` only if it is, byte for byte, the
export of what was read from it, so the layout is written down once, by
the writer.  A first pass matches the header, loads the manifest, skips
the shadow and reads each tile value at the column of its line where
`export_patch` prints it, BLOCK bytes of the file at a time (`_read`); a
second pass prints the export of that patch into a sink that compares
each block with the file's next bytes (`_canonical_patch`).  Any other
file is read again, whole, by `json`.  Both readers build the patch with
the same value checks.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import re

import numpy as np

from .field import MAX_ORDER, conductor, field_for_order
from .floattext import round_reprs
from .substitution import (INT64_SAFE, Patch, _int_dtype, max_abs,
                           prototile_ids)

FORMAT = "deltoid-patch"
VERSION = 1


class SchemaError(ValueError):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _tile_columns(patch):
    """(ids, r, nums, dens) per tile as int arrays, each translation
    normalised on its own (in int64 when den > 1)."""
    ids, r, t, den = patch.columns
    dens = np.full(len(ids), den, dtype=np.int64)
    if den != 1:
        g = np.gcd(np.gcd.reduce(t, axis=1).astype(np.int64), den)
        t, dens = t // g[:, None], dens // g
    return ids, r, t, dens


def _values(x):
    """(values, index): the ascending list of ints `values` with
    x == values[index]; every int from min to max when max - min is at
    most x.size, else the distinct ones (by a sort)."""
    lo, hi = int(x.min()), int(x.max())
    if hi - lo <= x.size:
        # x - lo can leave a narrow x's dtype
        return list(range(lo, hi + 1)), np.subtract(x, lo, dtype=np.intp)
    values, index = np.unique(x, return_inverse=True)
    return values.tolist(), index.reshape(x.shape)


def _shadow(patch):
    """(uniq, index): the N x 6 shadow floats (x, y of each corner) are
    uniq[index], the distinct floats told apart by their bits."""
    z = patch.corner_values()
    values = np.stack([z.real, z.imag], axis=-1).reshape(len(z), 6)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), index.reshape(values.shape)


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
    names, _ = prototile_ids(patch.d)
    ids, r, nums, dens = _tile_columns(patch)
    tiles = [{"name": names[i], "r": rk, "t": {"num": num, "den": den}}
             for i, rk, num, den in zip(ids.tolist(), r.tolist(),
                                        nums.tolist(), dens.tolist())]
    uniq, index = _shadow(patch)
    # Python `round` (np.round gives other digits), once per distinct float
    rounded = np.array([round(x, precision) for x in uniq.tolist()])
    corners = rounded[index].reshape(len(patch), 3, 2).tolist()
    return _document(patch, manifest, precision, tiles, corners)


def _tiles_block(patch):
    """The "tiles" items as json.dumps(indent=1) prints them at depth 1.

    Each record is printed as D + 4 tokens: its name, r and den line
    pieces, its D coefficients (each with the text that follows it) and
    the ",\n" between records.  The pieces come from tables of the values
    that occur (`_values`), so one join over a gather of a token matrix
    prints every record."""
    names, _ = prototile_ids(patch.d)
    ids, r, nums, dens = _tile_columns(patch)
    coef, ci = _values(nums)
    name, ni = _values(ids)
    rv, ri = _values(r)
    denv, di = _values(dens)
    vocab = ([f"{c},\n     " for c in coef]
             + [f"{c}\n    ]\n   }}\n  }}" for c in coef]
             + ['  {\n   "name": %s,\n   "r": ' % json.dumps(names[i])
                for i in name]
             + ['%d,\n   "t": {\n    "den": ' % x for x in rv]
             + ['%d,\n    "num": [\n     ' % x for x in denv] + [",\n"])
    k = len(coef)
    offsets = np.cumsum([2 * k, len(name), len(rv), len(denv)])
    tok = np.empty((len(ids), nums.shape[1] + 4), dtype=np.intp)
    tok[:, 0] = ni + offsets[0]
    tok[:, 1] = ri + offsets[1]
    tok[:, 2] = di + offsets[2]
    tok[:, 3:-2] = ci[:, :-1]
    tok[:, -2] = ci[:, -1] + k
    tok[:, -1] = offsets[3]
    # the last record has no ",\n" after it
    return "".join(np.array(vocab, dtype=object)[tok.ravel()[:-1]].tolist())


#: the text around the six numbers of a shadow corner triple, as
#: json.dumps(indent=1) prints it at depth 2: before x0, between x and y,
#: between two corners and after y2
_TRIPLE = (b"   [\n    [\n     ", b",\n     ", b"\n    ],\n    [\n     ",
           b"\n    ]\n   ]")


def _corners_block(patch, precision):
    """The shadow "corners" items as json.dumps(indent=1) prints them at
    depth 2.

    Each triple is printed as 14 tokens: its six numbers, the seven
    layout pieces around them (from `_TRIPLE`) and the ",\n" between
    triples.  The numbers come from the table of the block's distinct
    floats (`_shadow`), each printed as repr(round(x, precision)) by one
    numpy kernel (`floattext.round_reprs`), so, as in `_tiles_block`, one
    join over a gather of a token matrix prints every triple."""
    uniq, index = _shadow(patch)
    k = len(uniq)
    vocab = round_reprs(uniq, precision) + list(_TRIPLE) + [b",\n"]
    head, pair, turn, tail, comma = range(k, k + 5)
    tok = np.empty((len(index), 14), dtype=np.intp)
    tok[:, 1:13:2] = index
    tok[:, 0:13:2] = [head, pair, turn, pair, turn, pair, tail]
    tok[:, 13] = comma
    # the last triple has no ",\n" after it
    return b"".join(np.array(vocab, dtype=object)[tok.ravel()[:-1]]
                    .tolist()).decode()


#: tiles per block of text that `export_patch` writes at a time
CHUNK = 2048


def _write_blocks(write, patch, block):
    """write(block(part)) for the consecutive parts of CHUNK tiles of the
    patch, joined by commas."""
    ids, r, t, den = patch.columns
    for a in range(0, len(ids), CHUNK):
        s = slice(a, a + CHUNK)
        part = Patch.from_columns(patch.d, ids[s], r[s], t[s], den)
        write((",\n" if a else "") + block(part))


def _write(write, patch, manifest, precision):
    """Pass the text of json.dumps(patch_document(patch, manifest,
    precision), indent=1, sort_keys=True) + newline to write(), a block at
    a time, without building the document.

    The small header goes through json.dumps; the tiles (`_tiles_block`)
    and shadow corners (`_corners_block`) are printed CHUNK tiles at a
    time and written between its parts.
    """
    text = json.dumps(_document(patch, manifest, precision, [], []),
                      indent=1, sort_keys=True)
    if len(patch):
        # "shadow" and "tiles" sort after "manifest": the last matches are
        # the top-level keys
        text, _, rest = text.rpartition('"tiles": []')
        text, _, mid = text.rpartition('"corners": []')
        write(text + '"corners": [\n')
        _write_blocks(write, patch, lambda c: _corners_block(c, precision))
        write("\n  ]" + mid + '"tiles": [\n')
        _write_blocks(write, patch, _tiles_block)
        text = "\n ]" + rest
    write(text + "\n")


def export_patch(patch: Patch, path, manifest=None, precision=12):
    """Write the patch file: the bytes of json.dumps(patch_document(patch),
    indent=1, sort_keys=True) + newline (`_write`).  A precision that is
    not an integer raises TypeError before the file is opened."""
    precision = operator.index(precision)
    with open(path, "w", newline="\n") as fh:
        _write(fh.write, patch, manifest, precision)


def _field(d, order, degree):
    """The field of symmetry order d; SchemaError unless the header's field
    order and degree are its own."""
    if not _is_int(d) or not 5 <= d <= MAX_ORDER:
        raise SchemaError(f"bad symmetry order {d!r} (need 5 <= d <= "
                          f"{MAX_ORDER})")
    # checked before the field is built, which takes memory quadratic in d
    if not _is_int(order) or order != conductor(d):
        raise SchemaError("field parameters do not match the declared d")
    f = field_for_order(d)
    if not _is_int(degree) or degree != f.degree:
        raise SchemaError("field parameters do not match the declared d")
    return f


#: the header up to the manifest, with integers of at most 18 digits
_HEADER = re.compile(
    rb'\{\n "d": (\d{1,18}),\n "field_degree": (\d{1,18}),\n'
    rb' "field_order": (\d{1,18}),\n "format": '
    + json.dumps(FORMAT).encode() + rb',\n "manifest": ')
_SHADOW = b',\n "shadow": {\n  "corners": [\n'

#: bytes per read of a patch file
BLOCK = 1 << 16


class _Off(Exception):
    """The bytes leave the layout of `export_patch`."""


def _more(fh, rest, lines=math.inf):
    """rest joined to the blocks read from the binary file fh, BLOCK bytes
    at a time, until it holds more than twice the bytes of rest, or the
    blocks hold `lines` line ends, or the rest of the file; _Off if the
    file has no bytes left.  The doubling bounds the copies of each byte,
    and `lines` the line ends read after a long line."""
    blocks, size, ends = [rest], len(rest), 0
    while size <= 2 * len(rest) and ends < lines and (
            block := fh.read(BLOCK)):
        blocks.append(block)
        size += len(block)
        if size <= 2 * len(rest):
            ends += block.count(b"\n")
    if len(blocks) == 1:
        raise _Off
    return b"".join(blocks)


def _parse_ints(b, first, last):
    """The decimal integers written at b[first:last] (index arrays of one
    shape) in the bytes b; _Off if a span is empty or wider than 19 bytes,
    more than an int64 needs.  Bytes other than a sign and digits give
    some integer: only the re-export checks the text."""
    width = last - first
    if ((width < 1) | (width > 19)).any():
        raise _Off
    neg = b[first] == ord("-")
    first, width = first + neg, width - neg
    val = b[first].astype(np.int64) - ord("0")
    for k in range(1, int(width.max(initial=1))):
        more = width > k
        val[more] = val[more] * 10 + b[first[more] + k] - ord("0")
    return np.where(neg, -val, val)


def _read_tiles(b, ends, degree, keys, order):
    """(ids, r, den, num) of the tile records whose lines end at `ends` in
    the bytes b, which start with the first of them.  Each record is
    9 + degree lines and each value is read at the column of its line
    where `export_patch` prints it; a name not in the sorted byte strings
    `keys` gets id -1, and num is in the narrowest dtype that holds it."""
    stop = ends.reshape(-1, 9 + degree)
    start = np.concatenate([[0], ends[:-1] + 1]).reshape(stop.shape)
    # '   "name": "G",' and the value lines '   "r": 3,', '    "den": 1,'
    # and '     0,' ... '     0'
    first, last = start[:, 1] + 12, stop[:, 1] - 2
    rows = [2, 4] + list(range(6, 6 + degree))
    values = _parse_ints(
        b, start[:, rows] + np.array([8, 11] + [5] * degree),
        stop[:, rows] - np.array([1] * (1 + degree) + [0]))
    width = keys.itemsize
    at = first[:, None] + np.arange(width)
    inside = at < last[:, None]
    name = np.where(inside, b[np.where(inside, at, 0)], 0).astype(np.uint8)
    name = name.view(f"S{width}").ravel()
    pos = np.minimum(np.searchsorted(keys, name), len(keys) - 1)
    known = (keys[pos] == name) & (last - first <= width)
    num = values[:, 2:]
    # copies: a view would keep every part's int64 values alive
    return (np.where(known, order[pos], -1).astype(np.int16),
            values[:, 0].copy(), values[:, 1].copy(),
            num.astype(_int_dtype(max_abs(num))))


def _read(fh):
    """(patch, manifest, precision) read from a patch file in the layout of
    `export_patch`, from the binary file object fh; _Off, or the
    ValueError or RecursionError of a value, where the bytes leave it.

    The header's six lines are read at most 64 bytes each, more than the
    longest line `_HEADER` matches, so a file in another layout is left
    after a few hundred bytes.  The manifest is held until `_SHADOW`, the
    shadow is skipped, and the tile values are read BLOCK bytes at a time
    at their fixed columns (`_read_tiles`); the layout and the shadow are
    left to the re-export that confirms the read."""
    head = b"".join([fh.readline(64) for _ in range(6)])
    m = _HEADER.match(head)
    if m is None:
        raise _Off
    d, degree, order = map(int, m.groups())
    _field(d, order, degree)
    buf, at = head[m.end():], 0
    while (end := buf.find(_SHADOW, at)) < 0:
        at = max(0, len(buf) - len(_SHADOW) + 1)
        buf = _more(fh, buf)
    # in a list, the manifest nests as deep as in the whole document; text
    # that is not one value does not unpack
    manifest, = json.loads("[%s]" % buf[:end].decode())
    marker = b'\n  ],\n  "precision": '
    buf = buf[end:]
    while (end := buf.find(marker)) < 0:
        if not (block := fh.read(BLOCK)):
            raise _Off
        buf = buf[1 - len(marker):] + block
    buf = buf[end + len(marker):]
    while buf.count(b"\n") < 3:
        buf = _more(fh, buf)
    # the precision's line, ' },' and ' "tiles": ['
    line, _, _, buf = buf.split(b"\n", 3)
    if len(line) > 19:
        raise _Off
    precision = int(line)
    keys = np.array([n.encode() for n in prototile_ids(d)[0]])
    order = np.argsort(keys)
    keys = keys[order]
    lines = 9 + degree
    parts = []
    while True:
        b = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero(b == ord("\n"))
        # the whole records before the three lines that end the file
        n = (len(ends) - 3) // lines * lines
        if n > 0:
            parts.append(_read_tiles(b, ends[:n], degree, keys, order))
            buf = buf[ends[n - 1] + 1:]
        try:
            buf = _more(fh, buf, lines + 3)
        except _Off:
            break
    if not parts:
        raise _Off
    ids, r, den, num = zip(*parts)
    patch = _patch(d, np.concatenate(ids), np.concatenate(r),
                   np.concatenate(den), _join(num, degree))
    return patch, manifest, precision


def _canonical_patch(fh):
    """(patch, manifest) of a patch file that is, byte for byte, the export
    of what `_read` reads from it, or None; fh is a binary file object
    that can seek.  The re-export checks the layout, the shadow and each
    value's text ("01", "-0" and a rotation past the field order print
    otherwise); a value `_patch` refuses sends the file to the json
    reader, which refuses it with the same error."""
    def same(text):
        data = text.encode()
        if fh.read(len(data)) != data:
            raise _Off

    try:
        patch, manifest, precision = _read(fh)
        fh.seek(0)
        _write(same, patch, manifest, precision)
        if fh.read(1):
            raise _Off
    except (_Off, ValueError, OverflowError, RecursionError):
        return None
    return patch, manifest


def _join(parts, degree):
    """The rows of the integer arrays parts, stacked into one array of
    the narrowest dtype that holds them.  Each part is narrowed first, so
    no int64 array of all the rows is made."""
    parts = [p.astype(_int_dtype(max_abs(p)), copy=False) for p in parts]
    return np.concatenate(parts) if parts else np.zeros((0, degree), np.int8)


def _int64(values, what):
    """values as an int64 array; SchemaError unless each is a JSON integer
    (not a bool) that int64 holds."""
    if not {type(x) for x in values} <= {int}:
        raise SchemaError(f"{what} must be integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise SchemaError(f"{what} must fit in int64") from None


def _json_columns(text):
    """(d, manifest, ids, r, den, num) of a patch document in any JSON
    layout, with the types and shapes checked (num in the narrowest dtype
    that holds it); SchemaError if the document is not one."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers ints beyond int()'s digit limit, and
        # RecursionError nesting deeper than the interpreter's stack
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise SchemaError(f"not a {FORMAT} file")
    if not _is_int(doc.get("version")) or doc["version"] != VERSION:
        raise SchemaError(f"unsupported version {doc.get('version')!r}")
    d = doc.get("d")
    f = _field(d, doc.get("field_order"), doc.get("field_degree"))
    records = doc.get("tiles", [])
    if not isinstance(records, list):
        raise SchemaError("tiles must be a list")
    try:
        names = [rec["name"] for rec in records]
        r = [rec["r"] for rec in records]
        t = [rec["t"] for rec in records]
        den = [x["den"] for x in t]
        num = [x["num"] for x in t]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed tile record: {exc}") from None
    if not all(type(x) is list and len(x) == f.degree for x in num):
        raise SchemaError(f"numerators must be lists of {f.degree} integers")
    _, index = prototile_ids(d)
    ids = [index.get(x, -1) if type(x) is str else -1 for x in names]
    num = _join([_int64(list(itertools.chain.from_iterable(num[a:a + CHUNK])),
                        "coefficients").reshape(-1, f.degree)
                 for a in range(0, len(num), CHUNK)], f.degree)
    return (d, doc.get("manifest", {}), np.array(ids, dtype=np.int16),
            _int64(r, "rotation exponents"), _int64(den, "denominators"),
            num)


def _patch(d, ids, r, den, num):
    """The Patch of the tile columns of a file, from either reader;
    SchemaError unless every name is a prototile of d, every denominator
    is positive and the translations over their common denominator stay
    below INT64_SAFE."""
    unknown = np.flatnonzero(ids < 0)
    if len(unknown):
        raise SchemaError(f"tile {unknown[0]}: unknown prototile for d={d}")
    if (den <= 0).any():
        raise SchemaError("denominators must be positive integers")
    # folded one denominator at a time and stopped at the bound, so each
    # step takes numbers below 2**62 and the fold is linear in their count
    common = 1
    for x in np.unique(den).tolist():
        common = math.lcm(common, x)
        if common >= INT64_SAFE:
            break
    if common >= INT64_SAFE or max_abs(num) >= INT64_SAFE:
        raise SchemaError("coefficients and denominators must be below 2**62")
    if common > 1:
        scale = common // den
        # |num| < 2**62: np.abs cannot wrap, and top * scale fits int64
        top = np.abs(num).max(axis=1, initial=0)
        if (top > (INT64_SAFE - 1) // scale).any():
            raise SchemaError("coefficients over the common denominator "
                              "must be below 2**62")
        num = np.multiply(num, scale[:, None], dtype=_int_dtype(
            int((top * scale).max(initial=0))))
    r = (r % conductor(d)).astype(np.int32)
    return Patch.from_columns(d, ids, r, num, common)


def import_patch(path):
    """(patch, manifest) from a patch file; exact data only is trusted.

    A file that is, byte for byte, the export of what is read from it is
    read a block at a time and confirmed by a second pass
    (`_canonical_patch`); any other file is read again from its start,
    whole, by `_json_columns`.  Both build the patch with the same value
    checks.  Every malformed or unreadable file raises SchemaError.
    """
    try:
        with open(path, "rb") as fh:
            # both passes and the json reader read the file from its
            # start, which a pipe cannot do: a pipe is read whole first
            src = fh if fh.seekable() else io.BytesIO(fh.read())
            read = _canonical_patch(src)
            if read is None:
                src.seek(0)
                data = src.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if read is not None:
        return read
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc}") from None
    d, manifest, *tiles = _json_columns(text)
    return _patch(d, *tiles), manifest
