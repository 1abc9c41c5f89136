"""Patch interchange format: exact, versioned, round-trip safe.

A patch file is JSON with a fixed key order.  Tile positions are stored
as exact data only: the rotation exponent r of zeta_n^r and the
translation as an integer coefficient vector over the cyclotomic power
basis with a common denominator.  A parallel "shadow" block carries float
corner coordinates for consumers that do not implement the field
arithmetic; the shadow is derived data: import checks that it is valid
JSON but does not decode it.

Export prints the file without building the JSON document: each block of
CHUNK tile records is one join of strings gathered from a small table of
the integers that occur in it (`_tiles_block`), and each block of CHUNK
shadow corner triples one join gathered from the block's distinct
rounded floats, each printed once, and the fixed layout pieces between
them (`_corners_block`).

Import has two readers.  A file in the exact layout `export_patch` writes
(indent 1, sorted keys) is checked by patterns and its columns are read
from the bytes by numpy, with no Python object per number or record; any
other JSON file goes through `json`.  Both give the same columns and pass
them to the same value checks.  The patterns check the layout, the
header integers and the shadow numbers; the tile integers match a sign
and 1 to 18 digits, and the numpy pass that parses them rejects leading
zeros, the rest of the JSON integer grammar.  The canonical reader reads
the header's lines, at most _LINE bytes each, then the file BLOCK bytes
at a time, and keeps only the bytes it has not matched yet, so it holds a
block of the file and the columns, not the file.  The patterns match
MATCH records at a time, which bounds the match state `re` keeps; numpy
reads up to CHUNK records at a time.  A file that leaves the layout is
read again, whole, by `json`.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
from functools import lru_cache

import numpy as np

from .field import MAX_ORDER, conductor, field_for_order
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
    names, _ = prototile_ids(patch.d)
    ids, r, nums, dens = _tile_columns(patch)
    tiles = [{"name": names[i], "r": rk, "t": {"num": num, "den": den}}
             for i, rk, num, den in zip(ids.tolist(), r.tolist(),
                                        nums.tolist(), dens.tolist())]
    rounded, index = _shadow(patch, precision)
    corners = np.array(rounded)[index].reshape(len(patch), 3, 2).tolist()
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
_TRIPLE = ("   [\n    [\n     ", ",\n     ", "\n    ],\n    [\n     ",
           "\n    ]\n   ]")


def _corners_block(patch, precision):
    """The shadow "corners" items as json.dumps(indent=1) prints them at
    depth 2.

    Each triple is printed as 14 tokens: its six numbers, the seven
    layout pieces around them (from `_TRIPLE`) and the ",\n" between
    triples.  The numbers come from the table of the distinct rounded
    floats (`_shadow`), so, as in `_tiles_block`, one join over a gather
    of a token matrix prints every triple."""
    rounded, index = _shadow(patch, precision)
    k = len(rounded)
    vocab = [repr(x) for x in rounded] + list(_TRIPLE) + [",\n"]
    head, pair, turn, tail, comma = range(k, k + 5)
    tok = np.empty((len(index), 14), dtype=np.intp)
    tok[:, 1:13:2] = index
    tok[:, 0:13:2] = [head, pair, turn, pair, turn, pair, tail]
    tok[:, 13] = comma
    # the last triple has no ",\n" after it
    return "".join(np.array(vocab, dtype=object)[tok.ravel()[:-1]].tolist())


#: tiles per block of text that `export_patch` writes at a time, and at
#: most per array pass of the reader
CHUNK = 2048


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

    The small header goes through json.dumps; the tiles (`_tiles_block`)
    and shadow corners (`_corners_block`) are printed CHUNK tiles at a
    time and written between its parts.
    """
    text = json.dumps(_document(patch, manifest, precision, [], []),
                      indent=1, sort_keys=True)
    with open(path, "w", newline="\n") as fh:
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


#: a JSON integer of at most 18 digits, so below 10**18 < INT64_SAFE
_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
#: the same without its leading-zero rule, which `_parse_ints` checks: a
#: repeated alternation keeps a backtracking mark per number until the
#: match of a whole chunk ends
_DIGITS = rb"-?[0-9]{1,18}"
#: a JSON number (the empty alternatives match faster than an optional group)
_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"
_HEADER = re.compile(
    rb'\{\n "d": (' + _INT + rb'),\n "field_degree": (' + _INT
    + rb'),\n "field_order": (' + _INT + rb'),\n "format": '
    + json.dumps(FORMAT).encode() + rb',\n "manifest": ')
_SHADOW = b',\n "shadow": {\n  "corners": [\n'
_END = b'\n ],\n "version": %d\n}\n' % VERSION


#: records per match of the reader's patterns: `re` keeps backtracking
#: state for every repetition inside one match until the match ends
MATCH = 256

#: bytes per read of a patch file
BLOCK = 1 << 16

#: bytes read of each of the header's first lines: more than the longest
#: line `_HEADER` matches, so a file in another layout is left after a few
#: hundred bytes
_LINE = 64

#: line ends in one shadow corner triple and the ",\n" after it
_CORNER_LINES = 14


class _Off(Exception):
    """The bytes leave the exact layout of `export_patch`."""


class _Blocks:
    """The unconsumed bytes buf[pos:] of a binary file, after the bytes
    `head` that were read from it, and the number of line ends in them."""

    def __init__(self, fh, head):
        if not head.isascii():
            raise _Off
        self.fh, self.buf, self.pos = fh, head, 0
        self.ends = head.count(b"\n")

    def read(self, n=0):
        """Read BLOCK bytes at a time until buf[pos:] holds n line ends
        and more than twice its bytes, or the rest of the file; False if
        the file had no bytes left.  The blocks are joined once to the
        unconsumed bytes, which drops the consumed ones; the doubling
        bounds the copies of each byte when reads repeat with pos in
        place.  _Off on a byte that is not ASCII."""
        blocks = [self.buf[self.pos:]]
        size = len(blocks[0])
        want = 2 * size + 1
        while (size < want or self.ends < n) and (
                block := self.fh.read(BLOCK)):
            if not block.isascii():
                raise _Off
            blocks.append(block)
            size += len(block)
            self.ends += block.count(b"\n")
        self.buf, self.pos = b"".join(blocks), 0
        return len(blocks) > 1

    def lines(self, n):
        """Read until buf[pos:] holds n line ends or the rest of the file."""
        if self.ends < n:
            self.read(n)

    def find(self, marker):
        """The index in buf of the first marker in buf[pos:], read until
        there is one; _Off if the file ends first."""
        at = self.pos
        while (end := self.buf.find(marker, at)) < 0:
            # the read moves buf[pos:] to the start of buf
            at = max(self.pos, len(self.buf) - len(marker) + 1) - self.pos
            if not self.read():
                raise _Off
        return end

    def skip(self, end, k=None):
        """Consume buf[pos:end], which holds k line ends (counted when k
        is None); the number of line ends in it."""
        if k is None:
            k = self.buf.count(b"\n", self.pos, end)
        self.ends -= k
        self.pos = end
        return k


def _match(pattern, src, at=None):
    """The match of pattern at src.pos (or at); _Off if there is none."""
    m = pattern.match(src.buf, src.pos if at is None else at)
    if m is None:
        raise _Off
    return m


@lru_cache(maxsize=None)
def _grammar(degree, match):
    """(corners, middle, tiles): patterns for up to `match` shadow corner
    triples, the text between the corners and the tiles, and up to `match`
    tile records of field degree `degree`, in the exact layout of
    `export_patch`.  Only standard `re` syntax: Python 3.10 has no
    possessive quantifiers.

    The corners are checked against the whole JSON number grammar and the
    precision against `_INT`.  The integers of a tile record match
    `_DIGITS` only: a sign, then 1 to 18 digits; `_parse_ints` rejects
    their leading zeros."""
    pair = rb"\[\n     " + _NUMBER + rb",\n     " + _NUMBER + rb"\n    \]"
    corner = (rb"   \[\n    " + pair + rb",\n    " + pair + rb",\n    "
              + pair + rb"\n   \]")
    # the coefficients are unrolled: a repeated group matches 3x slower
    tile = (rb'  \{\n   "name": "[A-Za-z0-9]+",\n   "r": ' + _DIGITS
            + rb',\n   "t": \{\n    "den": ' + _DIGITS
            + rb',\n    "num": \[\n     '
            + rb",\n     ".join([_DIGITS] * degree)
            + rb"\n    \]\n   \}\n  \}")
    middle = rb'\n  \],\n  "precision": ' + _INT + rb'\n \},\n "tiles": \[\n'
    return tuple(re.compile(p) for p in (
        corner + rb"(?:,\n" + corner + rb"){0,%d}" % (match - 1), middle,
        tile + rb"(?:,\n" + tile + rb"){0,%d}" % (match - 1)))


def _parse_ints(b, first, last):
    """The integers written at b[first:last] (index arrays of one shape)
    in the bytes b, or None if one has a leading zero ("00", "-01"), which
    JSON does not allow.  Every span must match `_DIGITS`: with that rule
    checked here, each is a JSON integer of at most 18 digits."""
    shape, first, last = first.shape, first.ravel(), last.ravel()
    neg = b[first] == ord("-")
    first = first + neg
    width = last - first
    if ((b[first] == ord("0")) & (width > 1)).any():
        return None
    val = b[first].astype(np.int64) - ord("0")
    i = np.arange(len(val))
    for k in range(1, int(width.max(initial=1))):
        i = i[width[i] > k]
        val[i] = val[i] * 10 + b[first[i] + k] - ord("0")
    return np.where(neg, -val, val).reshape(shape)


def _read_tiles(b, degree, keys, order):
    """(ids, r, den, num) of the tile records in the bytes b (a match of
    the tile pattern), or None if an integer has a leading zero.  Each
    record is 9 + degree lines and each value sits at a fixed column of
    its line; a name not in the sorted byte strings `keys` gets id -1."""
    lines = np.concatenate([[-1], np.flatnonzero(b == ord("\n")), [len(b)]])
    start = (lines[:-1] + 1).reshape(-1, 9 + degree)
    stop = lines[1:].reshape(-1, 9 + degree)
    # '   "name": "G",' and the value lines '   "r": 3,', '    "den": 1,'
    # and '     0,' ... '     0'
    first, last = start[:, 1] + 12, stop[:, 1] - 2
    rows = [2, 4] + list(range(6, 6 + degree))
    values = _parse_ints(
        b, start[:, rows] + np.array([8, 11] + [5] * degree),
        stop[:, rows] - np.array([1] * (1 + degree) + [0]))
    if values is None:
        return None
    width = keys.itemsize
    at = first[:, None] + np.arange(width)
    inside = at < last[:, None]
    name = np.where(inside, b[np.where(inside, at, 0)], 0).astype(np.uint8)
    name = name.view(f"S{width}").ravel()
    pos = np.minimum(np.searchsorted(keys, name), len(keys) - 1)
    known = (keys[pos] == name) & (last - first <= width)
    return (np.where(known, order[pos], -1).astype(np.int16),
            values[:, 0], values[:, 1], values[:, 2:])


def _canonical_columns(fh):
    """(d, manifest, ids, r, den, num) of a patch file in the exact layout
    that `export_patch` writes, read from the binary file object fh, or
    None for any other bytes.

    The header's six lines are read at most _LINE bytes each, so a file
    in another layout is left after a few hundred bytes; the rest is read
    BLOCK bytes at a time, and only the bytes not yet matched are kept.
    The layout is checked by patterns, MATCH records at a time.  No piece
    of a pattern reads past the end of its line, so a match on a buffer
    that holds MATCH whole records of lines past the match start, or the
    rest of the file, is the match on the whole file.  The values are
    read from the matched bytes in one array pass per run of matches of at
    most CHUNK records (of one match if MATCH > CHUNK), which also checks
    the one rule of the JSON integer grammar that the tile pattern leaves
    out: no leading zero.  Each run is written into columns sized by the
    number of shadow corner triples; a file whose shadow does not hold one
    triple per tile record goes to the json reader.  The shadow corners
    are checked against the JSON number grammar but not decoded.  Every
    accepted file is valid JSON that `_json_columns` reads to the same
    columns; ids, r and den are int16, int64 and int64, r as written, and
    num is an N x degree array in the narrowest dtype that holds it,
    joined from the runs (`_join`)."""
    try:
        src = _Blocks(fh, b"".join([fh.readline(_LINE) for _ in range(6)]))
        head = _match(_HEADER, src)
        d, degree, order = map(int, head.groups())
        try:
            _field(d, order, degree)
        except SchemaError:
            raise _Off from None
        src.skip(head.end())
        end = src.find(_SHADOW)
        try:
            # in a list, the manifest nests as deep as in the whole
            # document; a match of _SHADOW inside the manifest leaves an
            # unclosed prefix, and text that is not one value does not
            # unpack
            manifest, = json.loads("[%s]" % src.buf[src.pos:end].decode())
        except (ValueError, RecursionError):
            raise _Off from None
        src.skip(end + len(_SHADOW))
        corners, middle, tiles = _grammar(degree, MATCH)
        count = 0
        while True:
            src.lines(_CORNER_LINES * MATCH)
            ends = src.skip(_match(corners, src).end())
            count += (ends + 1) // _CORNER_LINES
            if not src.buf.startswith(b",\n", src.pos):
                break
            src.skip(src.pos + 2)
        src.lines(5)  # the middle's line ends
        src.skip(_match(middle, src).end())
        keys = np.array([n.encode() for n in prototile_ids(d)[0]])
        order = np.argsort(keys)
        keys = keys[order]
        columns = (np.empty(count, np.int16), np.empty(count, np.int64),
                   np.empty(count, np.int64))
        nums = []
        # the matches are joined by ",\n", as the records inside one are,
        # so a run of them is read as one block; all but the last hold
        # MATCH records
        group = max(1, CHUNK // MATCH)
        done, more = 0, True
        while more:
            src.lines(group * MATCH * (9 + degree))
            start = at = src.pos
            for _ in range(group):
                end = _match(tiles, src, at).end()
                more = src.buf.startswith(b",\n", end)
                at = end + 2 if more else end
                if not more:
                    break
            part = _read_tiles(np.frombuffer(src.buf, np.uint8, end - start,
                                             start), degree, keys, order)
            if part is None or done + len(part[0]) > count:
                raise _Off
            # a run of records is 9 + degree lines each, so its line ends
            # are known without counting them again
            src.skip(at, len(part[0]) * (9 + degree) - (not more))
            for column, values in zip(columns, part):
                column[done:done + len(values)] = values
            nums.append(part[3])
            done += len(part[0])
        # one line end more than _END holds: a buffer equal to _END is the
        # rest of the file
        src.lines(_END.count(b"\n") + 1)
        if done != count or src.buf[src.pos:] != _END:
            raise _Off
    except _Off:
        return None
    return (d, manifest) + columns + (_join(nums, degree),)


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
    layout, as `_canonical_columns` gives them, with the types and shapes
    checked; SchemaError if the document is not one."""
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
    common = math.lcm(*np.unique(den).tolist())
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

    A file in the layout `export_patch` writes is read by
    `_canonical_columns` a block at a time; any other JSON is read again
    from its start, whole, by `_json_columns`.  Both hand their columns to
    the same value checks.  Every malformed or unreadable file raises
    SchemaError.
    """
    try:
        with open(path, "rb") as fh:
            # the json reader reads the file again from its start, which a
            # pipe cannot do: a pipe is read whole first
            src = fh if fh.seekable() else io.BytesIO(fh.read())
            columns = _canonical_columns(src)
            if columns is None:
                src.seek(0)
                data = src.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if columns is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc}") from None
        columns = _json_columns(text)
    d, manifest, *tiles = columns
    return _patch(d, *tiles), manifest
