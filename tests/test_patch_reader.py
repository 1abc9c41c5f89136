"""The two patch file readers: the canonical pass for a file that is, byte
for byte, the export of what is read from it, and the json reader for
every other file."""

import contextlib
import io
import json
import os
import re
import threading
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from deltiling import patchio
from deltiling.cli import main
from deltiling.field import field_for_order
from deltiling.substitution import (Isometry, Patch, Tile, derive_rules,
                                    prototile_ids)


def canonical_text(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@lru_cache(maxsize=None)
def small_patch():
    """The 9 tiles of (14, G, (3,+)), translated by 1/(1 + k % 5): the
    file has denominators 1..5."""
    f = field_for_order(14)
    tiles = Patch.single(14, "G").inflate(derive_rules(14, 3, 1)).tiles
    return Patch(14, [Tile(t.name, Isometry(t.iso.r, t.iso.t
                                            + f.rational(1, 1 + k % 5)))
                      for k, t in enumerate(tiles)])


def small_document():
    return patchio.patch_document(small_patch(), {"p": 3, "n": [1, None]})


def canonical_patch(data):
    """The canonical pass's (patch, manifest) of the bytes data, or None."""
    return patchio._canonical_patch(io.BytesIO(data))


def json_read(data):
    """The json reader's (patch, manifest) of the bytes data."""
    d, manifest, *tiles = patchio._json_columns(data.decode())
    return patchio._patch(d, *tiles), manifest


def same_patch(a, b):
    return all(np.asarray(x).dtype == np.asarray(y).dtype
               and np.array_equal(x, y) for x, y in zip(a.columns, b.columns))


def same_read(a, b):
    """Two (patch, manifest) pairs are equal, dtypes too."""
    return same_patch(a[0], b[0]) and json.dumps(a[1]) == json.dumps(b[1])


def check_rule(data):
    """The canonical pass reads the bytes data exactly when they are the
    export of the patch, manifest and precision that the json reader
    reads from them, unless the patch is empty (its file has no blocks of
    shadow corners and tiles), and then reads what json reads; its
    result."""
    read = canonical_patch(data)
    out = io.StringIO()
    try:
        want = json_read(data)
        precision = json.loads(data)["shadow"]["precision"]
        if patchio._is_int(precision):
            patchio._write(out.write, *want, precision)
    except (patchio.SchemaError, UnicodeDecodeError, OverflowError,
            KeyError, TypeError):
        pass
    again = out.getvalue().encode()
    assert (read is not None) == (again == data and len(want[0]) > 0)
    assert read is None or same_read(read, want)
    return read


def test_exported_file_is_read_canonically():
    data = canonical_text(small_document()).encode()
    read = check_rule(data)
    assert read is not None and same_patch(read[0], small_patch())
    # the file's denominators 1..5 over their common one
    assert read[0].columns[3] == 60


def escape_first_name(text):
    """The first tile name with its first letter as a JSON escape."""
    return re.sub(r'"name": "(.)', lambda m: '"name": "\\u%04x' %
                  ord(m.group(1)), text, count=1)


def reversed_keys(text):
    return json.dumps(json.loads(text, object_pairs_hook=lambda kv:
                                 dict(kv[::-1])), indent=1) + "\n"


def with_extra_keys(doc):
    doc["comment"] = {"by": "hand"}
    doc["tiles"][0]["note"] = [1, 2]
    doc["tiles"][1]["t"]["unit"] = "zeta"
    return canonical_text(doc)


def with_nan_corner(doc):
    doc["shadow"]["corners"][0][0][0] = float("nan")
    return canonical_text(doc)


def with_coefficient(manifest):
    """(text, patch): the untranslated (14, G, (3,+)) patch file, all
    denominators 1, with 2**61 for the first coefficient, and its patch."""
    patch = Patch.single(14, "G").inflate(derive_rules(14, 3, 1))
    doc = patchio.patch_document(patch, manifest)
    doc["tiles"][0]["t"]["num"][0] = 2 ** 61
    ids, r, t, den = patch.columns
    # the stored rows are narrow: widen them before writing 2**61
    t = t.astype(np.int64)
    t[0, 0] = 2 ** 61
    return canonical_text(doc), Patch.from_columns(14, ids, r, t, den)


@pytest.mark.parametrize("case", [
    "reversed-keys", "extra-keys", "escaped-name", "compact",
    "coefficient-2^61", "nan-shadow", "empty-tiles", "short-shadow",
    "long-shadow"])
def test_non_canonical_files_import_to_the_same_patch(tmp_path, case):
    doc, patch = small_document(), small_patch()
    corners = doc["shadow"]["corners"]
    if case in ("short-shadow", "long-shadow"):
        # the canonical reader sizes its columns by the corner triples
        doc["shadow"]["corners"] = (corners[:-1] if case == "short-shadow"
                                    else corners + corners[:1])
        text = canonical_text(doc)
    elif case == "reversed-keys":
        text = reversed_keys(canonical_text(doc))
    elif case == "extra-keys":
        text = with_extra_keys(doc)
    elif case == "escaped-name":
        text = escape_first_name(canonical_text(doc))
        assert "\\u00" in text
    elif case == "compact":
        text = json.dumps(doc, separators=(",", ":"))
    elif case == "coefficient-2^61":
        text, patch = with_coefficient(doc["manifest"])
    elif case == "nan-shadow":
        text = with_nan_corner(doc)
        assert "NaN" in text
    else:
        patch = Patch(14, [])
        text = canonical_text(patchio.patch_document(patch, doc["manifest"]))
    path = tmp_path / "p.json"
    path.write_text(text)
    assert check_rule(text.encode()) is None
    loaded, manifest = patchio.import_patch(path)
    assert same_patch(loaded, patch)
    assert manifest == doc["manifest"]


def test_an_edited_shadow_is_read_through_json(tmp_path, monkeypatch):
    # one shadow digit changed: still valid JSON, but not the export of
    # the exact data, so the canonical pass declines it and the json
    # reader reads the same patch
    text = canonical_text(small_document())
    m = re.compile(r"[0-9]").search(text, text.index('"corners": ['))
    text = text[:m.start()] + ("2" if m.group() == "1" else "1") \
        + text[m.end():]
    assert json.loads(text)["shadow"] != small_document()["shadow"]
    assert canonical_patch(text.encode()) is None
    calls = []
    json_columns = patchio._json_columns
    monkeypatch.setattr(patchio, "_json_columns",
                        lambda text: calls.append(1) or json_columns(text))
    path = tmp_path / "p.json"
    path.write_text(text)
    patch, manifest = patchio.import_patch(path)
    assert calls == [1]
    assert same_patch(patch, small_patch())
    assert manifest == small_document()["manifest"]


def test_wide_coefficients_export_as_the_document(tmp_path):
    # one coefficient of 2**61: the values span far more than their count,
    # so the writer's table of them is the distinct values, not a range
    _, patch = with_coefficient({"p": 3})
    nums = patch.columns[2]
    assert int(nums.max()) - int(nums.min()) > nums.size
    patchio.export_patch(patch, tmp_path / "p.json", {"p": 3})
    text = (tmp_path / "p.json").read_text()
    assert text == canonical_text(patchio.patch_document(patch, {"p": 3}))
    assert '     2305843009213693952,\n' in text


def tile_value(k, *path, value):
    """An edit that sets tile k's value at path (keys below the record)."""
    def edit(doc):
        node = doc["tiles"][k]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edits", [
    [tile_value(3, "name", value="Zz")],
    # read past the longest prototile name
    [tile_value(0, "name", value="Fhtt")],
    [tile_value(0, "t", "den", value=0)],
    [tile_value(0, "t", "den", value=-3)],
    # coprime denominators whose lcm passes 2**62
    [tile_value(0, "t", "den", value=2 ** 31 - 1),
     tile_value(1, "t", "den", value=2 ** 32)],
    # a coefficient that passes 2**62 over the common denominator
    [tile_value(0, "t", "den", value=2 ** 40),
     tile_value(1, "t", "num", 0, value=2 ** 30)],
], ids=["unknown-name", "name-extends-a-name", "den-zero", "den-negative",
        "lcm-beyond-2^62", "scaled-beyond-2^62"])
def test_canonical_layout_still_checks_values(tmp_path, edits):
    # the canonical pass reads the values and refuses them with the json
    # reader's error, before any re-export
    doc = small_document()
    for edit in edits:
        edit(doc)
    text = canonical_text(doc)
    with pytest.raises(patchio.SchemaError):
        patchio._read(io.BytesIO(text.encode()))
    assert check_rule(text.encode()) is None
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(patchio.SchemaError):
        patchio.import_patch(path)


@pytest.mark.parametrize("edit", [
    lambda s: s + "x",
    lambda s: re.sub(r"(\d)\.\d+", r"\1.", s, count=1),
    lambda s: s.replace("     0,", "     00,", 1),
    lambda s: s.replace("     0,", "     +0,", 1),
    lambda s: s.replace('"r": ', '"r": --', 1),
], ids=["trailing-text", "bare-point", "leading-zero", "plus-sign",
        "double-minus"])
def test_canonical_reader_rejects_what_json_rejects(tmp_path, edit):
    text = edit(canonical_text(small_document()))
    assert canonical_patch(text.encode()) is None
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(patchio.SchemaError, match="not valid JSON"):
        patchio.import_patch(path)


#: the integer fields of a tile record, by their path below the record:
#: the last coefficient is the line without a comma
INT_FIELDS = {"r": ("r",), "den": ("t", "den"),
              "num-first": ("t", "num", 0), "num-last": ("t", "num", -1)}
SENTINEL = 777777777


def with_integer_text(field, text):
    """The small document's file with the given integer field of tile 2
    written as text."""
    doc = small_document()
    tile_value(2, *INT_FIELDS[field], value=SENTINEL)(doc)
    out = canonical_text(doc)
    assert out.count(str(SENTINEL)) == 1
    return out.replace(str(SENTINEL), text)


def import_result(path, text):
    """The patch columns and manifest import_patch gives for text, or the
    SchemaError message it raises."""
    path.write_text(text)
    try:
        patch, manifest = patchio.import_patch(path)
    except patchio.SchemaError as exc:
        return str(exc)
    return [np.asarray(c).tolist() for c in patch.columns], manifest


@pytest.mark.parametrize("text", ["00", "-00", "01", "-01"])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_leading_zeros_are_rejected_in_every_field(tmp_path, field, text):
    data = with_integer_text(field, text)
    assert canonical_patch(data.encode()) is None
    path = tmp_path / "p.json"
    path.write_text(data)
    with pytest.raises(patchio.SchemaError, match="not valid JSON"):
        patchio.import_patch(path)


@pytest.mark.parametrize("text", ["-0", "1" + "0" * 17, "-" + "9" * 18])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_integers_up_to_18_digits_are_read_canonically(tmp_path, field,
                                                       text):
    # the edited file keeps the shadow of the sentinel, so it is not the
    # export of what it holds; the export of what json reads from it is
    # read canonically, an 18-digit coefficient included
    data = with_integer_text(field, text).encode()
    check_rule(data)
    path = tmp_path / "p.json"
    path.write_bytes(data)
    try:
        patch, manifest = patchio.import_patch(path)
    except patchio.SchemaError:
        # a denominator below 1, or a coefficient beyond 2**62 over the
        # common denominator
        assert field == "den" or text.startswith("-9")
        return
    patchio.export_patch(patch, path, manifest)
    again = path.read_bytes()
    assert same_read(check_rule(again), (patch, manifest))
    if field.startswith("num") and len(text) == 18:
        assert b"     %s" % text.encode() in again


@pytest.mark.parametrize("text", ["1" + "0" * 18, "-" + "9" * 19])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_integers_of_19_digits_go_to_the_json_reader(tmp_path, field, text):
    # the same result as the compact layout, which only json reads
    data = with_integer_text(field, text)
    assert check_rule(data.encode()) is None
    compact = json.dumps(json.loads(data), separators=(",", ":"))
    assert import_result(tmp_path / "a.json", data) == \
        import_result(tmp_path / "b.json", compact)


def cut(text, where):
    """text cut in the middle of the shadow corners, in the middle of the
    first tile record, or right after the ",\\n" that ends it."""
    tiles = text.index('"tiles": [')
    if where == "mid-corner":
        at = (text.index('"corners": [') + text.index('"precision"')) // 2
    elif where == "mid-record":
        at = text.index('"num"', tiles) + 20
    else:
        at = text.index("  },\n", tiles) + len("  },\n")
    return text[:at]


@pytest.mark.parametrize("block", [7, patchio.BLOCK])
@pytest.mark.parametrize("where", ["mid-corner", "mid-record", "after-comma"])
def test_cut_files_are_rejected(tmp_path, capsys, monkeypatch, where, block):
    monkeypatch.setattr(patchio, "BLOCK", block)
    text = cut(canonical_text(small_document()), where)
    assert canonical_patch(text.encode()) is None
    path = tmp_path / "cut.json"
    path.write_text(text)
    with pytest.raises(patchio.SchemaError, match="not valid JSON"):
        patchio.import_patch(path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: SchemaError" in err and "Traceback" not in err


@pytest.mark.parametrize("layout", ["canonical", "no-shadow", "compact"])
def test_reads_copy_each_byte_a_bounded_number_of_times(monkeypatch, layout):
    # each read joins its blocks to the unconsumed bytes once and at least
    # doubles them: a buffer regrown per 7-byte block copies this file
    # 125 to 275 times
    doc = small_document()
    if layout == "no-shadow":
        del doc["shadow"]
    data = (json.dumps(doc, separators=(",", ":")) if layout == "compact"
            else canonical_text(doc)).encode()
    monkeypatch.setattr(patchio, "BLOCK", 7)
    held = []
    more = patchio._more

    def counted(fh, rest, *lines):
        buf = more(fh, rest, *lines)
        held.append(len(buf))
        return buf

    monkeypatch.setattr(patchio, "_more", counted)
    fh = io.BytesIO(data)
    assert (patchio._canonical_patch(fh) is None) == (layout != "canonical")
    assert sum(held) <= 4 * len(data)
    if layout == "compact":
        # the header's six lines are read at most 64 bytes each
        assert fh.tell() <= 6 * 64


def test_a_long_line_brings_in_a_bounded_read():
    # a 1 MiB line where the tile records start, then 1 MiB of line ends:
    # the reader reads on until it holds the lines of a record, not until
    # it has doubled its bytes, so it indexes a block of line ends, not
    # a million
    data = canonical_text(small_document()).encode()
    at = data.index(b'"tiles": [\n') + len(b'"tiles": [\n')
    data = data[:at] + b"x" * 2 ** 20 + b"\n" * 2 ** 20
    tracemalloc.start()
    try:
        assert canonical_patch(data) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(data)


def test_common_denominator_stops_at_the_bound(monkeypatch):
    # 4,000 distinct 18-digit denominators: their lcm passes 2**62 at the
    # second one, so the columns are refused after at most two folds, not
    # after an lcm of them all
    n, degree = 4000, field_for_order(14).degree
    den = 10 ** 17 + 2 * np.arange(n, dtype=np.int64) + 1
    folds = []
    lcm = patchio.math.lcm

    def counted(*args):
        folds.append(args)
        return lcm(*args)

    monkeypatch.setattr(patchio.math, "lcm", counted)
    with pytest.raises(patchio.SchemaError, match="below 2"):
        patchio._patch(14, np.zeros(n, np.int16), np.zeros(n, np.int64),
                       den, np.zeros((n, degree), np.int8))
    assert 1 <= len(folds) <= 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("layout", ["canonical", "compact"])
def test_a_pipe_is_read_in_either_layout(tmp_path, layout):
    # a pipe cannot be read again from its start, as the json reader reads
    # a file that leaves the canonical layout
    doc = small_document()
    text = (canonical_text(doc) if layout == "canonical"
            else json.dumps(doc, separators=(",", ":")))
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    patch, manifest = patchio.import_patch(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert same_patch(patch, small_patch()) and manifest == doc["manifest"]


# ---- fuzz: mutated files ----

def check_readers(path, data):
    """The canonical pass reads data exactly when it is the export of what
    json reads (`check_rule`); import_patch raises only SchemaError;
    `deltiling verify` exits 0, 1 or 2 without an exception escaping."""
    check_rule(data)
    path.write_bytes(data)
    try:
        patchio.import_patch(path)
    except patchio.SchemaError:
        pass
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            main(["verify", str(path)])
            code = 0
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


DIGITS = st.sampled_from([bytes([c]) for c in b"0123456789-"])
JSON_BYTES = st.lists(st.sampled_from(list(b'0123456789-+.eE ,\n[]{}":\\GN')),
                      min_size=1, max_size=3).map(bytes)
# (op, position, bytes): a digit overwritten by a digit or a sign, or
# deleted, which keeps many files in the canonical layout; or a flip,
# insert or delete of JSON punctuation or any bytes anywhere, at a position
# counted from the start or the end of the file
BYTE_EDITS = st.lists(st.one_of(
    st.tuples(st.just("digit"), st.integers(min_value=0), DIGITS),
    st.tuples(st.just("drop"), st.integers(min_value=0), st.just(b"0")),
    st.tuples(st.sampled_from(["flip", "insert", "delete"]),
              st.one_of(st.integers(min_value=0), st.integers(-12, -1)),
              st.one_of(JSON_BYTES, st.binary(min_size=1, max_size=3)))),
    min_size=1, max_size=3)


def apply_byte_edits(data, edits):
    """data after each (op, pos, chunk); "digit" overwrites and "drop"
    deletes the digit numbered pos."""
    for op, pos, chunk in edits:
        if op in ("digit", "drop"):
            digits = [m.start() for m in re.finditer(rb"[0-9]", data)]
            pos = digits[pos % len(digits)] if digits else 0
            op = "flip" if op == "digit" else "delete"
        pos %= len(data) + 1
        tail = data[pos + len(chunk):] if op != "insert" else data[pos:]
        data = data[:pos] + (chunk if op != "delete" else b"") + tail
    return data


FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(BYTE_EDITS)
def test_byte_mutations(tmp_path_factory, edits):
    data = apply_byte_edits(canonical_text(small_document()).encode(), edits)
    check_readers(tmp_path_factory.mktemp("fuzz") / "p.json", data)


@FUZZ
@given(BYTE_EDITS)
def test_byte_mutations_across_matches(tmp_path_factory, edits):
    # five records per block of the re-export: the 9 records and their
    # corners are compared in two blocks each, so most edits land past
    # the first
    data = canonical_text(small_document()).encode()
    with mock.patch.multiple(patchio, CHUNK=5):
        assert same_read(canonical_patch(data), json_read(data))
        check_readers(tmp_path_factory.mktemp("fuzz") / "p.json",
                      apply_byte_edits(data, edits))


@FUZZ
@given(BYTE_EDITS)
def test_byte_mutations_across_blocks(tmp_path_factory, edits):
    # 7-byte blocks: the first pass reads from a buffer that ends inside
    # a record or a number wherever an edit lands
    data = canonical_text(small_document()).encode()
    with mock.patch.multiple(patchio, BLOCK=7, CHUNK=5):
        check_readers(tmp_path_factory.mktemp("fuzz") / "p.json",
                      apply_byte_edits(data, edits))


def paths(node, prefix=()):
    """The paths of every value in a JSON document."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


NAMES = st.deferred(lambda: st.sampled_from(prototile_ids(14)[0]))
# prototile names, names with letters added (still told apart from the
# names they extend?) and other short strings
NEAR_NAMES = st.one_of(
    NAMES, st.tuples(NAMES, st.text(alphabet="Ght1", min_size=1,
                                    max_size=2)).map("".join),
    st.text(alphabet="AEFGht1", min_size=1, max_size=5))
# integers, which keep a file in the canonical layout up to 18 digits
NEAR_INTS = st.one_of(
    st.integers(-10 ** 18 + 1, 10 ** 18 - 1),
    st.sampled_from([0, -1, 84, 10 ** 18, 10 ** 19 - 1, 2 ** 62, -2 ** 63]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@lru_cache(maxsize=None)
def document_paths(kind):
    """The paths of the small document's tile names ("name"), of its tile
    rotations, denominators and coefficients ("value"), or of all its
    values ("any")."""
    found = sorted(paths(small_document()), key=repr)
    tile = [p for p in found if len(p) >= 3 and p[0] == "tiles"]
    return {"name": [p for p in tile if p[-1] == "name"],
            "value": [p for p in tile if p[-1] in ("r", "den")
                      or p[-2] == "num"],
            "any": found}[kind]


def path_edits(kind, delete, values):
    paths_of_kind = st.deferred(lambda: st.sampled_from(document_paths(kind)))
    return st.tuples(paths_of_kind, delete, values)


# (path, delete, value): a tile name or value set to a near value, or any
# value set to anything or deleted
EDITS = st.one_of(path_edits("name", st.just(False), NEAR_NAMES),
                  path_edits("value", st.just(False), NEAR_INTS),
                  path_edits("any", st.booleans(),
                             st.one_of(NEAR_INTS, NEAR_NAMES, JSON_VALUES)))


@FUZZ
@given(st.lists(EDITS, min_size=1, max_size=3),
       st.sampled_from(["canonical", "compact"]))
def test_json_edits(tmp_path_factory, edits, layout):
    doc = small_document()
    for path, delete, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if delete:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path
    text = (canonical_text(doc) if layout == "canonical"
            else json.dumps(doc, separators=(",", ":")))
    check_readers(tmp_path_factory.mktemp("fuzz") / "p.json", text.encode())
