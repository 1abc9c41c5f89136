"""Column-wise patches against a per-tile Isometry reference."""

import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltiling.field import Elem, field_for_order
from deltiling import patchio, substitution
from deltiling.patchio import export_patch, patch_document
from deltiling.prototiles import prototile_catalog
from deltiling.substitution import (Isometry, Patch, RuleSet, Tile,
                                    derive_rules, tile_corners,
                                    verify_face_to_face)
from deltiling.svg import render_patch


def reference_inflate(tiles, rules):
    """The per-tile inflation loop: outer placement after each child's."""
    out = []
    for tile in tiles:
        outer = tile.iso.scaled_translation(rules.iota)
        for cname, h in rules.children(tile.name):
            out.append(Tile(cname, outer.compose(h)))
    return out


def reference_document(d, tiles, precision=12):
    """The tiles and shadow blocks of a patch file, tile by tile."""
    recs, shadow = [], []
    for tile in tiles:
        t = tile.iso.t
        recs.append({"name": tile.name, "r": tile.iso.r,
                     "t": {"num": list(t.num), "den": t.den}})
        zs = [c.cvalue() for c in tile_corners(d, tile.name, tile.iso)]
        shadow.append([[round(z.real, precision), round(z.imag, precision)]
                       for z in zs])
    return recs, shadow


def read_canonically(text):
    """The patch of an exported file's text, read by the canonical pass,
    which must give the json reader's patch and manifest."""
    read = patchio._canonical_patch(io.BytesIO(text.encode()))
    d, manifest, *tiles = patchio._json_columns(text)
    assert read is not None and read[1] == manifest
    for got, want in zip(read[0].columns, patchio._patch(d, *tiles).columns):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)
    return read[0]


@st.composite
def placed_patches(draw):
    """(d, seed tile, rule sequence): a seed at a random direct isometry
    (translation denominator 1 or 2) and up to two (p, sign) rule sets."""
    d = draw(st.sampled_from([5, 8, 13, 14]))
    f = field_for_order(d)
    names = [p.name for p in prototile_catalog(d).prototiles]
    name = draw(st.sampled_from(names))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=f.degree,
                           max_size=f.degree))
    t = f.from_coeffs(coeffs, draw(st.sampled_from([1, 2])))
    seed = Tile(name, Isometry(draw(st.integers(0, f.n - 1)), t))
    steps = draw(st.lists(st.tuples(st.integers(2, min(d // 2, 4)),
                                    st.sampled_from([1, -1])), max_size=2))
    return d, seed, [derive_rules(d, p, s) for p, s in steps]


@settings(max_examples=30, deadline=None)
@given(placed_patches())
def test_columns_match_isometry_reference(case):
    d, seed, rule_seq = case
    f = field_for_order(d)
    patch, ref = Patch(d, [seed]), [seed]
    for rules in rule_seq:
        patch, ref = patch.inflate(rules), reference_inflate(ref, rules)
    assert len(patch) == len(ref)
    assert patch.tiles == ref
    rows, den = patch.corner_rows()
    for tile, tile_rows, values in zip(ref, rows,
                                       patch.corner_values().tolist()):
        corners = tile_corners(d, tile.name, tile.iso)
        got = [Elem(f, row, den).normalized() for row in tile_rows.tolist()]
        assert got == list(corners)
        # the float shadow is cvalue() bit for bit
        assert values == [c.cvalue() for c in corners]
    tiles, shadow = reference_document(d, ref)
    doc = patch_document(patch)
    assert doc["tiles"] == tiles
    assert doc["shadow"]["corners"] == shadow
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        export_patch(patch, path, manifest={"tiles": [], "corners": []})
        with open(path) as fh:
            written = fh.read()
    doc = patch_document(patch, manifest={"tiles": [], "corners": []})
    assert written == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert read_canonically(written).tiles == ref


def test_empty_patch_exports_renders_and_verifies(tmp_path):
    patch = Patch(14, [])
    export_patch(patch, tmp_path / "e.json")
    assert (tmp_path / "e.json").read_text() == \
        json.dumps(patch_document(patch), indent=1, sort_keys=True) + "\n"
    render_patch(patch, tmp_path / "e.svg")
    assert "<polygon" not in (tmp_path / "e.svg").read_text()
    assert verify_face_to_face(patch).ok


@pytest.mark.parametrize("chunk, block", [
    (1, 1), (7, 7), (8192, patchio.BLOCK), (2048, 1), (2048, 7)],
    ids=["1", "7", "8192", "2048-block1", "2048-block7"])
def test_export_in_chunks_is_the_document(tmp_path, monkeypatch, chunk,
                                          block):
    # translations over several denominators, so a chunk's common
    # denominator can differ from the patch's; the canonical pass reads
    # the file `block` bytes at a time and re-exports it `chunk` records
    # at a time
    f = field_for_order(14)
    tiles = Patch.single(14, "G").inflate(derive_rules(14, 3, 1)).tiles
    patch = Patch(14, [Tile(t.name, Isometry(t.iso.r, t.iso.t
                                             + f.rational(1, 1 + k % 5)))
                       for k, t in enumerate(tiles)])
    assert patch.columns[3] == 60
    monkeypatch.setattr(patchio, "CHUNK", chunk)
    monkeypatch.setattr(patchio, "BLOCK", block)
    export_patch(patch, tmp_path / "p.json", manifest={"n": 2})
    doc = patch_document(patch, manifest={"n": 2})
    text = (tmp_path / "p.json").read_text()
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert read_canonically(text).tiles == patch.tiles


def test_int64_guard_raises_instead_of_wrapping():
    f = field_for_order(14)
    big = f.from_coeffs([2 ** 59] + [0] * (f.degree - 1))
    patch = Patch(14, [Tile("G", Isometry(0, big))])
    with pytest.raises(OverflowError):
        patch.inflate(derive_rules(14, 7, 1))
    huge = f.from_coeffs([2 ** 62] + [0] * (f.degree - 1))
    with pytest.raises(OverflowError):
        Patch(14, [Tile("G", Isometry(0, huge))]).corner_rows()


def test_rotation_table_raises_instead_of_wrapping():
    # a child translation of (2^61 - 1) times 24 signs: D max|x|
    # power_bound passes 2^62, and int64 turns of it wrapped silently in
    # 12 of the 84 rotation rows; now the table is refused before a turn
    f = field_for_order(14)
    signs = [1 if c == "+" else -1 for c in "-++--+++-++++++-+-++++--"]
    rng = np.random.default_rng(0)
    for _ in range(3):
        draw = rng.choice([-1, 1], 24)
    assert draw.tolist() == signs
    count, kids = derive_rules(14, 3, 1).table()
    ids, r, t, den = kids.columns
    t = t.astype(np.int64)
    t[0] = (2 ** 61 - 1) * np.array(signs)
    rules = RuleSet(14, 3, 1, table=(count, Patch.from_columns(
        14, ids, r, t, den)))
    with pytest.raises(OverflowError, match="zeta turns"):
        rules.columns()
    # at 2^55, well inside the bound, every row is the field's rotation
    t[0] = 2 ** 55 * np.array(signs)
    tab = RuleSet(14, 3, 1, table=(count, Patch.from_columns(
        14, ids, r, t, den))).columns()
    x = f.from_coeffs(t[0].tolist())
    assert [row.tolist() for row in tab.rot[tab.tidx[0]]] == [
        list(x.mul_zeta(k).num) for k in range(f.n)]


def reference_corner_rows(patch):
    """`Patch.corner_rows` with the table's bound reduced on every call."""
    ids, r, t, den = patch.columns
    table, _ = substitution._corner_table(patch.d)
    bound = substitution.max_abs(table) * den + substitution.max_abs(t)
    C = table[ids, r].astype(np.int64) * den + t[:, None, :]
    return C.astype(substitution._int_dtype(max(bound, den))), den


@pytest.mark.parametrize("d, stages, name, tiles", [
    (23, [(5, 1), (5, 1)], "T1t", None),
    (14, [(3, 1), (3, -1)] * 2 + [(3, 1)], "G", 45_070),
], ids=["d23", "d14-45070"])
def test_corner_rows_use_the_cached_table_bound(d, stages, name, tiles):
    patch = Patch.single(d, name)
    for p, sign in stages:
        patch = patch.inflate(derive_rules(d, p, sign))
    assert tiles is None or len(patch) == tiles
    table, bound = substitution._corner_table(d)
    assert bound == substitution.max_abs(table)
    rows, den = patch.corner_rows()
    expect, expect_den = reference_corner_rows(patch)
    assert den == expect_den and rows.dtype == expect.dtype
    assert np.array_equal(rows, expect)


def test_corner_rows_guard_reads_the_cached_bound():
    # a translation coefficient of 2**62 - bound just reaches the limit
    f = field_for_order(23)
    bound = substitution._corner_table(23)[1]
    for c, fits in ((2 ** 62 - bound - 1, True), (2 ** 62 - bound, False)):
        t = f.from_coeffs([c] + [0] * (f.degree - 1))
        patch = Patch(23, [Tile("T1t", Isometry(0, t))])
        if fits:
            assert patch.corner_rows()[0].dtype == np.int64
        else:
            with pytest.raises(OverflowError, match="corner rows"):
                patch.corner_rows()


def test_inflation_guard_reads_the_cached_table_bounds():
    # one tile at (0, c), den 1: the guard bound is
    # D * c * max|M| + max|rot|, and it reaches 2**62 first at c
    f = field_for_order(14)
    rules = derive_rules(14, 3, 1)
    tab = rules.columns()
    assert tab.M_max == substitution.max_abs(tab.M)
    assert tab.rot_max == substitution.max_abs(tab.rot)
    step = f.degree * tab.M_max
    c = -(-(2 ** 62 - tab.rot_max) // step)
    for x, fits in ((c - 1, True), (c, False)):
        t = f.from_coeffs([x] + [0] * (f.degree - 1))
        patch = Patch(14, [Tile("G", Isometry(0, t))])
        if fits:
            assert len(patch.inflate(rules)) == len(rules.rules["G"])
        else:
            with pytest.raises(OverflowError, match="inflation"):
                patch.inflate(rules)


def test_tile_without_a_rule_is_a_key_error():
    rules = derive_rules(14, 3, 1)
    only_g = RuleSet(14, 3, 1, {"G": rules.rules["G"]})
    assert len(Patch.single(14, "G").inflate(only_g)) == len(rules.rules["G"])
    with pytest.raises(KeyError, match="F"):
        Patch.single(14, "F").inflate(only_g)
    with pytest.raises(KeyError, match="F"):
        only_g.matrix(["G", "F"])
