"""Translation rows stored in the narrowest dtype that holds them.

Patches whose coefficients sit at the int8 and int16 limits, and patches
over a denominator 7 * 11 (as the overlap witnesses are), go through
inflation, corner rows, flips, verification, export and import; every
result is compared with `Elem` arithmetic.  The overflow guards fire at
the same bounds as they do for int64 rows.
"""

import json
import math

import numpy as np
import pytest

from deltiling import patchio, substitution
from deltiling.field import Elem, field_for_order
from deltiling.random import (FlipSite, apply_flip, find_flippable,
                              rearrangement_sample)
from deltiling.substitution import (Isometry, Patch, RuleSet, Tile,
                                    derive_rules, row_ids, tile_corners,
                                    verify_face_to_face)

D14 = field_for_order(14).degree


def flip_patch():
    """The 420 tiles of (14, G, (5,+)(5,+)), which have 53 flip sites."""
    rules = derive_rules(14, 5, 1)
    return Patch.single(14, "G").inflate(rules).inflate(rules)


def moved(patch, x):
    """The patch with every tile translated by the field element x."""
    return Patch(patch.d, [Tile(t.name, Isometry(t.iso.r, t.iso.t + x))
                           for t in patch.tiles])


def reference_inflate(tiles, rules):
    """The per-tile inflation loop: outer placement after each child's."""
    out = []
    for tile in tiles:
        outer = tile.iso.scaled_translation(rules.iota)
        for cname, h in rules.children(tile.name):
            out.append(Tile(cname, outer.compose(h)))
    return out


def assert_corners_are_exact(patch):
    f = field_for_order(patch.d)
    rows, den = patch.corner_rows()
    for tile, tile_rows in zip(patch.tiles, rows.tolist()):
        assert [Elem(f, row, den).normalized() for row in tile_rows] == \
            list(tile_corners(patch.d, tile.name, tile.iso))


def at_limit(limit):
    """(P, v, Q): the flip patch P, a shift v and Q = P + v, whose
    coefficients reach +limit (column 0) and -limit (column 1)."""
    f = field_for_order(14)
    base = flip_patch()
    t = base.columns[2]
    assert not t[:, 1].any()
    v = f.from_coeffs([limit - int(t[:, 0].max()), -limit]
                      + [0] * (D14 - 2))
    return base, v, moved(base, v)


def test_columns_are_stored_narrow():
    f = field_for_order(14)
    patch = flip_patch()
    assert patch.columns[2].dtype == np.int8 and patch.t_max == 6
    for limit, dt in ((127, np.int8), (128, np.int16), (32767, np.int16),
                      (32768, np.int32), (2 ** 31, np.int64)):
        t = np.zeros((2, D14), dtype=np.int64)
        t[1, 3] = -limit
        wide = Patch.from_columns(14, np.zeros(2, np.int16),
                                  np.zeros(2, np.int32), t)
        assert wide.columns[2].dtype == dt and wide.t_max == limit
        assert wide.tiles[1].iso.t == f.from_coeffs(t[1].tolist())
    # a denominator that divides every coefficient is reduced first
    t = np.full((1, D14), 300, dtype=np.int64)
    reduced = Patch.from_columns(14, np.zeros(1, np.int16),
                                 np.zeros(1, np.int32), t, 3)
    assert reduced.columns[3] == 1 and reduced.columns[2].dtype == np.int8
    assert Patch.single(14, "G").columns[2].dtype == np.int8


@pytest.mark.parametrize("limit, dt", [(127, np.int8), (32767, np.int16)],
                         ids=["int8", "int16"])
def test_rows_at_the_dtype_limit_match_elem_arithmetic(tmp_path, limit, dt):
    base, v, patch = at_limit(limit)
    assert patch.columns[2].dtype == dt and patch.t_max == limit
    assert_corners_are_exact(patch)
    # inflation, which leaves the stored dtype
    for p, sign in ((3, 1), (5, -1)):
        rules = derive_rules(14, p, sign)
        assert patch.inflate(rules).tiles == \
            reference_inflate(patch.tiles, rules)
    # flips: a translated patch flips as its translate
    sites, base_sites = find_flippable(patch), find_flippable(base)
    assert [(s.i, s.j) for s in sites] == [(s.i, s.j) for s in base_sites]
    for site, base_site in list(zip(sites, base_sites))[:5]:
        assert apply_flip(patch, site).tiles == \
            moved(apply_flip(base, base_site), v).tiles
    # the patch written over den 3 is not stale: the check rescales the
    # scanned patch's rows to that denominator
    f = field_for_order(14)
    tripled = Patch(14, [Tile(t.name, Isometry(t.iso.r, Elem(
        f, [3 * c for c in t.iso.t.num], 3 * t.iso.t.den)))
        for t in patch.tiles])
    assert tripled.columns[3] == 3
    assert apply_flip(tripled, sites[0]).tiles == \
        apply_flip(patch, sites[0]).tiles
    sample = rearrangement_sample(patch, 40, rng_seed=2)
    assert sample.tiles == moved(rearrangement_sample(base, 40, rng_seed=2),
                                 v).tiles
    # a flip can move a row past the limit: the sample's dtype is its own
    assert sample.t_max == substitution.max_abs(sample.columns[2])
    assert sample.columns[2].dtype == substitution._int_dtype(sample.t_max)
    # verification pairs the corners as the translate's
    assert verify_face_to_face(patch) == verify_face_to_face(base)
    # export and both readers
    path = tmp_path / "p.json"
    patchio.export_patch(patch, path)
    text = path.read_text()
    assert text == json.dumps(patchio.patch_document(patch), indent=1,
                              sort_keys=True) + "\n"
    with open(path, "rb") as fh:
        fast, _ = patchio._canonical_patch(fh)
    d, _, *tiles = patchio._json_columns(text)
    assert tiles[-1].dtype == dt
    for a, b in zip(fast.columns, patchio._patch(d, *tiles).columns):
        assert np.asarray(a).dtype == np.asarray(b).dtype
        assert np.array_equal(a, b)
    imported, _ = patchio.import_patch(path)
    assert imported.tiles == patch.tiles
    assert imported.columns[2].dtype == dt
    patchio.export_patch(imported, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text


def test_corner_guard_at_a_narrow_dtype(tmp_path):
    # the bound of test_corner_rows_guard_reads_the_cached_bound, reached
    # by the denominator: the stored rows stay int8
    f = field_for_order(23)
    bound = substitution._corner_table(23)[2]
    den = (2 ** 62 - 100) // bound
    c = 2 ** 62 - 1 - bound * den
    assert c + 1 <= 127
    for x, fits in ((c, True), (c + 1, False)):
        t = Elem(f, [x, 1] + [0] * (f.degree - 2), den)
        patch = Patch(23, [Tile("T1t", Isometry(5, t))])
        assert patch.columns[2].dtype == np.int8 and patch.columns[3] == den
        if fits:
            assert patch.corner_rows()[0].dtype == np.int64
            assert_corners_are_exact(patch)
            # the writer reduces int8 rows against a denominator near 2**61
            patchio.export_patch(patch, tmp_path / "t.json")
            imported, _ = patchio.import_patch(tmp_path / "t.json")
            assert imported.tiles == patch.tiles
        else:
            with pytest.raises(OverflowError, match="corner rows"):
                patch.corner_rows()
            with pytest.raises(OverflowError, match="corner rows"):
                verify_face_to_face(patch)


def test_inflation_guard_at_a_narrow_dtype():
    # the bound of test_inflation_guard_reads_the_cached_table_bounds,
    # D * t_max * max|M| * s1 + max|rot| * s2, with s2 the denominator
    f = field_for_order(14)
    rules = derive_rules(14, 3, 1)
    tab = rules.columns()
    assert tab.den == tab.mden == 1
    step = f.degree * tab.M_max
    den = (2 ** 62 - step * 100) // tab.rot_max
    c = -(-(2 ** 62 - tab.rot_max * den) // step)
    assert c <= 127
    for x, fits in ((c - 1, True), (c, False)):
        t = Elem(f, [x, 1] + [0] * (f.degree - 2), den)
        patch = Patch(14, [Tile("G", Isometry(3, t))])
        assert patch.columns[2].dtype == np.int8
        if fits:
            assert patch.inflate(rules).tiles == \
                reference_inflate(patch.tiles, rules)
        else:
            with pytest.raises(OverflowError, match="inflation"):
                patch.inflate(rules)


def scaled_flip(flip, k):
    """The flip-table entry with its rows written over the denominator
    k * den: the same replacements."""
    return flip._replace(t=flip.t * k, den=flip.den * k,
                         bound=flip.bound * k)


def test_flip_guard_and_rescaling_at_a_narrow_dtype():
    # a flip over a denominator k rescales the int8 rows of the patch by
    # k; the guard bound is k (t_max + flip bound)
    _, _, patch = at_limit(127)
    site = find_flippable(patch)[0]
    assert site.flip.den == 1
    k = -(-2 ** 62 // (patch.t_max + site.flip.bound))
    want = apply_flip(patch, site).tiles
    for scale in (3, k - 1):
        again = FlipSite(site.i, site.j, site.side,
                         scaled_flip(site.flip, scale), site.patch)
        got = apply_flip(patch, again)
        assert got.columns[3] == 1 and got.tiles == want
        assert again.new == site.new
    with pytest.raises(OverflowError, match="flip"):
        apply_flip(patch, FlipSite(site.i, site.j, site.side,
                                   scaled_flip(site.flip, k), site.patch))


def test_flips_copy_rows_in_their_stored_dtype():
    # at the int8 edge: a flip copies the rows into the dtype of its guard
    # bound, and one whose new rows need int16 gives the rows of the int64
    # copy flips used to write
    from deltiling.random import _write_flip
    _, _, patch = at_limit(127)
    ids, r, t, den = patch.columns
    assert t.dtype == np.int8
    crossing = 0
    for site in find_flippable(patch):
        wide = t.astype(np.int64)
        want, _ = _write_flip(14, ids.copy(), r.copy(), wide, den, site.i,
                              site.j, site.flip)
        assert want is wide
        narrow = t.copy()
        got, got_den = _write_flip(14, ids.copy(), r.copy(), narrow, den,
                                   site.i, site.j, site.flip)
        assert got_den == den and np.array_equal(got, want)
        bound = substitution.max_abs(t[site.i]) + site.flip.bound
        assert got.dtype == max(np.dtype(np.int8),
                                np.dtype(substitution._int_dtype(bound)))
        assert (got is narrow) == (bound <= 127)
        crossing += substitution.max_abs(want) > 127
        assert np.array_equal(apply_flip(patch, site).columns[2], want)
    assert crossing and t.dtype == np.int8


def witness_shift():
    """1/7 + zeta/11 (zeta = zeta_28 = zeta_84^3), the shift of an
    overlap witness."""
    f = field_for_order(14)
    return f.rational(1, 7) + f.zeta(3) * f.rational(1, 11)


def test_rational_translations_match_elem_arithmetic(tmp_path):
    base = flip_patch()
    w = witness_shift()
    patch = moved(base, w)
    assert patch.columns[3] == 77
    assert_corners_are_exact(patch)
    # the rule table over den 1 is rescaled by 77
    for p, sign in ((3, 1), (5, 1)):
        rules = derive_rules(14, p, sign)
        assert patch.inflate(rules).tiles == \
            reference_inflate(patch.tiles, rules)
    # a rule table over den 3: the patch is rescaled by 3, the table by 77
    f = field_for_order(14)
    third = f.rational(1, 3)
    rules = derive_rules(14, 3, 1)
    shifted = RuleSet(14, 3, 1, {
        name: tuple((child, Isometry(h.r, h.t + third)) for child, h in kids)
        for name, kids in rules.rules.items()})
    tab = shifted.columns()
    assert tab.den == 3
    assert math.lcm(77 * tab.mden, tab.den) == 231
    inflated = patch.inflate(shifted)
    assert inflated.columns[3] == 231
    assert inflated.tiles == reference_inflate(patch.tiles, shifted)
    # flips and rearrangement runs act as on the translate
    sites, base_sites = find_flippable(patch), find_flippable(base)
    assert len(sites) == len(base_sites) == 53
    for site, base_site in list(zip(sites, base_sites))[:5]:
        assert apply_flip(patch, site).tiles == \
            moved(apply_flip(base, base_site), w).tiles
    sample = rearrangement_sample(patch, 40, rng_seed=5)
    assert sample.columns[3] == 77
    assert sample.tiles == moved(rearrangement_sample(base, 40, rng_seed=5),
                                 w).tiles
    # verification and the file round trip
    assert verify_face_to_face(patch) == verify_face_to_face(base)
    assert verify_face_to_face(patch.inflate(derive_rules(14, 3, 1))).ok
    patchio.export_patch(patch, tmp_path / "w.json")
    imported, _ = patchio.import_patch(tmp_path / "w.json")
    assert imported.columns[3] == 77 and imported.tiles == patch.tiles


def test_a_rational_seed_inflates_and_flips_as_its_translate():
    # G at (3, w), w over den 77, inflated three times by (14, 3, +): each
    # level is the per-tile Elem inflation, the rule table rescaled by 77;
    # a flip of the result is the flip of the patch grown from G at
    # (3, 0), translated by iota^3 w, and rescales the flip's rows by 77
    f = field_for_order(14)
    w = witness_shift()
    rules = derive_rules(14, 3, 1)
    patch = Patch(14, [Tile("G", Isometry(3, w))])
    base = Patch(14, [Tile("G", Isometry(3, f.zero))])
    ref = patch.tiles
    for _ in range(3):
        patch, base = patch.inflate(rules), base.inflate(rules)
        ref = reference_inflate(ref, rules)
        assert patch.tiles == ref
    assert len(patch) == 678 and patch.columns[3] == 77
    shift = w * rules.iota * rules.iota * rules.iota
    assert patch.tiles == moved(base, shift).tiles
    sites, base_sites = find_flippable(patch), find_flippable(base)
    assert len(sites) == 69
    assert [(s.i, s.j) for s in sites] == [(s.i, s.j) for s in base_sites]
    flipped = apply_flip(patch, sites[0])
    base_flipped = apply_flip(base, base_sites[0])
    assert flipped.columns[3] == 77
    assert flipped.tiles == moved(base_flipped, shift).tiles
    for out in (flipped, base_flipped):
        assert verify_face_to_face(out, decorated=False).ok


def unique_ids(rows):
    """The ids and first indices of `np.unique` over the int64 rows: the
    signed lexicographic order."""
    flat = rows.reshape(-1, rows.shape[-1]).astype(np.int64)
    _, first, inv = np.unique(flat, axis=0, return_index=True,
                              return_inverse=True)
    return inv.reshape(rows.shape[:-1]), first


def assert_corner_ids_are_unique_ids(patch):
    rows, _ = patch.corner_rows()
    got = substitution._corner_ids(patch)
    for a, b in zip(got, unique_ids(rows)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(got, row_ids(rows)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    points, _ = patch.corner_rows(*np.divmod(got[1], 3))
    assert np.array_equal(points, rows.reshape(-1, rows.shape[-1])[got[1]])


def near_guard():
    """Two tiles of d = 14 whose corner coefficients come within 1 of the
    guard 2**62, one near +2**62 and one near -2**62: column 0 of the
    corner rows spans more than 2**62, 63 bits."""
    x = 2 ** 62 - 1 - substitution._corner_table(14)[2]
    t = np.zeros((2, D14), dtype=np.int64)
    t[:, 0] = x, -x
    t[:, 3] = 5, 0
    return Patch.from_columns(14, np.zeros(2, np.int16),
                              np.array([0, 7], np.int32), t)


def test_corner_ids_near_the_guard():
    patch = near_guard()
    rows, _ = patch.corner_rows()
    flat = rows.reshape(-1, rows.shape[-1])
    assert max(flat.max(axis=0).astype(object)
               - flat.min(axis=0).astype(object)).bit_length() == 63
    assert_corner_ids_are_unique_ids(patch)


@pytest.mark.parametrize("block", [5, 64], ids=["block5", "block64"])
def test_corner_ids_from_blocks_are_row_ids(monkeypatch, block):
    # keys summed for blocks of 1 and 21 tiles, over den 1 and 77 (keys of
    # two words), at the int8 limit and beyond it, near the int64 guard,
    # with columns that are zero in every corner row, and for no tile
    patches = [flip_patch(), moved(flip_patch(), witness_shift()),
               at_limit(127)[2], at_limit(32767)[2], near_guard(),
               Patch.single(14, "G"), Patch(14, [])]
    monkeypatch.setattr(substitution, "_ROW_BLOCK", block)
    for patch in patches:
        assert_corner_ids_are_unique_ids(patch)


def test_corner_ids_from_keys_of_several_words(monkeypatch):
    # the bench's seed-1 placement spans 76 bits at level 5, and the flip
    # patch over 77 spans 80 bits: keys of two words each
    f = field_for_order(14)
    patch = Patch(14, [Tile("G", Isometry(45, f.rational(-7) + f.i * -8))])
    for k in range(5):
        patch = patch.inflate(derive_rules(14, 3, (-1) ** k))
    patches = [patch, moved(flip_patch(), witness_shift())]
    words = []
    block_ids = substitution._block_ids
    with monkeypatch.context() as mp:
        mp.setattr(substitution, "_block_ids", lambda keys, free: (
            words.append(len(keys)) or block_ids(keys, free)))
        for p in patches:
            substitution._corner_ids(p)
    assert words == [2, 2]
    for p in patches:
        assert_corner_ids_are_unique_ids(p)


def test_import_rescales_narrow_rows_to_the_common_denominator(tmp_path):
    # the file's rows are normalised tile by tile: 127 over 1 and 1 over
    # 3 read as int8 rows, and 127 over 3 is 381, beyond int8
    f = field_for_order(14)
    shifts = [f.from_coeffs([127, -5] + [0] * (D14 - 2)),
              f.from_coeffs([1, 2] + [0] * (D14 - 2), 3)]
    patch = Patch(14, [Tile("G", Isometry(k, t)) for k, t in enumerate(shifts)])
    assert patch.columns[3] == 3 and patch.t_max == 381
    patchio.export_patch(patch, tmp_path / "p.json")
    text = (tmp_path / "p.json").read_text()
    assert patchio._json_columns(text)[-1].dtype == np.int8
    with open(tmp_path / "p.json", "rb") as fh:
        assert patchio._canonical_patch(fh)[0].tiles == patch.tiles
    imported, _ = patchio.import_patch(tmp_path / "p.json")
    assert imported.columns[3] == 3 and imported.tiles == patch.tiles
    assert imported.columns[2].dtype == np.int16
