"""Edge flips, rearrangement sampling and random substitution."""

import dataclasses

import numpy as np
import pytest

from deltiling import random as ensembles, substitution
from deltiling.cli import main
from deltiling.field import Elem, field_for_order, sin_val
from deltiling.arrangement import get_arrangement
from deltiling.prototiles import prototile_catalog, decorate
from deltiling.substitution import (Isometry, Patch, Tile, derive_rules,
                                    verify_face_to_face)
from deltiling.random import (apply_flip, enumerate_flips, find_flippable,
                              polygon_vertices, random_rule_family,
                              random_substitution, rearrangement_run,
                              rearrangement_sample, verify_template,
                              _case_templates, _template_tris)


def geometry(patch):
    return sorted(tuple(sorted(c.key() for c in t.corners(patch.d)))
                  for t in patch.tiles)


def test_polygon_vertices_regular():
    for d in (8, 10, 14):
        q = d // 2
        pts = polygon_vertices(d, 0)
        assert len(pts) == q
        edge = sin_val(d, 1) * sin_val(d, q - 1) * 4
        e2 = edge * edge
        for k in range(q):
            v = pts[(k + 1) % q] - pts[k]
            assert v * v.conj() == e2
    with pytest.raises(ValueError):
        polygon_vertices(9, 0)


def test_flip_template_ranges():
    # admissible a-ranges per congruence case
    assert [t.a for t in enumerate_flips(14, 0)] == [1, 3, 4, 5, 6]
    assert [t.a for t in enumerate_flips(8, 0)] == [2, 3]
    assert [t.a for t in enumerate_flips(12, 0)] == [1, 2, 3, 4, 5]
    assert [t.a for t in enumerate_flips(12, -2)] == [1, 3, 5]
    assert [t.a for t in enumerate_flips(12, 2)] == [1, 3, 5]
    # q = 3l with kappa = 0 flips into the kappa = -2 variant
    assert all(t.target_kappa == -2 for t in enumerate_flips(12, 0))


TEMPLATE_CASES = [(8, 0), (10, 0), (12, 0), (12, -2), (12, 2),
                  (14, 0), (16, 0), (18, 0), (18, -2), (18, 2)]


def test_flip_templates_exact_congruence():
    # enumerate_flips audits every template exactly (verify_template)
    for d, kappa in TEMPLATE_CASES:
        assert enumerate_flips(d, kappa)


def broken_templates(tpl):
    """(reason, template): the targets replaced by the sources, one target
    swapped for a source face, the second source moved to the face
    farthest from the first, and one target or one source shifted by one
    label; reason matches the check of `verify_template` that rejects it."""
    src, _ = _template_tris(tpl)
    faces = get_arrangement(tpl.d, tpl.kappa).face_table()
    c0 = next(c for tri, _, c in faces if tri == src[0])
    far = max(faces, key=lambda face: abs(face[2] - c0))[0].idx
    (a, b), (x, y) = tpl.source, tpl.target
    return [
        ("not the targets", dataclasses.replace(
            tpl, target=tpl.source, target_kappa=tpl.kappa)),
        ("not the targets", dataclasses.replace(tpl, target=(x, a))),
        ("do not flip", dataclasses.replace(tpl, source=(a, far))),
        ("not elementary", dataclasses.replace(
            tpl, target=(tuple(v + 1 for v in x), y))),
        ("not a face", dataclasses.replace(
            tpl, source=(a, tuple(v + 1 for v in b)))),
    ]


@pytest.mark.parametrize("d,kappa", TEMPLATE_CASES)
def test_verify_template_rejects_broken_templates(d, kappa):
    for tpl in _case_templates(d, kappa):
        for reason, broken in broken_templates(tpl):
            with pytest.raises(AssertionError, match=reason):
                verify_template(broken)


def test_published_rearrangements_14():
    # E u Et ~ H u M, Iht u Eh ~ Fh u Dh (mirror), I u Jt ~ K u L, ...
    cat = prototile_catalog(14)
    arr = get_arrangement(14, 0)

    def names(tris):
        out = []
        for t in tris:
            df = decorate(t.sym, t)
            out.append(cat.classify(df.letters)[0].name)
        return frozenset(out)

    got = {}
    for tpl in enumerate_flips(14, 0):
        src, dst = _template_tris(tpl)
        got[names(src)] = names(dst)
    assert got[frozenset({"E", "Et"})] == frozenset({"H", "M"})
    assert got[frozenset({"Ih", "Eht"})] == frozenset({"D", "F"})
    assert got[frozenset({"I", "Jt"})] == frozenset({"K", "L"})


def test_find_and_apply_flip():
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    sites = find_flippable(patch)
    assert sites
    assert not find_flippable(Patch.single(14, "G"))
    flipped = apply_flip(patch, sites[0])
    # outline and area unchanged, still face-to-face (undecorated)
    rep = verify_face_to_face(flipped, decorated=False)
    assert rep.ok, str(rep)
    assert len(flipped) == len(patch)
    # reverse flip (edge/diagonal classes swapped) restores the geometry
    back = [s for s in find_flippable(flipped, edge_class=6, diag_class=7)
            if {s.i, s.j} == {sites[0].i, sites[0].j}]
    assert len(back) == 1
    assert geometry(apply_flip(flipped, back[0])) == geometry(patch)


def test_a_side_run_the_same_way_by_two_tiles_is_no_flip_site(monkeypatch):
    # Et twice at one place: its class-7 side is shared by two tiles that
    # run it the same way, so the flip table finds no quadrilateral there
    # and the verifier reports the edge
    tile = Patch.single(14, "Et").tiles[0]
    patch = Patch(14, [tile, tile])
    entries = []
    entry = ensembles._flip_entry

    def recorded(*args):
        entries.append(entry(*args))
        return entries[-1]

    monkeypatch.setattr(ensembles, "_flip_entry", recorded)
    assert find_flippable(patch) == []
    assert entries == [None]
    rep = verify_face_to_face(patch)
    assert not rep.ok
    assert any(p.startswith("edge traversed twice in the same direction")
               for p in rep.problems)


def test_stale_site_rejected():
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    sites = find_flippable(patch)
    moved = apply_flip(patch, sites[0])
    stale = [s for s in sites if {s.i, s.j} & {sites[0].i, sites[0].j}]
    with pytest.raises(ValueError):
        apply_flip(moved, stale[0])


def test_rearrangement_sample():
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    out = rearrangement_sample(patch, 10, rng_seed=11)
    assert verify_face_to_face(out, decorated=False).ok
    assert geometry(out) != geometry(patch)
    # determinism
    again = rearrangement_sample(patch, 10, rng_seed=11)
    assert [t for t in out.tiles] == [t for t in again.tiles]
    # zero steps is the identity
    assert rearrangement_sample(patch, 0, rng_seed=1).tiles == patch.tiles


@pytest.mark.parametrize("d", range(6, 31, 2))
def test_a_prototile_has_at_most_one_class_q_side(d):
    # a class-q side faces a right angle, so default flip sites share no
    # tile (the random module docstring)
    assert (substitution.letter_table(d)[1] == d // 2).sum(axis=1).max() <= 1


def test_rearrangement_checks_that_sites_share_no_tile(monkeypatch):
    letters, cls, orient = substitution.letter_table(14)
    cls = cls.copy()
    k = int(np.flatnonzero((cls == 7).any(axis=1))[0])
    cls[k, np.flatnonzero(cls[k] != 7)[0]] = 7
    monkeypatch.setattr(ensembles, "letter_table",
                        lambda d: (letters, cls, orient))
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    try:
        with pytest.raises(AssertionError, match="d = 14"):
            rearrangement_run(patch, 5)
    finally:
        # flip-table entries made in the run read the altered classes
        ensembles._flip_entry.cache_clear()


def test_random_rule_family():
    family = random_rule_family(14, cap=8)
    assert 2 <= len(family) <= 8
    base = family.members[0]
    for member in family.members[1:]:
        # members differ from the base only by flipped pairs
        for name in base.rules:
            b = {t for t in base.rules[name]}
            m = {t for t in member.rules[name]}
            assert len(b - m) == len(m - b)
            assert len(b - m) % 2 == 0
    with pytest.raises(ValueError):
        random_rule_family(9)


def test_random_substitution():
    family = random_rule_family(14, cap=6)
    pi = family.uniform_pi()
    a = random_substitution("G", family, pi, 2, rng_seed=5)
    assert verify_face_to_face(a, decorated=False).ok
    # reproducible; independent of nothing else
    b = random_substitution("G", family, pi, 2, rng_seed=5)
    assert a.tiles == b.tiles
    # a different seed changes the patch but not the covered area
    c = random_substitution("G", family, pi, 2, rng_seed=6)
    assert c.tiles != a.tiles

    def area(p):
        tot = 0.0
        for t in p.tiles:
            x, y, z = [w.cvalue() for w in t.corners(p.d)]
            tot += abs(((y - x).conjugate() * (z - x)).imag) / 2
        return tot

    assert abs(area(a) - area(c)) < 1e-6
    # degenerate distribution reproduces the deterministic inflation
    one = [1.0] + [0.0] * (len(family) - 1)
    with pytest.raises(ValueError):
        random_substitution("G", family, one, 1)
    single_family = random_rule_family(14, cap=1)
    det = random_substitution("G", single_family, [1.0], 2, rng_seed=0)
    base = Patch.single(14, "G")
    for _ in range(2):
        base = base.inflate(single_family.members[0])
    assert geometry(det) == geometry(base)


def test_flip_argument_guards():
    """kappa = +-2 flips without 3 | q, default flips at odd d, a run on a
    patch without flip sites, and a pi missing a family member."""
    with pytest.raises(ValueError, match="q divisible by 3"):
        enumerate_flips(8, 2)
    with pytest.raises(ValueError, match="edge flips need even d"):
        enumerate_flips(7)
    odd = Patch.single(7, prototile_catalog(7).prototiles[0].name)
    with pytest.raises(ValueError, match="default flips need even d"):
        find_flippable(odd)
    single = Patch.single(14, "G")
    got, made = rearrangement_run(single, 5)
    assert got is single and made == 0
    family = random_rule_family(14, cap=2)
    assert len(family) == 2
    with pytest.raises(ValueError, match="every family member"):
        random_substitution("G", family, [1.0], 1)


def test_apply_flip_rejects_sites_past_the_end():
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    site = max(find_flippable(patch), key=lambda s: max(s.i, s.j))
    ids, r, t, den = patch.columns
    k = min(site.i, site.j) + 1
    smaller = Patch.from_columns(14, ids[:k], r[:k], t[:k], den)
    with pytest.raises(ValueError, match="stale flip site"):
        apply_flip(smaller, site)


def test_stale_check_compares_columns():
    """Tiles i and j are compared as columns: a patch of another order is
    stale, and an equal patch written over another denominator is not."""
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    site = min(find_flippable(patch), key=lambda s: max(s.i, s.j))
    other = Patch.single(10, prototile_catalog(10).prototiles[0].name)
    for _ in range(2):
        other = other.inflate(derive_rules(10, 3, 1))
    assert len(other) > max(site.i, site.j)
    with pytest.raises(ValueError, match="stale flip site: the patch has "
                                         "changed"):
        apply_flip(other, site)
    f = field_for_order(14)
    tripled = Patch(14, [Tile(t.name, Isometry(t.iso.r, Elem(
        f, [3 * c for c in t.iso.t.num], 3 * t.iso.t.den)))
        for t in patch.tiles])
    assert tripled.columns[3] == 3 * patch.columns[3]
    got, want = apply_flip(tripled, site), apply_flip(patch, site)
    for a, b in zip(got.columns[:3], want.columns[:3]):
        assert np.array_equal(a, b)
    assert got.columns[3] == want.columns[3]


def test_flips_build_no_placement_views(monkeypatch, tmp_path):
    """Flips, rule families, random substitution, template audits and the
    rules listing run on integer columns: with the flip table cold and
    every builder of Elem placements, Isometries and Tiles raising, each
    still runs."""
    rules = derive_rules(14, 3, 1)
    listed = derive_rules(14, 5, 1)
    derive_rules(14, 7, 1)
    patch = Patch.single(14, "G")
    for _ in range(3):
        patch = patch.inflate(rules)
    ids, r, t, den = patch.columns
    copy = Patch.from_columns(14, ids.copy(), r.copy(), t.copy(), den)
    ensembles._flip_entry.cache_clear()
    # the rules view is rebuilt, and so raises, if the listing reads it
    monkeypatch.delitem(listed.__dict__, "rules", raising=False)

    def boom(*args, **kwargs):
        raise AssertionError("a placement view was built")

    for module in (ensembles, substitution):
        for name in ("match_triangles", "tile_corners", "Isometry", "Tile"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)
    monkeypatch.setattr(Elem, "mul_zeta", boom)
    sites = find_flippable(patch)
    assert sites
    assert rearrangement_run(patch, 20, 1)[1] == 20
    assert len(apply_flip(copy, sites[0])) == len(patch)
    family = random_rule_family(14, cap=4)
    assert len(random_substitution("G", family, family.uniform_pi(), 2, 3))
    assert enumerate_flips(14)
    main(["rules", "--d", "14", "--p", "5", "--out", str(tmp_path)])
    assert (tmp_path / "rules_d14_p5_p.txt").read_text().startswith("Phi(")


def test_flips_never_write_into_their_input():
    rules = derive_rules(14, 3, 1)
    base = Patch.single(14, "G")
    for _ in range(3):
        base = base.inflate(rules)
    before = [a.copy() for a in base.columns[:3]]
    sample = rearrangement_sample(base, 100, rng_seed=4)
    for site in find_flippable(base)[:10]:
        apply_flip(base, site)
    assert sample.columns[0] is not base.columns[0]
    for a, b in zip(before, base.columns[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_flip_rows_are_guarded():
    """A replacement row that could leave the exact int64 range raises."""
    from deltiling.random import _write_flip
    rules = derive_rules(14, 5, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    site = find_flippable(patch)[0]
    ids, r, t, den = patch.columns
    t = t.astype("int64")
    t[site.i, 0] = 2 ** 62
    with pytest.raises(OverflowError, match="flip"):
        _write_flip(14, ids.copy(), r.copy(), t, den, site.i, site.j,
                    site.flip)
