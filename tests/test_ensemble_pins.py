"""Flip sites, rearrangements and random substitution, pinned and checked
against per-tile references.

The sha256 digests were recorded before the flip table and the columnar
random substitution replaced the per-edge `_place_shape` search and the
per-tile inflation loop; the same seeds must give the same bytes.
"""

import hashlib
import itertools
import math
import os
import random
import tempfile

import numpy as np
import pytest

from deltiling import random as ensembles
from deltiling.arrangement import cross_sign, edge_class
from deltiling.field import field_for_order
from deltiling.patchio import export_patch
from deltiling.prototiles import prototile_catalog
from deltiling.substitution import (Isometry, Patch, RuleSet, Tile,
                                    derive_rules, identity_isometry,
                                    match_triangles, tile_corners,
                                    _rule_starts)


def placements(d):
    """Three seed placements: identity, a Gaussian-integer shift, and a
    shift with denominator 2."""
    f = field_for_order(d)
    return [identity_isometry(f),
            Isometry(5, f.rational(2) + f.i * -3),
            Isometry(f.n - 3, f.zeta(1) * 3 + f.rational(1, 2))]


def document_bytes(patch):
    """The bytes of the patch file `export_patch` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "patch.json")
        export_patch(patch, path)
        with open(path, "rb") as fh:
            return fh.read()


def site_listing(sites, start=0):
    """Exact, order-preserving text of flip sites, their tile indices
    taken from row start."""
    return repr([(s.i - start, s.j - start,
                  [(t.name, t.iso.r, t.iso.t.key()) for t in s.old + s.new])
                 for s in sites])


def inflated(d, name, iso, rules, n):
    patch = Patch(d, [Tile(name, iso)])
    for _ in range(n):
        patch = patch.inflate(rules)
    return patch


def rearrangement_digest(k):
    """Exports of 12-step rearrangements of the 678-tile (14, G) patch
    (iota_{14,3} three times) at placement k, rng seeds 0..3."""
    d = 14
    base = inflated(d, "G", placements(d)[k], derive_rules(d, 3, 1), 3)
    assert len(base) == 678
    h = hashlib.sha256()
    for seed in range(4):
        h.update(document_bytes(ensembles.rearrangement_sample(base, 12, seed)))
    return h.hexdigest()


def substitution_digest():
    """Exports of six 3-step random substitutions from G, cap-4 family."""
    family = ensembles.random_rule_family(14, cap=4)
    h = hashlib.sha256()
    for seed in range(6):
        h.update(document_bytes(ensembles.random_substitution(
            "G", family, family.uniform_pi(), 3, seed)))
    return h.hexdigest()


def rule_starts(d, rules):
    """Row of the first child of every prototile in the rule set's
    table, by name: the rule family's sites index that table."""
    names, _ = ensembles.prototile_ids(d)
    return dict(zip(names, _rule_starts(rules.table()[0]).tolist()))


def site_group_digest():
    rules = derive_rules(14, 7, 1)
    start = rule_starts(14, rules)
    groups = ensembles._site_groups(14, rules)
    text = repr([(name, site_listing([site], start[name]))
                 for name, site in groups])
    return hashlib.sha256(text.encode()).hexdigest()


def small_digest(d):
    """Sites, a rearrangement and a random substitution at a small d."""
    name = prototile_catalog(d).prototiles[0].name
    f = field_for_order(d)
    base = inflated(d, name, identity_isometry(f), derive_rules(d, 3, 1), 3)
    family = ensembles.random_rule_family(d, cap=3)
    h = hashlib.sha256()
    h.update(site_listing(ensembles.find_flippable(base)).encode())
    h.update(document_bytes(ensembles.rearrangement_sample(base, 8, 5)))
    h.update(document_bytes(ensembles.random_substitution(
        name, family, family.uniform_pi(), 2, 7)))
    return h.hexdigest()


REARRANGEMENT_DIGESTS = [
    "f4b1d52388cb4adb1e92eedc7f07b5a3d2c689462f596689e98106013ab05687",
    "2300aa3e7fc17a622b3e03752346be5875fd9111c18cb2e851835e29fa19c444",
    "476451b6df3a947000c433e2a81841c18a36a6c4ed7c7c5a8114a0d4722175fb",
]
SUBSTITUTION_DIGEST = \
    "ed9a7136d28a032a8febc447b50cf5bcf3853220194ab411d7e0574518f811f2"
SITE_GROUP_DIGEST = \
    "1f2147270e46a7969828b7704cd5f8e6519876941fe0ef0a9c06f0c99492e3f1"
SMALL_DIGESTS = {
    10: "ea7a962731446cc3b27f19d1a714fa605ec2a84f22c60b2efa2786e43f6d9f66",
    12: "c1ddcdbe14c5c4687544e88ff0ceaeade8d4f3cbff630dc1df9c468eda755e7e",
    16: "26866735e6736e21aa8ec7e5c51baaa5d120dfce9bd58a0e17d4c357690db8f9",
}


@pytest.mark.parametrize("k", range(3))
def test_rearrangements_are_unchanged(k):
    assert rearrangement_digest(k) == REARRANGEMENT_DIGESTS[k]


def test_random_substitutions_are_unchanged():
    assert substitution_digest() == SUBSTITUTION_DIGEST


def test_rule_family_sites_are_unchanged():
    assert site_group_digest() == SITE_GROUP_DIGEST


@pytest.mark.parametrize("d", sorted(SMALL_DIGESTS))
def test_small_orders_are_unchanged(d):
    assert small_digest(d) == SMALL_DIGESTS[d]


# -- random substitution against per-tile references ------------------------

def reference_draw(rng_seed, path, step, pi):
    """The counter-based member draw, lineage path as a tuple."""
    tag = f"{rng_seed}|{'.'.join(map(str, path))}|{step}".encode()
    u = int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") / 2.0 ** 64
    acc = 0.0
    for k, w in enumerate(pi):
        acc += w
        if u < acc:
            return k
    return len(pi) - 1


def reference_substitution(seed_tile, family, pi, n, rng_seed):
    """The per-tile loop: every tile composes its drawn member's children."""
    f = field_for_order(family.d)
    work = [(Tile(seed_tile, identity_isometry(f)), ())]
    for step in range(n):
        nxt = []
        for tile, path in work:
            member = family.members[reference_draw(rng_seed, path, step, pi)]
            outer = tile.iso.scaled_translation(member.iota)
            for idx, (cname, h) in enumerate(member.children(tile.name)):
                nxt.append((Tile(cname, outer.compose(h)), path + (idx,)))
        work = nxt
    return Patch(family.d, [tile for tile, _ in work])


def assert_same_columns(a, b):
    for x, y in zip(a.columns[:3], b.columns[:3]):
        assert np.array_equal(x, y)
    assert a.columns[3] == b.columns[3]


def test_one_member_family_is_plain_inflation():
    family = ensembles.random_rule_family(14, cap=1)
    assert len(family) == 1
    plain = Patch.single(14, "G")
    for n in range(1, 4):
        plain = plain.inflate(family.members[0])
        got = ensembles.random_substitution("G", family, [1.0], n, 3)
        assert_same_columns(got, plain)


@pytest.mark.parametrize("d, seed_tile", [(14, "G"), (10, None), (12, None)])
def test_two_member_family_matches_per_tile_reference(d, seed_tile):
    seed_tile = seed_tile or prototile_catalog(d).prototiles[-1].name
    family = ensembles.random_rule_family(d, cap=2)
    assert len(family) == 2
    for pi, seed in (([0.3, 0.7], 0), ([0.5, 0.5], 1), ([0.9, 0.1], 2)):
        got = ensembles.random_substitution(seed_tile, family, pi, 3, seed)
        want = reference_substitution(seed_tile, family, pi, 3, seed)
        assert_same_columns(got, want)
        assert got.tiles == want.tiles


def test_rule_tables_turn_each_distinct_translation_once():
    for sign in (1, -1):
        tab = derive_rules(14, 3, sign).columns()
        assert len(tab.tidx) == 352 and len(tab.rot) == 52
    family = ensembles.random_rule_family(14, cap=4)
    tab = family.columns()
    P = len(prototile_catalog(14).prototiles)
    assert len(tab.count) == len(family) * P
    assert len(tab.rot) < len(tab.tidx)


# -- the column-built rule family against dict-made members ----------------

def dict_family(d, cap, rng_seed=0):
    """The family as RuleSets made from rule dicts, each flipped site's
    pair replaced by its `new` Tiles (the per-site construction)."""
    q = d // 2
    base = derive_rules(d, q, 1)
    start = rule_starts(d, base)
    sites = [(name, (s.i - start[name], s.j - start[name]), s.new)
             for name, s in ensembles._site_groups(d, base)]
    chosen = []
    for size in range(1, len(sites) + 1):
        for combo in itertools.combinations(range(len(sites)), size):
            keys = [(name, k) for name, ij, _ in (sites[c] for c in combo)
                    for k in ij]
            if len(set(keys)) == len(keys):
                chosen.append(combo)
                if len(chosen) >= cap:
                    break
        else:
            continue
        break
    if len(chosen) > cap - 1:
        chosen = random.Random(rng_seed).sample(chosen, cap - 1)
    members = [RuleSet(d, q, 1, dict(base.rules))]
    for combo in chosen:
        rules = {n: list(ch) for n, ch in base.rules.items()}
        for c in combo:
            name, ij, news = sites[c]
            for k, new in zip(ij, news):
                rules[name][k] = (new.name, new.iso)
        members.append(RuleSet(d, q, 1, {n: tuple(ch)
                                         for n, ch in rules.items()}))
    return members


@pytest.mark.parametrize("cap", [1, 4, 64])
def test_column_rule_family_matches_dict_members(cap):
    d = 14
    f = field_for_order(d)
    got = ensembles.random_rule_family(d, cap=cap).columns()
    members = dict_family(d, cap)
    want = ensembles.RandomRuleFamily(d, members).columns()
    for key in ("count", "start", "ids", "r"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    # rot[tidx, s] = (translation row) @ R[s] on both sides, for every s,
    # row j of R[s] the row of zeta^(s + j)
    rows = [h.t for m in members for name in ensembles.prototile_ids(d)[0]
            for _, h in m.rules.get(name, ())]
    den = math.lcm(*(e.den for e in rows))
    assert got.den == den
    trans = np.array([[c * (den // e.den) for c in e.num] for e in rows])
    assert np.array_equal(got.rot[got.tidx, 0], trans)
    for s in range(f.n):
        R = np.array([f.zeta(s + j).num for j in range(f.degree)])
        assert np.array_equal(got.rot[:, s], got.rot[:, 0] @ R)


# -- rearrangement runs against full scans ----------------------------------

def flip_key(flip):
    return flip.ids, flip.r, flip.t.tobytes(), flip.den


def site_keys(sites):
    return [(s.side, s.i, s.j, flip_key(s.flip)) for s in sites]


@pytest.mark.parametrize("n", [3, 4], ids=["678-tiles", "5577-tiles"])
def test_chain_sites_match_full_scans(n):
    """The flip chain of rearrangement_run against full rescans: after
    every step k <= 300, a run of k steps equals k rescans, each flipping
    by apply_flip the site that the same rng.choice picks from a full
    find_flippable; and each rescan finds the first scan's sites less the
    ones flipped, in the same order."""
    patch = inflated(14, "G", placements(14)[1], derive_rules(14, 3, 1), n)
    ref, sites = patch, ensembles.find_flippable(patch)
    left = site_keys(sites)
    rng = random.Random(n)
    k = 0
    while sites and k < 300:
        site = rng.choice(sites)
        left.remove(site_keys([site])[0])
        ref = ensembles.apply_flip(ref, site)
        sites = ensembles.find_flippable(ref)
        assert site_keys(sites) == left
        k += 1
        got, made = ensembles.rearrangement_run(patch, k, n)
        assert made == k
        assert_same_columns(got, ref)
    assert k == min(300, {3: 69, 4: 566}[n])
    if not sites:
        got, made = ensembles.rearrangement_run(patch, k + 10, n)
        assert made == k
        assert_same_columns(got, ref)


# -- the flip table against placement on exact corners ----------------------

def site_corners(d, site):
    """(u, v, w1, w2): the shared side u -> v of tile i, the far corner w1
    of tile i and the far corner w2 of tile j, from exact corners."""
    ci, cj = (tile.corners(d) for tile in site.old)
    keys_j = {c.key() for c in cj}
    (k,) = [k for k in range(3) if ci[k].key() in keys_j
            and ci[(k + 1) % 3].key() in keys_j]
    u, v, w1 = (ci[(k + m) % 3] for m in range(3))
    (w2,) = [c for c in cj if c.key() not in {u.key(), v.key()}]
    return u, v, w1, w2


def place_shape(d, corners):
    """(name, Isometry) of the first catalog prototile directly congruent
    to corners, picked by exact side classes and match_triangles."""
    classes = [edge_class(d, corners[(k + 1) % 3] - corners[k])
               for k in range(3)]
    if None in classes:
        return None
    for proto in prototile_catalog(d).prototiles:
        if sorted(proto.side_classes) == sorted(classes):
            g, _ = match_triangles(tile_corners(d, proto.name), corners)
            if g is not None:
                return proto.name, g
    return None


@pytest.mark.parametrize("d, k, inverse", [
    (14, 0, False), (14, 2, False), (10, 0, False), (12, 0, False),
    (8, 0, False),
    # the inverse flips, class q-1 edge to class q diagonal, exist only
    # where forward flips were made
    (14, 0, True), (8, 0, True),
], ids=["14-0", "14-2", "10-0", "12-0", "8-0", "14-0-inverse",
        "8-0-inverse"])
def test_flip_table_sites_match_place_shape(d, k, inverse):
    name = "G" if d == 14 else prototile_catalog(d).prototiles[0].name
    base = inflated(d, name, placements(d)[k], derive_rules(d, 3, 1), 3)
    if inverse:
        patches = [ensembles.rearrangement_sample(base, 50, 0)]
        classes = {"edge_class": d // 2 - 1, "diag_class": d // 2}
    else:
        patches = [base, ensembles.rearrangement_sample(base, 5, 1)]
        classes = {}
    seen = 0
    for patch in patches:
        for site in ensembles.find_flippable(patch, **classes):
            u, v, w1, w2 = site_corners(d, site)
            for new, corners in zip(site.new, ((w1, u, w2), (w2, v, w1))):
                assert place_shape(d, corners) == (new.name, new.iso)
            quad = (u, w2, v, w1)
            assert all(cross_sign(quad[(m + 1) % 4] - quad[m],
                                  quad[(m + 2) % 4] - quad[(m + 1) % 4]) > 0
                       for m in range(4))
            seen += 1
    assert seen


# -- the rule family's size cap ---------------------------------------------

@pytest.mark.parametrize("cap", [0, -3])
def test_rule_family_rejects_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        ensembles.random_rule_family(14, cap=cap)


def test_cli_rejects_cap_below_one(tmp_path, capsys):
    from deltiling.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["random", "--d", "14", "--mode", "subst", "--cap", "0",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cap must be at least 1" in err and "Sample larger" not in err
    assert not list(tmp_path.iterdir())
