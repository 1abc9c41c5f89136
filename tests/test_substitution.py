"""Substitution rules: congruent placement, golden tables, edge words."""

import cmath
import collections
import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from deltiling.arrangement import (SymmetryIndex, TriangleId,
                                   classify_triple, edge_class,
                                   get_arrangement)
from deltiling.field import (Elem, field_for_order, inflation_factor,
                             reduce_columns)
from deltiling import random as ensembles
from deltiling import substitution
from deltiling.prototiles import EdgeLetter, prototile_catalog
from deltiling.substitution import (Isometry, Patch, RuleSet, Tile,
                                    check_area_balance, derive_edge_words,
                                    derive_rules, edge_subdivision,
                                    identity_isometry, locate_inflated,
                                    match_triangles, mir, project, rho,
                                    tile_corners, verify_face_to_face)

#: published order-14, factor iota_{14,3} rules (prototile content only);
#: "h" marks the hat partner, "t" the mirror image
GOLDEN_14_3 = {
    "A":  "Ah Ot Bh Nt",
    "Ah": "P Aht O Cht",
    "B":  "Pt Ah Ot Ch Mt",
    "Bh": "Bht O Cht Nh Kht",
    "C":  "Ot Bh Nt Dh It Mt Ch Nht",
    "Ch": "Aht O Cht M Eht Dht N Bht",
    "D":  "Ot Ch Mt Eh Ht Iht Kh Nht",
    # the reference listing for Dh repeats Cht; the duplicate fails the
    # exact area balance (children must tile iota*Dh) and is dropped
    "Dh": "Cht Nh Kht Ih Lt Eht M Dht",
    "E":  "Nt Dh It Fh Fht Ht Eh Mt Iht",
    "Eh": "Cht M Eht H Gt Fht I Dht Jt",
    "F":  "Mt Eh Ht G Gt Ft L Iht Jht",
    "Fh": "Kht Ih Lt F Et Eht H Gt Fht",
    "G":  "It Fh Fht H Eht Ht G Gt Ft",
    "H":  "Dt E Ft G Ht Gt F Et Lt",
    "I":  "Ct D Et F Gt Lt Jh Kt",
    "Ih": "Iht L Jht K Ft E Dt Et",
    "J":  "Eht Ih Lt Jh Kt",
    "Jh": "Nht Kh Iht L Ft",
    "K":  "Mt Dh It J Jt",
    "Kh": "Bht N Dht I Fht",
    "L":  "Dht I Jt J Fht Fh It Ht",
    "M":  "Bt C Dt E Ft Et D Ct Kt",
    "N":  "At B Ct D Et",
    "Nh": "Ct C Dt K Jht",
    "O":  "A Bt C Dt At B Ct",
    "P":  "A Bt",
}

#: published letter substitution for iota_{14,3}, positive variant
GOLDEN_WORDS_14_3 = {
    (1, 1): "W3^-",
    (2, 1): "W4^-W2^-",
    (3, 1): "W5^-W3^-W1^-",
    (4, 1): "W6^-W4^-W2^-",
    (5, 1): "W7^0W5^-W3^-",
    (6, 1): "W6^+W6^-W4^-",
    (7, 0): "W5^+W7^0W5^-",
}


def counts(rules, name):
    return collections.Counter(n for n, _ in rules.rules[name])


def word_str(word):
    return "".join(str(l) for l in word)


def test_isometry_algebra():
    f = field_for_order(14)
    g = Isometry(5, f.zeta(2) + f.one)
    h = Isometry(80, f.zeta(7))
    z = f.zeta(3) * 2
    assert g.compose(h)(z) == g(h(z))
    assert g.inverse().compose(g)(z) == z
    assert identity_isometry(f)(z) == z


def test_match_triangles_detects_congruence():
    f = field_for_order(14)
    tri = (f.zero, f.one * 2, f.zeta(10))
    g = Isometry(13, f.zeta(4) - f.one)
    moved = tuple(g(c) for c in tri)
    for shift in range(3):
        rolled = tuple(moved[(k + shift) % 3] for k in range(3))
        h, sh = match_triangles(tri, rolled)
        assert h is not None and sh == shift
        assert all(h(tri[k]) == rolled[(k - sh) % 3] for k in range(3))
    # a mirrored triangle has no direct match
    mirrored = tuple(c.conj() for c in tri)
    h, _ = match_triangles(tri, mirrored)
    assert h is None


def test_isometry_matches_full_multiply():
    # mul_zeta-based apply/compose/inverse equal the zeta^r * w formulas
    rng = random.Random(3)
    for d in (14, 13):
        f = field_for_order(d)

        def elem():
            return f.from_coeffs([rng.randint(-3, 3) for _ in range(f.degree)],
                                 rng.randint(1, 4))

        for _ in range(5):
            g = Isometry(rng.randrange(f.n), elem())
            h = Isometry(rng.randrange(f.n), elem())
            z = elem()
            assert g(z) == f.zeta(g.r) * z + g.t
            assert g.compose(h) == Isometry((g.r + h.r) % f.n,
                                            f.zeta(g.r) * h.t + g.t)
            assert g.inverse() == Isometry((-g.r) % f.n,
                                           f.zeta(-g.r) * g.t * -1)
        g = Isometry(0, elem())
        assert g.inverse() == Isometry(0, g.t * -1)


@pytest.mark.parametrize("d", [14, 13])
def test_match_triangles_recovers_placements(d):
    # every prototile, placed by a seeded zeta^r w + t, is matched by
    # exactly that isometry; mirrored and iota-scaled copies never match
    f = field_for_order(d)
    rng = random.Random(d)
    iota = inflation_factor(d, 2)
    for proto in prototile_catalog(d).prototiles:
        rep = tile_corners(d, proto.name)
        for _ in range(2):
            t = f.from_coeffs([rng.randint(-3, 3) for _ in range(f.degree)],
                              rng.randint(1, 3))
            place = Isometry(rng.randrange(f.n), t)
            placed = tuple(place(c) for c in rep)
            assert match_triangles(rep, placed) == (place, 0)
            for shift in (1, 2):
                rolled = tuple(placed[(k + shift) % 3] for k in range(3))
                assert match_triangles(rep, rolled) == (place, shift)
            mirrored = tuple(c.conj() for c in placed)
            assert match_triangles(rep, mirrored) == (None, None)
            scaled = tuple(c * iota for c in placed)
            assert match_triangles(rep, scaled) == (None, None)


def test_locate_inflated_published_example():
    # iota_{14,3} times the tile with indices (4, 10, 13) is congruent to
    # the class-3 triangle (10, 2, 5) of the same arrangement
    sym = SymmetryIndex(14, 0)
    tri = classify_triple(sym, 4, 10, 13)  # prototile F
    sym2, tri2, g = locate_inflated(sym, tri, 3)
    assert sym2 == sym
    assert tri2.idx == (2, 5, 10)
    assert tri2.p_class == 3


def test_golden_rules_14_3():
    rules = derive_rules(14, 3, 1)
    assert set(rules.rules) == \
        set(GOLDEN_14_3) | {n + "t" for n in GOLDEN_14_3}
    for name, expect in GOLDEN_14_3.items():
        assert counts(rules, name) == collections.Counter(expect.split()), name
    # mirror tiles substitute to the mirrored content
    for name, expect in GOLDEN_14_3.items():
        mirrored = collections.Counter(
            n[:-1] if n.endswith("t") else n + "t" for n in expect.split())
        assert counts(rules, name + "t") == mirrored, name


def test_children_tile_the_inflated_parent_exactly():
    # child areas sum to iota^2 times the parent area (floats, tight tol)
    rules = derive_rules(14, 3, 1)
    iota2 = abs(inflation_factor(14, 3).cvalue()) ** 2

    def area(name, iso=None):
        a, b, c = [z.cvalue() for z in tile_corners(14, name, iso)]
        return abs(((b - a).conjugate() * (c - a)).imag) / 2

    for name, children in rules.rules.items():
        got = sum(area(n, h) for n, h in children)
        assert abs(got - iota2 * area(name)) < 1e-9 * iota2


def rule_listing(d, p, sign):
    """Every child placement (r, den, numerators) and every edge word."""
    rules = derive_rules(d, p, sign)
    lines = [f"rules {d} {p} {sign:+d}"]
    for name in sorted(rules.rules):
        for cname, h in rules.rules[name]:
            lines.append(f"{name} {cname} {h.r} {h.t.den} "
                         + " ".join(map(str, h.t.num)))
    words = derive_edge_words(rules)
    for letter in sorted(words, key=lambda l: (l.cls, l.orient)):
        lines.append(f"{letter} -> {word_str(words[letter])}")
    return lines


def test_rules_and_edge_words_unchanged_d5_to_d14():
    # sha256 of the listing of every (d, p, +-) for d = 5..14, recorded
    # before rule derivation read corners, decorations and centroids from
    # the arrangement and catalog tables
    digest = hashlib.sha256()
    for d in range(5, 15):
        lines = [line for p in range(2, d // 2 + 1) for sign in (1, -1)
                 for line in rule_listing(d, p, sign)]
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == \
        "53a2c7c6aa9c7cc5488ce2dc9ac1fb27afcf48edfe202e2697eb8d76ae8a7512"


def test_area_balance_rejects_a_missing_or_extra_child():
    rules = derive_rules(14, 3, 1)
    check_area_balance(rules)
    children = rules.rules["G"]
    other = rules.rules["P"][0]
    for changed in (children[1:], children + (other,)):
        mutated = RuleSet(14, 3, 1, dict(rules.rules, G=changed))
        with pytest.raises(AssertionError, match="prototile: G$"):
            check_area_balance(mutated)


@pytest.mark.parametrize("mutation", ["drop", "add"])
def test_derive_rules_confirms_float_children_exactly(monkeypatch, mutation):
    # a centroid verdict that drops one child, or admits one face whose
    # centroid lies just outside the inflated prototile, is caught by the
    # exact area balance; the mask is (prototile, face), and exactly one
    # of its entries is flipped
    inside = substitution._inside_mask
    flipped = []

    def verdict(points, tris):
        ok = inside(points, tris)
        assert ok.shape == (len(tris), len(points))
        pick = (ok if mutation == "drop"
                else inside(points, tris, margin=-0.5) & ~ok)
        if not flipped and pick.any():
            k = tuple(np.argwhere(pick)[0])
            flipped.append(k)
            ok = ok.copy()
            ok[k] = not ok[k]
        return ok

    monkeypatch.setattr(substitution, "_inside_mask", verdict)
    with pytest.raises(AssertionError, match="children do not fill"):
        derive_rules.__wrapped__(7, 2, 1)
    assert len(flipped) == 1


def test_golden_edge_words_14_3():
    words = derive_edge_words(derive_rules(14, 3, 1))
    assert len(words) == 13  # W1..W6 both orientations, W7^0
    for (cls, orient), expect in GOLDEN_WORDS_14_3.items():
        assert word_str(words[EdgeLetter(cls, orient)]) == expect


def test_edge_word_mirror_relation():
    # phi(W^i) = Mir(rho(phi(W^{-i})))
    for d, p in [(14, 3), (14, 5), (9, 2), (12, 5)]:
        words = derive_edge_words(derive_rules(d, p, 1))
        for l, w in words.items():
            assert w == mir(rho(words[l.negated()]))


def test_edge_words_project_to_subdivision():
    # dropping orientations gives the S-index subdivision of the edge
    for d, p in [(14, 3), (14, 5), (10, 4), (9, 4)]:
        words = derive_edge_words(derive_rules(d, p, 1))
        for l, w in words.items():
            expect = [min(n, d - n) for n in edge_subdivision(d, p, l.cls)]
            got = list(project(w))
            # reading direction depends on the orientation of the letter
            assert got == (expect[::-1] if l.orient == 1 else expect)


def test_negative_variant_relations():
    # Phi_-(T) has the prototile content of Phi_+ applied to the
    # orientation-negated partner, and its words swap orientations
    for d, p in [(14, 3), (9, 3), (10, 3)]:
        plus = derive_rules(d, p, 1)
        minus = derive_rules(d, p, -1)
        cat = prototile_catalog(d)
        for proto in cat.prototiles:
            partner = cat.tilde_hat(proto)
            assert counts(minus, proto.name) == counts(plus, partner.name)
        wp = derive_edge_words(plus)
        wm = derive_edge_words(minus)
        for l, w in wm.items():
            assert w == wp[l.negated()]


def test_substitution_matrix():
    rules = derive_rules(14, 3, 1)
    M, order = rules.matrix(sorted(rules.rules))
    assert M.shape == (52, 52)
    # column j sums to the child count of prototile j
    for j, name in enumerate(order):
        assert M[:, j].sum() == len(rules.rules[name])
    # counts match the rule content
    i = order.index("G")
    assert M[i, order.index("G")] == 1
    assert M[i, order.index("F")] == 1


def test_iterated_patch_face_to_face():
    rules = derive_rules(14, 3, 1)
    patch = Patch.single(14, "G")
    for _ in range(3):
        patch = patch.inflate(rules)
    rep = verify_face_to_face(patch, decorated=True)
    assert rep.ok, str(rep)
    # tile count agrees with the cubed substitution matrix
    M, order = rules.matrix()
    import numpy as np
    assert len(patch) == int(np.linalg.matrix_power(M, 3)
                             [:, order.index("G")].sum())


def test_mixed_factor_composition():
    # rules with different factors over the same prototile set compose
    r3 = derive_rules(14, 3, 1)
    r5 = derive_rules(14, 5, -1)
    patch = Patch.single(14, "F").inflate(r3).inflate(r5)
    rep = verify_face_to_face(patch, decorated=True)
    assert rep.ok, str(rep)


def test_other_orders_smoke():
    for d, p in [(7, 2), (8, 3), (9, 2), (12, 4), (15, 2)]:
        rules = derive_rules(d, p, 1)
        cat = prototile_catalog(d)
        assert set(rules.rules) == {t.name for t in cat.prototiles}
        derive_edge_words(rules)  # asserts internal consistency
        name = cat.prototiles[0].name
        patch = Patch.single(d, name).inflate(rules).inflate(rules)
        rep = verify_face_to_face(patch, decorated=True)
        assert rep.ok, f"d={d} p={p}: {rep}"


#: where a corner of B sits along an edge of A in the T-junction patches
T_JUNCTION_FRACTIONS = (Fraction(1, 50), Fraction(1, 20), Fraction(19, 20),
                        Fraction(49, 50))


def t_junction_tile(d, a_name, k, lam, b_name, j):
    """Prototile b_name with corner j at fraction lam along edge k of
    prototile a_name (at the identity), its corner bisector along the
    outward normal of that edge."""
    f = field_for_order(d)
    ca = tile_corners(d, a_name)
    a, b = ca[k], ca[(k + 1) % 3]
    outward = cmath.phase(-1j * (b - a).cvalue())
    point = a + (b - a) * lam
    cb = tile_corners(d, b_name)
    u = (cb[(j + 1) % 3] - cb[j]).cvalue()
    w = (cb[(j + 2) % 3] - cb[j]).cvalue()
    bisector = cmath.phase(u / abs(u) + w / abs(w))
    r = round((outward - bisector) * f.n / (2 * math.pi)) % f.n
    return Tile(b_name, Isometry(r, point - cb[j].mul_zeta(r)))


def t_junction_patches(d):
    """Two-tile patches with a corner of B strictly inside an edge of A.

    For every prototile A, edge of A, fraction, prototile B and corner of
    B, that corner is placed exactly on the edge and B is turned so that
    its corner bisector points along the outward normal of the edge.
    """
    f = field_for_order(d)
    names = [p.name for p in prototile_catalog(d).prototiles]
    for a_name in names:
        for k in range(3):
            for lam in T_JUNCTION_FRACTIONS:
                for b_name in names:
                    for j in range(3):
                        yield Patch(d, [Tile(a_name, identity_isometry(f)),
                                        t_junction_tile(d, a_name, k, lam,
                                                        b_name, j)])


def test_t_junctions_near_edge_ends_are_rejected():
    # d = 5 edges reach 2.236, so corners near an edge end lie several
    # unit cells away from the edge midpoint
    patches = list(t_junction_patches(5))
    assert len(patches) == 576
    missed = [p for p in patches if verify_face_to_face(p).ok]
    assert not missed, f"{len(missed)} T-junctions reported face-to-face"
    rep = verify_face_to_face(patches[0])
    assert any("T-junction" in problem for problem in rep.problems)


# -- the per-child derivation, kept as the reference for the columns -----

def reference_rotation_index(num, den):
    f = den.f
    zn, zd = num.cvalue(), den.cvalue()
    if abs(abs(zn) - abs(zd)) > 1e-6 * max(abs(zn), abs(zd)):
        return None
    r = round(cmath.phase(zn * zd.conjugate()) * f.n / (2 * cmath.pi)) % f.n
    return r if den.mul_zeta(r) == num else None


def reference_match(src, dst):
    """First cyclic shift with dst[k] = g(src[k + shift]), field arithmetic."""
    b0, b1, b2 = dst
    for shift in range(3):
        a0, a1, a2 = (src[(k + shift) % 3] for k in range(3))
        r = reference_rotation_index(b1 - b0, a1 - a0)
        if r is not None:
            g = Isometry(r, b0 - a0.mul_zeta(r))
            if g(a2) == b2:
                return g
    return None


def reference_targets(sym, tri, p, sign):
    """The targets the search tried for iota * tri, in order: the class of
    `_target_preference` and then the other one, then kappa', then every
    label shift n with 3n = (kappa' + s) - sigma (mod d), keeping
    class-p triangles."""
    d = sym.d
    branch = tri.m_class if tri.m_class <= d // 2 else tri.m_class - d
    signed = substitution._signed_triple(sym, tri.idx)
    pref = substitution._target_preference(d, p, branch, sign)
    for s in (pref, -pref):
        for k2 in ((0,) if d % 3 else (0, -2, 2)):
            rhs = (k2 + s - tri.sigma) % d
            for n in [n for n in range(d) if (3 * n) % d == rhs]:
                sym2 = SymmetryIndex(d, k2)
                tri2 = substitution._internal_tri(
                    sym2, tuple(x + n for x in signed))
                if tri2.p_class == p:
                    yield sym2, tri2


def reference_locate(sym, tri, corners, p, sign):
    src = tuple(c * inflation_factor(sym.d, p) for c in corners)
    for sym2, tri2 in reference_targets(sym, tri, p, sign):
        dst, _ = get_arrangement(sym.d, sym2.kappa).corners(tri2)
        g = reference_match(src, dst)
        if g is not None:
            return sym2, g, dst
    raise AssertionError("no congruent inflated image")


def reference_point_in_triangle(p, tri, margin=1e-9):
    return all(((tri[(k + 1) % 3] - tri[k]).conjugate() * (p - tri[k])).imag
               >= margin for k in range(3))


def reference_rules(d, p, sign):
    """Children one by one: Elem placements, compose, point tests, sort."""
    cat = prototile_catalog(d)
    faces = {}
    for kappa in ((0,) if d % 3 else (0, -2, 2)):
        faces[kappa] = []
        for tri, corners, centroid in get_arrangement(d, kappa).face_table():
            proto, r = cat.classify(cat.faces[kappa, tri.idx].letters)
            place = reference_match(tile_corners(d, proto.name),
                                    tuple(corners[(k + r) % 3]
                                          for k in range(3)))
            faces[kappa].append((proto.name, place, centroid))
    rules = {}
    for proto in cat.prototiles:
        sym2, g, tcorners = reference_locate(proto.face.sym, proto.face.tri,
                                             tile_corners(d, proto.name), p,
                                             sign)
        tri_fl = [c.cvalue() for c in tcorners]
        inv = g.inverse()
        children = [(name, inv.compose(place))
                    for name, place, centroid in faces[sym2.kappa]
                    if reference_point_in_triangle(centroid, tri_fl)]
        children.sort(key=lambda ch: (ch[0], ch[1].key()))
        rules[proto.name] = tuple(children)
    return RuleSet(d, p, sign, rules)


@pytest.mark.parametrize("d", range(5, 17))
def test_column_derivation_equals_per_child_reference(d):
    for p in range(2, d // 2 + 1):
        for sign in (1, -1):
            got = derive_rules(d, p, sign)
            want = reference_rules(d, p, sign)
            for name, children in want.rules.items():
                assert [(n, h.r, h.t.key()) for n, h in got.rules[name]] == \
                    [(n, h.r, h.t.key()) for n, h in children], (d, p, sign)
            a, b = vars(got.columns()), vars(want.columns())
            assert a.keys() == b.keys()
            for key, value in a.items():
                assert np.array_equal(value, b[key]), (d, p, sign, key)
                assert np.asarray(value).dtype == np.asarray(b[key]).dtype


def test_target_is_the_first_candidate():
    # the closed-form target of every prototile of the 390 rule sets of
    # d = 5..30 is the first class-p candidate of the search
    for d in range(5, 31):
        for proto in prototile_catalog(d).prototiles:
            sym, tri = proto.face.sym, proto.face.tri
            for p in range(2, d // 2 + 1):
                for sign in (1, -1):
                    assert substitution._target(sym, tri, p, sign) == \
                        next(reference_targets(sym, tri, p, sign)), \
                        (d, proto.name, p, sign)


def test_locate_raises_when_every_candidate_fails(monkeypatch):
    # a `_target` that sends one prototile to its own triangle, never
    # congruent to its inflated image
    proto = prototile_catalog(7).prototiles[3]
    target = substitution._target

    def decoy(sym, tri, p, sign):
        if tri == proto.face.tri:
            return sym, tri
        return target(sym, tri, p, sign)

    monkeypatch.setattr(substitution, "_target", decoy)
    with pytest.raises(AssertionError, match="no congruent inflated image"):
        derive_rules.__wrapped__(7, 2, 1)
    with pytest.raises(AssertionError, match="no congruent inflated image"):
        locate_inflated(proto.face.sym, proto.face.tri, 2)


@pytest.mark.parametrize("d", range(5, 31))
def test_label_shifts_equal_the_scan(d):
    # the closed-form kappa' and label shift of `_target` against trying
    # every kappa' and then every n in order, on triangles of every index
    # sum 3..d + 2, so of every sigma and class
    for kappa in ((0,) if d % 3 else (0, -2, 2)):
        sym = SymmetryIndex(d, kappa)
        for idx in [(0, 1, nu) for nu in range(2, d)] + \
                [(1, 2, nu) for nu in range(3, d)]:
            tri = TriangleId(sym, idx)
            branch = tri.m_class if tri.m_class <= d // 2 else tri.m_class - d
            signed = substitution._signed_triple(sym, tri.idx)
            for p in range(2, d // 2 + 1):
                for sign in (1, -1):
                    s = substitution._target_preference(d, p, branch, sign)
                    k2, n = next(
                        (k2, n) for k2 in ((0,) if d % 3 else (0, -2, 2))
                        for n in range(d)
                        if (3 * n - k2 - s + tri.sigma) % d == 0)
                    sym2 = SymmetryIndex(d, k2)
                    assert substitution._target(sym, tri, p, sign) == (
                        sym2, substitution._internal_tri(
                            sym2, tuple(x + n for x in signed))), \
                        (tri, p, sign)


def test_turn_equals_the_rotation_matrices():
    # zeta^k x for blocks of rows sharing k against the matrices R[k] of
    # w -> zeta^k w, row j of R[k] the row of zeta^(k + j); rows of width
    # 2D - 1 against the sum of x_j zeta^(k + j) in the field; every turn
    # at once, written into a narrow dtype
    rng = np.random.default_rng(5)
    for d in (7, 14, 13):
        f = field_for_order(d)
        D = f.degree
        R = np.array([[f.zeta(k + j).num for j in range(D)]
                      for k in range(f.n)])
        k = rng.integers(0, f.n, size=(2, 2))
        k[1, 1] = k[0, 0]
        x = rng.integers(-10 ** 6, 10 ** 6, size=(2, 2, 3, D))
        want = np.einsum("abij,abjk->abik", x, R[k])
        assert np.array_equal(f.turn(x, k), want)
        wide = rng.integers(-50, 50, size=(4, 2 * D - 1))
        for kk in (0, f.n // 2 - D + 1, f.n - D):
            want = [sum((f.zeta(kk + j) * int(c) for j, c in enumerate(row)),
                        f.zero).num for row in wide.tolist()]
            assert f.turn(wide, kk).tolist() == [list(w) for w in want]
        small = rng.integers(-3, 4, size=(5, 3, D))
        every = f.turns(small, np.int16)
        assert every.dtype == np.int16
        assert np.array_equal(every, np.einsum("ijl,klm->ikjm", small, R))


@pytest.mark.parametrize("d", [5, 9, 13, 14])
def test_area_rows_equal_the_field_products(d):
    # 2i times twice the area, conj(b - a) (c - a) minus its conjugate,
    # from integer rows equals the Elem products
    substitution._area_rows.cache_clear()
    rows = substitution._area_rows(d)
    names, _ = substitution.prototile_ids(d)
    areas = []
    for name in names:
        a, b, c = tile_corners(d, name)
        x = (b - a).conj() * (c - a)
        areas.append(x - x.conj())
    want, wden = substitution._common_den(areas, field_for_order(d).degree)
    assert wden == 1 and rows.dtype == want.dtype
    assert np.array_equal(rows, want)


# -- the dict/round T-junction search and np.unique pairing, kept as the
# -- references for the sorted cell grid and the one-sort pairing --------

def reference_row_ids(rows):
    """Ids in the lexicographic order of the signed rows, by `np.unique`."""
    flat = rows.reshape(-1, rows.shape[-1]).astype(np.int64)
    _, first, inv = np.unique(flat, axis=0, return_index=True,
                              return_inverse=True)
    return inv.reshape(rows.shape[:-1]), first


def reference_tile_edges(pid):
    a = pid.ravel()
    b = pid[:, [1, 2, 0]].ravel()
    n = int(pid.max()) + 1 if pid.size else 0
    _, first, eid, count = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                     return_index=True, return_inverse=True,
                                     return_counts=True)
    order = np.argsort(eid, kind="stable")
    start = np.cumsum(count) - count
    side2 = order[np.minimum(start + 1, len(order) - 1)]
    return first, count, side2, a < b


@pytest.mark.parametrize("top", [0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 32 + 5,
                                 2 ** 48 + 1, 2 ** 51, 2 ** 52 - 1, 2 ** 52,
                                 2 ** 63 - 1])
@pytest.mark.parametrize("size", [0, 1, 3000, 4096, 4097])
def test_stable_argsort_is_numpys(top, size, monkeypatch):
    # 1 to 4 digits of 16 bits: random keys up to top, every other one
    # of a few values, so ties decide much of the order; top occurs.
    # Keys of 52 bits and indices of 12 (4,096 keys) fill 64 bits, so they
    # are sorted with their indices; one bit more takes the digit sort
    rng = np.random.default_rng(top % 1000 + size)
    key = rng.integers(0, top, size, endpoint=True)
    key[::2] = rng.choice([0, top // 3, top // 2, top], len(key[::2]))
    if size:
        key[-1] = top
    want = np.argsort(key, kind="stable")
    ordered = key[want]
    index_sorts = []
    index_sort = substitution._index_sort
    monkeypatch.setattr(substitution, "_index_sort", lambda word, b: (
        index_sorts.append(b) or index_sort(word, b)))
    got = substitution._stable_argsort(key)
    assert got.dtype == np.intp
    assert np.array_equal(got, want)
    # the keys are sorted in place
    assert np.array_equal(key, ordered)
    bits = top.bit_length() + max(size - 1, 0).bit_length()
    assert len(index_sorts) == (bits <= 64)
    # all-equal keys keep their order
    same = np.full(size, top, dtype=np.int64)
    assert np.array_equal(substitution._stable_argsort(same), np.arange(size))
    assert np.array_equal(same, np.full(size, top))


def reference_t_junctions(f, points, den, starts, ends, max_problems):
    """Corners binned in a dict by two `round`s, each edge's cells walked
    in Python, a fixed 1e-6 filter, then the exact test."""
    fl = f.cvalues(points, den).tolist()
    cells = {}
    for key, z in enumerate(fl):
        cells.setdefault((round(z.real), round(z.imag)), []).append(key)

    def exact(key):
        return substitution.Elem(f, points[key].tolist(), den).normalized()

    problems = []
    eps = 1e-6
    for ka, kb in zip(starts.tolist(), ends.tolist()):
        af, bf = fl[ka], fl[kb]
        w = bf - af
        span2 = abs(w) ** 2
        xs = range(round(min(af.real, bf.real) - eps),
                   round(max(af.real, bf.real) + eps) + 1)
        ys = range(round(min(af.imag, bf.imag) - eps),
                   round(max(af.imag, bf.imag) + eps) + 1)
        for cell in ((x, y) for x in xs for y in ys):
            for key in cells.get(cell, ()):
                if key == ka or key == kb:
                    continue
                v = (fl[key] - af) * w.conjugate()
                if abs(v.imag) > eps * span2 \
                        or not -eps * span2 < v.real < (1 + eps) * span2:
                    continue
                if substitution._inside_edge(exact(ka), exact(kb),
                                             exact(key)):
                    problems.append("tile corner inside a boundary edge "
                                    f"(T-junction near {(af + bf) / 2:.3f})")
        if len(problems) >= max_problems:
            break
    return problems


def test_inside_edge_equals_the_two_product_test():
    # one product against the old test, conj(u) (c - a) = s |u|^2 real
    # with 0 < s < 1 for u = b - a, on every ordered triple (repeats too)
    # of a d = 5 tile's corners, points on its first edge's line at
    # s = -1/2, 0, 1/50, 1/2, 49/50, 1, 3/2 and one just off it
    f = field_for_order(5)
    a, b, c = tile_corners(5, prototile_catalog(5).prototiles[0].name)
    points = [a, b, c] + [a + (b - a) * Fraction(*s) for s in (
        (-1, 2), (0, 1), (1, 50), (1, 2), (49, 50), (1, 1), (3, 2))]
    off = (b - a).mul_zeta(f.n // 4) * Fraction(1, 10 ** 9)
    points.append(points[6] + off)

    def two_products(a, b, c):
        u = b - a
        w = u.conj() * (c - a)
        return (w == w.conj() and w.real_sign() > 0
                and (u * u.conj() - w).real_sign() > 0)

    inside = 0
    for x, y, z in itertools.product(points, repeat=3):
        got = substitution._inside_edge(x, y, z)
        assert got == two_products(x, y, z)
        inside += got
    # the nine points on the line (a and b twice) put one strictly
    # between two others in 142 ordered triples; the midpoint of [a, b]
    # lies inside it, and the point just off the line does not
    assert inside == 142
    assert substitution._inside_edge(a, b, points[6])
    assert not substitution._inside_edge(a, b, points[-1])


def reference_corner_ids(patch):
    """The corner ids of the whole corner matrix, by `np.unique`."""
    rows, _ = patch.corner_rows()
    return reference_row_ids(rows)


def reference_verify(patch, **kw):
    """`verify_face_to_face` on the reference pairing and T-junctions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(substitution, "_corner_ids", reference_corner_ids)
        mp.setattr(substitution, "tile_edges", reference_tile_edges)
        mp.setattr(substitution, "_t_junctions", reference_t_junctions)
        return verify_face_to_face(patch, **kw)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_matches_reference(patch, **kw):
    rows, _ = patch.corner_rows()
    pid, first = substitution.row_ids(rows)
    assert_same_arrays((pid, first), reference_row_ids(rows))
    # the keys built from blocks of corner rows number them alike
    assert_same_arrays(substitution._corner_ids(patch), (pid, first))
    assert_same_arrays(substitution.tile_edges(pid),
                       reference_tile_edges(pid))
    assert verify_face_to_face(patch, **kw) == reference_verify(patch, **kw)


@pytest.mark.parametrize("all_pairs", [substitution._ALL_PAIRS, 0],
                         ids=["all-pairs", "cell-grid"])
def test_t_junction_controls_match_reference(all_pairs, monkeypatch):
    # two-tile patches test every (edge, corner) pair; 0 sends them
    # through the cell grid
    monkeypatch.setattr(substitution, "_ALL_PAIRS", all_pairs)
    for patch in t_junction_patches(5):
        assert_matches_reference(patch)


def pinned_patches():
    d = 14
    f = field_for_order(d)
    rules = derive_rules(d, 3, 1)
    patch = Patch(d, [Tile("G", Isometry(5, f.rational(2) + f.i * -3))])
    for _ in range(3):
        patch = patch.inflate(rules)
    yield patch
    yield patch.inflate(rules)
    yield ensembles.rearrangement_sample(patch, 12, 0)
    family = ensembles.random_rule_family(d, cap=4)
    yield ensembles.random_substitution("G", family, family.uniform_pi(), 3, 0)


@pytest.mark.parametrize("k", range(4), ids=["678-tiles", "5577-tiles",
                                             "rearranged", "draw"])
def test_large_patches_match_reference(k):
    patch = next(itertools.islice(pinned_patches(), k, None))
    assert_matches_reference(patch)
    assert_matches_reference(patch, decorated=False)


def test_row_ids_number_rows_in_value_order():
    # negative and positive coefficients, a zero column in every row, and
    # ranges that pack into one word and into several
    rng = np.random.default_rng(3)
    for hi, width in [(3, 4), (40, 6), (300, 9), (2 ** 40, 3)]:
        rows = rng.integers(-hi, hi, size=(500, 2, width))
        rows[:, :, 1] = 0
        rows[::7] = rows[3]
        assert_same_arrays(substitution.row_ids(rows), reference_row_ids(rows))
    for zeros in (np.zeros((0, 3, 5), dtype=np.int64),
                  np.zeros((4, 3, 5), dtype=np.int16)):
        assert_same_arrays(substitution.row_ids(zeros),
                           reference_row_ids(zeros))


def test_row_ids_pack_a_column_of_64_bits():
    # a column over the whole int64 range fills one word, whose keys are
    # ordered only as unsigned integers; the next columns take a second
    top = np.iinfo(np.int64)
    rows = np.array([[top.max, 0, 1], [top.min, 5, 1], [0, 5, -1],
                     [top.min, 5, 1], [-1, 0, 1], [top.max, 0, 0],
                     [top.min + 1, 0, 0]], dtype=np.int64)
    W, off, free = substitution._packing(list(zip(
        rows.min(axis=0).tolist(), rows.max(axis=0).tolist())))
    assert W.tolist() == [[1, 0, 0], [0, 2 ** 61, 2 ** 59]]
    assert off.tolist() == [2 ** 63, 2 ** 64 - 2 ** 59]
    assert free == 59
    assert_same_arrays(substitution.row_ids(rows), reference_row_ids(rows))


@pytest.mark.parametrize("width", [54, 55])
def test_row_ids_at_the_packing_limit(width, monkeypatch):
    # 1,000 rows take 10 index bits: keys of 54 bits fill one word with
    # them and are sorted with their indices, keys of 55 bits take the
    # argsort; both number the rows as np.unique does
    rng = np.random.default_rng(width)
    lo, hi = -2 ** (width - 4), 2 ** (width - 4) - 1
    rows = np.zeros((1000, 4), dtype=np.int64)
    rows[:, 0] = rng.integers(-4, 3, 1000, endpoint=True)
    rows[:, 1] = rng.integers(lo, hi, 1000, endpoint=True)
    rows[:, 2] = 5
    rows[:2, :2] = [[-4, lo], [3, hi]]
    rows[::7] = rows[3]
    index_sorts = []
    index_sort = substitution._index_sort
    monkeypatch.setattr(substitution, "_index_sort", lambda word, b: (
        index_sorts.append(b) or index_sort(word, b)))
    assert_same_arrays(substitution.row_ids(rows), reference_row_ids(rows))
    assert index_sorts == ([10] if width + 10 <= 64 else [])


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_column_bounds_are_the_axis_0_extremes(dtype):
    # row counts below, at and past multiples of 64, with extremes in the
    # last row, which a count past a multiple of 64 reduces apart
    rng = np.random.default_rng(8)
    top = np.iinfo(dtype)
    for n in (1, 63, 64, 65, 200):
        rows = rng.integers(top.min // 2, top.max // 2, size=(n, 5),
                            dtype=dtype)
        rows[-1, :2] = top.max, top.min
        assert substitution._column_bounds(rows) == [
            rows.min(axis=0).tolist(), rows.max(axis=0).tolist()]


def test_problems_stop_at_max_problems():
    # four B corners on one boundary edge of A
    d = 5
    f = field_for_order(d)
    names = [p.name for p in prototile_catalog(d).prototiles]
    patch = Patch(d, [Tile(names[0], identity_isometry(f))]
                  + [t_junction_tile(d, names[0], 0, lam, names[1], 0)
                     for lam in T_JUNCTION_FRACTIONS])
    rep = verify_face_to_face(patch)
    assert sum("T-junction" in p for p in rep.problems) == 4
    for m in range(1, 7):
        got = verify_face_to_face(patch, max_problems=m)
        assert len(got.problems) == min(m, len(rep.problems))
        assert got == reference_verify(patch, max_problems=m)


def test_report_keeps_the_first_edge_problems():
    # every tile doubled: each edge is bad, and the report keeps the first
    # 20 problems of the full list
    d = 5
    patch = Patch.single(d, prototile_catalog(d).prototiles[0].name)
    for _ in range(4):
        patch = patch.inflate(derive_rules(d, 2, 1))
    ids, r, t, den = patch.columns
    doubled = Patch.from_columns(d, np.tile(ids, 2), np.tile(r, 2),
                                 np.tile(t, (2, 1)), den)
    full = verify_face_to_face(doubled, max_problems=10 ** 9)
    assert len(full.problems) > 20
    rep = verify_face_to_face(doubled)
    assert rep == dataclasses.replace(full, problems=full.problems[:20])
    assert rep == reference_verify(doubled)
    # fewer edge problems than max_problems: the T-junctions are still
    # searched for; the edge problems come in tile-edge order
    f = field_for_order(d)
    names = [p.name for p in prototile_catalog(d).prototiles]
    b = t_junction_tile(d, names[0], 0, Fraction(1, 20), names[1], 2)
    patch = Patch(d, [Tile(names[0], identity_isometry(f)), b, b])
    rep = verify_face_to_face(patch)
    letters = substitution.letter_table(d)[0][1]
    assert rep.problems[:3] == [
        f"edge traversed twice in the same direction ({l}, {l})"
        for l in letters]
    assert any("T-junction" in p for p in rep.problems[3:])
    assert rep == reference_verify(patch)


@pytest.mark.parametrize("d", range(5, 17))
def test_letter_classes_are_exact_side_classes(d):
    # the verifier compares no letter classes across a shared edge: both
    # sides have its exact length, so its class
    names, _ = substitution.prototile_ids(d)
    classes = substitution.letter_table(d)[1]
    for name, cls in zip(names, classes.tolist()):
        c = tile_corners(d, name)
        assert [edge_class(d, c[(k + 1) % 3] - c[k])
                for k in range(3)] == cls, name


def moved(patch, x):
    return Patch(patch.d, [Tile(t.name, Isometry(t.iso.r, t.iso.t + x))
                           for t in patch.tiles])


@pytest.mark.parametrize("k, bits, every", [(58, 40, 1), (80, 56, 8)])
def test_t_junctions_found_with_large_float_errors(k, bits, every,
                                                  monkeypatch):
    # x = iota^-k at (5, 2) has 40-bit (k = 58) or 56-bit (k = 80)
    # coefficients and |x| < 1e-12: the moved corners carry float errors
    # far above any fixed tolerance (at k = 80 the float value of x is
    # -0.5), so only the propagated cvalue_error bound keeps the
    # candidates; on the cell grid, at k = 80 it makes the cells larger
    # than 1
    monkeypatch.setattr(substitution, "_ALL_PAIRS", 0)
    d = 5
    f = field_for_order(d)
    x = f.rational(1)
    for _ in range(k):
        x = x * inflation_factor(d, 2).inv()
    assert max(abs(c) for c in x.num).bit_length() == bits
    assert abs(x.mpc(60)) < 1e-12 and x.cvalue_error() > 1e-3
    kept = [p for p in itertools.islice(t_junction_patches(d), 0, None, every)
            if verify_face_to_face(moved(p, x)).ok]
    assert not kept, f"{len(kept)} moved T-junctions reported face-to-face"
    rules = derive_rules(d, 2, 1)
    good = Patch.single(d, prototile_catalog(d).prototiles[0].name)
    for _ in range(3):
        good = good.inflate(rules)
    rep = verify_face_to_face(moved(good, x))
    assert rep.ok and rep.boundary_edges, str(rep)


def test_few_huge_error_corners_keep_the_cells_small(monkeypatch):
    # a two-tile T-junction moved by x = iota^-80 at (5, 2) (56-bit
    # coefficients, float error bound above 2000) beside a 2,584-tile
    # patch: its six corners must not make every cell that large, or
    # every boundary edge would be paired with every corner
    d = 5
    f = field_for_order(d)
    x = f.rational(1)
    for _ in range(80):
        x = x * inflation_factor(d, 2).inv()
    assert x.cvalue_error() > 1000
    rules = derive_rules(d, 2, 1)
    big = Patch.single(d, prototile_catalog(d).prototiles[0].name)
    for _ in range(8):
        big = big.inflate(rules)
    big = moved(big, f.rational(100))
    assert len(big) == 2584
    sizes = []
    candidates = substitution._candidates

    def counted(fl, err, starts, ends):
        edge, c = candidates(fl, err, starts, ends)
        assert np.all(np.diff(edge) >= 0)
        sizes.append((len(edge), len(starts), len(fl)))
        return edge, c

    monkeypatch.setattr(substitution, "_candidates", counted)
    assert verify_face_to_face(big).ok
    grid_pairs = sizes[-1][0]
    pair = moved(next(t_junction_patches(d)), x)
    rep = verify_face_to_face(Patch(d, big.tiles + pair.tiles))
    assert len(rep.problems) == 1 and "T-junction" in rep.problems[0]
    assert verify_face_to_face(Patch(d, big.tiles + pair.tiles[:1])).ok
    for n, edges, corners in sizes[-2:]:
        assert n <= grid_pairs + 6 * (edges + corners)
        assert n < edges * corners / 10


def power(x, k):
    y = x.f.rational(1)
    for _ in range(k):
        y = y * x
    return y


@pytest.mark.parametrize("d, p, shift", [
    (14, 3, lambda f: f.rational(1, 7) + f.zeta(3) * Fraction(1, 11)),
    (5, 2, lambda f: power(inflation_factor(5, 2).inv(), 58)),
], ids=["den77", "iota^-58"])
def test_t_junction_error_bounds_cover_every_column(d, p, shift,
                                                    monkeypatch):
    # the float error bound of each corner that `_t_junctions` hands to
    # the filter is the corner's Elem.cvalue_error, sum_j |c_j| (D + 8)
    # 2^-50 / den over every column: a bound without one used column
    # would be smaller at a corner with c_j != 0 (here at most two ulps
    # apart, against a relative 1e-13 for the smallest dropped |c_j| = 1)
    f = field_for_order(d)
    patch = Patch.single(d, prototile_catalog(d).prototiles[0].name)
    for _ in range(2):
        patch = patch.inflate(derive_rules(d, p, 1))
    patch = moved(patch, shift(f))
    seen = []
    candidates = substitution._candidates
    monkeypatch.setattr(substitution, "_candidates", lambda fl, err, *a: (
        seen.append(err) or candidates(fl, err, *a)))
    assert verify_face_to_face(patch).ok
    _, first = substitution._corner_ids(patch)
    points, den = patch.corner_rows(*np.divmod(first, 3))
    assert den == (77 if d == 14 else 1)
    assert (reduce_columns(np.bitwise_or, points) != 0).sum() >= 4
    want = [Elem(f, row, den).cvalue_error()
            for row in points.tolist()]
    [err] = seen
    assert np.allclose(err, want, rtol=1e-15, atol=0)


def overlap_witnesses():
    """G at the identity and G translated by 1/7 + z/11, z^5/13 or
    1/50 + z^3/31, z = zeta_28 = zeta_84^3: the two tiles overlap."""
    f = field_for_order(14)
    shifts = [f.rational(1, 7) + f.zeta(3) * Fraction(1, 11),
              f.zeta(15) * Fraction(1, 13),
              f.rational(1, 50) + f.zeta(9) * Fraction(1, 31)]
    return [Patch(14, [Tile("G", identity_isometry(f)),
                       Tile("G", Isometry(0, t))]) for t in shifts]


@pytest.mark.xfail(strict=True, reason="the verifier certifies no embedding "
                   "yet: overlapping tiles pass (ROADMAP item 1)")
@pytest.mark.parametrize("k", range(3))
def test_overlapping_tiles_are_rejected(k):
    assert not verify_face_to_face(overlap_witnesses()[k]).ok
