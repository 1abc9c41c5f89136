"""Decorated prototiles: decorations, signatures, catalogs, naming."""

from functools import lru_cache

import numpy as np
import pytest

from deltiling import prototiles
from deltiling.arrangement import (Arrangement, SymmetryIndex, cross_sign,
                                   edge_class, get_arrangement, length_class,
                                   triangular_pattern)
from deltiling.field import Elem
from deltiling.prototiles import (Catalog, EdgeLetter, LETTER_NAMES_14,
                                  canonical_rotation, child_symmetry, decorate,
                                  hat_signature, mirror_triple,
                                  prototile_catalog, signature,
                                  tilde_signature, undecorated_signature)
from deltiling.substitution import _inside_mask


def sig_str(sig):
    return " ".join(str(l) for l in sig)


def test_child_symmetry():
    assert child_symmetry(SymmetryIndex(14, 0)) == SymmetryIndex(28, 0)
    assert child_symmetry(SymmetryIndex(9, -2)) == SymmetryIndex(18, 2)


def _dot_sign(u, v):
    """Exact sign of Re(conj(u) v), the dot product of u and v."""
    w = u.conj() * v
    return (w + w.conj()).real_sign()


def test_decoration_edge_classes_match_triangle():
    sym = SymmetryIndex(14, 0)
    for tri in triangular_pattern(sym)[:10]:
        df = decorate(sym, tri)
        # letters carry the side classes of the triangle, in walk order
        assert sorted(l.cls for l in df.letters) == sorted(tri.side_classes)
        # inscribed corner k sits on side k, strictly between its ends
        for k, p in enumerate(df.inscribed):
            a, b = df.corners[k], df.corners[(k + 1) % 3]
            assert cross_sign(b - a, p - a) == 0
            assert _dot_sign(b - a, p - a) > 0 and _dot_sign(b - a, b - p) > 0


def _embed(x, target):
    """x re-expressed in the field `target`, whose conductor it divides."""
    k = target.n // x.f.n
    acc = target.zero
    for j, c in enumerate(x.num):
        if c:
            acc = acc + target.zeta(j * k) * c
    return acc / x.den


def search_decoration(sym, tri):
    """(corners, sides, inscribed, inscribed face) of `tri`, found by search.

    The order-2d faces whose float centroids lie inside the triangle are
    its refinement; the inscribed face is the one touching no corner, and
    each of its corners is matched to the side it lies on to 1e-9.
    """
    csym = child_symmetry(sym)
    child = get_arrangement(csym.d, csym.kappa)
    corners, opposite = get_arrangement(sym.d, sym.kappa).corners(tri)
    pc = tuple(_embed(c, child.f) for c in corners)
    ptri = [c.cvalue() for c in pc]
    table = child.face_table()
    inside = _inside_mask(np.array([cen for _, _, cen in table]), ptri)
    candidates = [(t, cc) for (t, cc, _), ok in zip(table, inside) if ok]
    assert len(candidates) == 4
    keys = {c.key() for c in pc}
    inner = [(t, cc) for t, cc in candidates
             if not any(c.key() in keys for c in cc)]
    assert len(inner) == 1
    child_tri, icorners = inner[0]
    inscribed = [None] * 3
    for p in icorners:
        for k in range(3):
            a, b = ptri[k], ptri[(k + 1) % 3]
            if abs(((b - a).conjugate() * (p.cvalue() - a)).imag) < 1e-9:
                assert inscribed[k] is None
                inscribed[k] = p
    sides = tuple(opposite[(k + 2) % 3] for k in range(3))
    return pc, sides, tuple(inscribed), child_tri


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 12, 13, 14])
def test_decoration_equals_search(d):
    # the closed-form decoration (child pair-table lookups) equals the
    # one found by float containment in the order-2d face table
    for kappa in ((0, -2, 2) if d % 3 == 0 else (0,)):
        sym = SymmetryIndex(d, kappa)
        for tri in triangular_pattern(sym):
            df = decorate(sym, tri)
            assert (df.corners, df.opposite, df.inscribed, df.child_tri) == \
                search_decoration(sym, tri)


@pytest.mark.parametrize("d", range(5, 31))
def test_section_classes_are_the_exact_section_lengths(d):
    # every side of every decorated face: the two section classes read
    # from chord indices equal the exact classes of the point differences,
    # and fix the side's letter
    d2 = 2 * d
    for (kappa, _), df in prototile_catalog(d).faces.items():
        child = get_arrangement(d2, -kappa)
        chord = [2 * i if kappa == 0 else (-2 * i - 2) % d2
                 for i in df.opposite]
        for k, letter in enumerate(df.letters):
            c, p, q = chord[k], chord[(k + 2) % 3], chord[(k + 1) % 3]
            mid = min(child.vertices[df.inscribed[k].key()].segs - {c})
            first = edge_class(d2, df.inscribed[k] - df.corners[k])
            second = edge_class(d2, df.corners[(k + 1) % 3] - df.inscribed[k])
            assert child.section_class(c, p, mid) == first
            assert child.section_class(c, mid, q) == second
            a = letter.cls
            assert {first, second} == {2 * a - 1, length_class(d2, 2 * a + 1)}
            assert letter.orient == (first < second) - (first > second)


def test_catalogs_build_without_field_products(monkeypatch):
    # the order-13 and order-14 catalogs, with their arrangements built
    # afresh, make no Elem x Elem product
    products = []
    mul = Elem.__mul__

    def counted(self, other):
        if isinstance(other, Elem):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Elem, "__mul__", counted)
    monkeypatch.setattr(prototiles, "get_arrangement", lru_cache(maxsize=None)(
        lambda d, kappa=0: Arrangement(SymmetryIndex(d, kappa))))
    for d in (14, 13):
        Catalog(d)
    assert len(products) == 0


def test_named_prototile_signatures():
    # the two order-14 tiles with published decorations
    cat = prototile_catalog(14)
    assert sig_str(cat.by_name["F"].signature) == "W3^- W6^- W5^-"
    assert sig_str(cat.by_name["G"].signature) == "W4^- W5^- W5^-"


def test_catalog_sizes():
    assert len(prototile_catalog(7).prototiles) == 10
    assert len(prototile_catalog(9).prototiles) == 20
    assert len(prototile_catalog(12).prototiles) == 38
    assert len(prototile_catalog(14).prototiles) == 52


def test_order14_names_and_triples():
    cat = prototile_catalog(14)
    names = {p.name for p in cat.prototiles}
    base = set(LETTER_NAMES_14.values())
    assert base <= names
    assert names == base | {n + "t" for n in base}
    # each base name's representative carries the published index triple
    for triple, name in LETTER_NAMES_14.items():
        assert cat.by_name[name].face.tri.idx == triple
    # and the mirror tile's representative is the negated triple
    for triple, name in LETTER_NAMES_14.items():
        assert cat.by_name[name + "t"].face.tri.idx == mirror_triple(14, triple)


def test_hat_and_tilde_partners_order14():
    cat = prototile_catalog(14)
    isosceles = {"G", "H", "L", "M", "O", "P"}
    for name in LETTER_NAMES_14.values():
        p = cat.by_name[name]
        t = cat.tilde(p)
        assert t is not None and t.name == name + "t"
        h = cat.hat(p)
        assert h is not None
        if name in isosceles:
            assert h.name == name  # self-hat
        elif name.endswith("h"):
            assert h.name == name[:-1]
        else:
            assert h.name == name + "h"


def test_tilde_hat_composition():
    cat = prototile_catalog(14)
    for p in cat.prototiles:
        th = cat.tilde_hat(p)
        assert th is not None
        # tilde-hat = tilde of hat = hat of tilde
        assert th is cat.tilde(cat.hat(p))
        assert th is cat.hat(cat.tilde(p))
        # involution
        assert cat.tilde(cat.tilde(p)) is p
        assert cat.hat(cat.hat(p)) is p


def test_undecorated_classes_order14():
    cat = prototile_catalog(14)
    groups = cat.undecorated_classes()
    # dropping orientations merges mirror pairs: 26 undecorated shapes
    assert len(groups) == 26
    for members in groups.values():
        assert len(members) == 2


def test_signature_functions():
    w = lambda c, o: EdgeLetter(c, o)
    letters = (w(5, -1), w(3, -1), w(6, -1))
    assert canonical_rotation(letters) == 1
    sig = signature(letters)
    assert sig_str(sig) == "W3^- W6^- W5^-"
    assert sig_str(tilde_signature(sig)) == "W3^+ W5^+ W6^+"
    assert sig_str(hat_signature(sig)) == "W3^- W5^- W6^-"
    assert undecorated_signature(sig) == (3, 6, 5)
    # the negated-orientation twin agrees once orientations are dropped
    neg = signature(tuple(l.negated() for l in sig))
    assert undecorated_signature(neg) == (3, 6, 5)


def test_every_face_classifies():
    # every decorated face of the pattern is congruent to a catalog tile
    for d, k in [(14, 0), (9, 0), (9, -2), (9, 2)]:
        cat = prototile_catalog(d)
        sym = SymmetryIndex(d, k)
        for tri in triangular_pattern(sym):
            df = decorate(sym, tri)
            proto, r = cat.classify(df.letters)
            assert proto.signature == tuple(df.rotated(r).letters)


def test_decorate_rejects_non_elementary():
    sym = SymmetryIndex(14, 0)
    from deltiling.arrangement import classify_triple
    t = classify_triple(sym, 0, 2, 9)  # sigma = -3: not elementary
    assert not t.elementary
    with pytest.raises(ValueError):
        decorate(sym, t)


def test_orientation_zero_only_at_half():
    # W_a^0 can only occur for a = d/2 (even sections)
    for d in (8, 10, 14):
        cat = prototile_catalog(d)
        for p in cat.prototiles:
            for l in p.signature:
                if l.orient == 0:
                    assert 2 * l.cls == d
    # odd d never has a zero orientation
    for p in prototile_catalog(9).prototiles:
        assert all(l.orient != 0 for l in p.signature)


def test_branches_are_elementary():
    for d in (9, 14):
        for p in prototile_catalog(d).prototiles:
            assert p.branch in (-1, 1)
