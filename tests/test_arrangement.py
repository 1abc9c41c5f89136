"""Arrangements: segments, intersections, vertices, faces, counting laws."""

import cmath
import math
import random

from fractions import Fraction
from functools import lru_cache

import pytest

from deltiling.field import field_for_order, sin_val
from deltiling.arrangement import (CONCURRENT, SymmetryIndex, TriangleId,
                                   _tangent_meet, census_closed_form,
                                   classify_triple, cross_sign, deltoid_point,
                                   edge_class, get_arrangement,
                                   intersect, subdivision_closed_form, on_deltoid,
                                   multiplicity_closed_form, triangular_pattern,
                                   vertex_multiplicities, subdivision_sequence)

CASES = [(5, 0), (6, 0), (6, -2), (6, 2), (7, 0), (8, 0), (9, 0), (9, -2),
         (9, 2), (10, 0), (11, 0), (12, 0), (12, -2), (13, 0), (14, 0),
         (15, 0), (15, 2), (18, 0), (18, -2)]


def test_symmetry_index_validation():
    with pytest.raises(ValueError):
        SymmetryIndex(14, 2)  # 3 does not divide 14
    with pytest.raises(ValueError):
        SymmetryIndex(4, 0)
    assert SymmetryIndex(9, -2).q == 5
    assert SymmetryIndex(14, 0).q == 7


def test_segments_are_tangent_chords():
    for d, k in [(14, 0), (9, -2), (9, 2)]:
        arr = get_arrangement(d, k)
        for seg in arr.segments:
            # endpoints and tangency point lie on the deltoid
            assert on_deltoid(seg.start)
            assert on_deltoid(seg.end)
            assert on_deltoid(seg.tangency)
            # chord length is exactly 4
            ch = seg.end - seg.start
            assert (ch * ch.conj()) == arr.f.rational(16)
            # tangency point lies on the chord (at an endpoint for the
            # cusp chords, strictly inside otherwise)
            w = seg.tangency - seg.start
            t = (w * seg.dir.conj() + w.conj() * seg.dir) / 2
            assert t <= 0 and t >= -4


def test_deltoid_cusps():
    # z(0) = 3 is a cusp of the deltoid
    for d in (7, 14):
        z = deltoid_point(d, 0)
        assert abs(z.cvalue() - 3) < 1e-12
        assert on_deltoid(z)


def test_intersect_right_angle_example():
    # p(0, pi/2) = (-1, 0)
    p = intersect(14, 0, 21)
    assert abs(p.cvalue() - (-1 + 0j)) < 1e-14


def test_intersect_parallel_raises():
    for a, b in [(5, 5 + 42), (-5, 37), (-40, 86), (50, 8)]:
        with pytest.raises(ValueError):
            intersect(14, a, b)


def test_intersect_matches_float_geometry():
    # angles are taken mod 6d, so negative ones and ones >= 3d work too
    rng = random.Random(3)
    d = 14
    for _ in range(60):
        a, b = rng.sample(range(-6 * d, 9 * d), 2)
        if (a - b) % (3 * d) == 0:
            continue
        ph, ps = a * math.pi / (3 * d), b * math.pi / (3 * d)
        z1 = 2 * cmath.exp(1j * ph) + cmath.exp(-2j * ph)
        z2 = 2 * cmath.exp(1j * ps) + cmath.exp(-2j * ps)
        u1, u2 = cmath.exp(1j * ph), cmath.exp(1j * ps)
        den = (u1 * u2.conjugate() - u1.conjugate() * u2)
        s = ((z2 - z1) * u2.conjugate() - (z2 - z1).conjugate() * u2) / den
        assert abs(intersect(d, a, b).cvalue() - (z1 + s.real * u1)) < 1e-10


def test_concurrency_criterion():
    # sigma = kappa (mod d) <=> the three chords meet in one point
    for d, k in [(7, 0), (9, -2), (9, 2), (12, 0)]:
        sym = SymmetryIndex(d, k)
        arr = get_arrangement(d, k)
        for la in range(d):
            for mu in range(la + 1, d):
                for nu in range(mu + 1, d):
                    t = classify_triple(sym, la, mu, nu)
                    p1 = arr.seg_pair_point(la, mu)
                    p2 = arr.seg_pair_point(la, nu)
                    if t is CONCURRENT:
                        assert p1 == p2
                    else:
                        assert p1 != p2


def test_triangle_side_lengths_exact():
    # side on segment idx[k] has length 4 |s_{sigma-kappa}| s_{class}
    d, k = 14, 0
    sym = SymmetryIndex(d, k)
    arr = get_arrangement(d, k)
    rng = random.Random(5)
    tris = [t for t in (classify_triple(sym, *rng.sample(range(d), 3))
                        for _ in range(40)) if t is not CONCURRENT]
    for t in tris:
        corners, opposite = arr.corners(t)
        sp = sin_val(d, t.p_class)
        for k3 in range(3):
            a = corners[(k3 + 1) % 3]
            b = corners[(k3 + 2) % 3]
            seg = opposite[k3]
            pos = t.idx.index(seg)
            cls = t.side_classes[pos]
            ln2 = (b - a) * (b - a).conj()
            expect = sp * sin_val(d, cls) * 4
            assert ln2 == expect * expect


def test_faces_are_anticlockwise():
    arr = get_arrangement(9, -2)
    for t in arr.faces():
        c, _ = arr.corners(t)
        assert cross_sign(c[1] - c[0], c[2] - c[0]) > 0


def test_vertex_multiplicity_table():
    for d, k in CASES:
        for mu in range(d):
            assert vertex_multiplicities(SymmetryIndex(d, k), mu) == \
                multiplicity_closed_form(d, k, mu), (d, k, mu)


def test_subdivision_sequences():
    for d, k in CASES:
        for mu in range(d):
            assert subdivision_sequence(SymmetryIndex(d, k), mu) == \
                subdivision_closed_form(d, k, mu), (d, k, mu)


def test_piece_count_consistency():
    # pieces = v2 + v3 - 1 on every segment
    for d, k in [(14, 0), (9, 2), (12, -2), (15, 0)]:
        arr = get_arrangement(d, k)
        for mu in range(d):
            v2, v3 = arr.vertex_multiplicities(mu)
            assert len(arr.subdivision_sequence(mu)) == v2 + v3 - 1


def test_piece_lengths_span_chord():
    # segments whose subdivision uses every odd index are cut from endpoint
    # to endpoint: their pieces sum to the full chord length 4
    for d, k in [(8, 0), (14, 0), (12, -2)]:
        arr = get_arrangement(d, k)
        s1 = sin_val(d, 1)
        full = list(range(1, d, 2))
        seen_full = 0
        for mu in range(d):
            seq = arr.subdivision_sequence(mu)
            total = arr.f.zero
            for n in seq:
                total = total + s1 * sin_val(d, min(n, d - n)) * 4
            if seq == full:
                seen_full += 1
                assert total == arr.f.rational(4)
            else:
                assert total < 4
        assert seen_full > 0


def test_census_closed_forms():
    for d, k in CASES:
        assert len(triangular_pattern(SymmetryIndex(d, k))) == \
            census_closed_form(d, k), (d, k)
    # spot values
    assert census_closed_form(14, 0) == 52
    assert census_closed_form(12, 0) == 36
    assert census_closed_form(12, -2) == 37


def test_all_faces_elementary_and_distinct():
    sym = SymmetryIndex(14, 0)
    faces = triangular_pattern(sym)
    assert len({t.idx for t in faces}) == len(faces)
    for t in faces:
        assert t.elementary
        assert t.p_class == 1
        assert sum(t.angle_nums) == sym.d


def test_vertex_face_incidence():
    # triangle corners account for an even sector count (2, 4 or 6) around
    # every multiplicity-3 vertex; the missing sectors touch the deltoid
    arr = get_arrangement(9, 0)
    incidence = {}
    for t in arr.faces():
        corners, _ = arr.corners(t)
        for c in corners:
            incidence[c.key()] = incidence.get(c.key(), 0) + 1
    for rec in arr.vertices.values():
        if rec.multiplicity == 3:
            assert incidence.get(rec.z.key(), 0) in (2, 4, 6)


def test_faces_have_disjoint_interiors():
    # the centroid of each face lies strictly inside no other face
    def inside(p, tri):
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            if ((b - a).conjugate() * (p - a)).imag <= 1e-12:
                return False
        return True

    for d, k in [(9, 0), (9, -2)]:
        arr = get_arrangement(d, k)
        polys = []
        for t in arr.faces():
            corners, _ = arr.corners(t)
            polys.append([c.cvalue() for c in corners])
        for i, tri in enumerate(polys):
            cen = sum(tri) / 3
            assert sum(1 for p in polys if inside(cen, p)) == 1


@lru_cache(maxsize=None)
def _sin_den_inv(d, e):
    """1 / (2i sin(2 pi e / n)) in the order-d field, by field division."""
    f = field_for_order(d)
    return (f.zeta(e) - f.zeta(-e)).inv()


def line_meet(arr, i, j):
    """(z, s): the meet of the lines of segments i and j, z = start_i + s dir_i.

    The generic line intersection, solved with one field division; an
    independent reference for the closed form the arrangement uses.
    """
    si, sj = arr.segments[i], arr.segments[j]
    dz = sj.start - si.start
    num = dz * sj.dir.conj() - dz.conj() * sj.dir
    s = num * _sin_den_inv(arr.sym.d, (si.e - sj.e) % arr.f.n)
    return si.start + s * si.dir, s


def _kappas(d):
    return (0, -2, 2) if d % 3 == 0 else (0,)


@pytest.mark.parametrize("d", range(5, 19))
def test_pair_points_are_the_line_meets(d):
    # the closed-form pair points equal the divided-out line meets; every
    # meet lies inside both chords (s in [-4, 0]); each vertex's integer
    # key t on a chord is its parameter, s = 2 cos(2 pi t / n) - 2; and
    # the chords are ordered as the float parameters order them
    for kappa in _kappas(d):
        arr = get_arrangement(d, kappa)
        f = arr.f
        params = [{} for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                z, s_i = line_meet(arr, i, j)
                z2, s_j = line_meet(arr, j, i)
                assert arr.pair_points[i, j] == z == z2 == arr.seg_pair_point(i, j)
                rec = arr.vertices[z.key()]
                for k, s in ((i, s_i), (j, s_j)):
                    assert -4 <= s <= 0
                    assert s == f.cos_turn(rec.params[k], f.n) * 2 - 2
                    params[k][z.key()] = s.cvalue().real
        for i in range(d):
            order = [rec.z.key() for rec in arr.seg_vertices[i]]
            assert order == sorted(params[i], key=lambda k: -params[i][k])
            keys = [rec.params[i] for rec in arr.seg_vertices[i]]
            assert keys == sorted(set(keys))


@pytest.mark.parametrize("d", range(5, 31))
def test_pair_points_are_the_tangent_meets(d):
    # the pair points built from gathered integer rows equal the sums of
    # three roots of unity, in every arrangement a catalog of order d
    # builds: A(d, kappa) and its refinement A(2d, -kappa)
    for kappa in _kappas(d):
        for arr in (get_arrangement(d, kappa), get_arrangement(2 * d, -kappa)):
            es = [seg.e for seg in arr.segments]
            n = len(es)
            assert len(arr.pair_points) == n * (n - 1) // 2
            for (i, j), z in arr.pair_points.items():
                assert z == _tangent_meet(arr.f, es[i], es[j])
                assert arr.vertices[z.key()].z == z
                assert {i, j} <= arr.vertices[z.key()].segs


@pytest.mark.parametrize("d", range(5, 31))
def test_subdivision_classes_are_the_exact_piece_lengths(d):
    # the classes read from chord indices equal the exact classifier on
    # the differences of consecutive vertices
    for kappa in _kappas(d):
        arr = get_arrangement(d, kappa)
        for i in range(d):
            recs = arr.seg_vertices[i]
            assert arr.subdivision_classes(i) == [
                edge_class(d, b.z - a.z) for a, b in zip(recs, recs[1:])]


def test_section_class_rejects_a_piece_of_zero_length():
    # the meets of chord 0 with chord 1, taken twice, bound no piece: one
    # sine factor vanishes, so no factor is the unit class
    arr = get_arrangement(14, 0)
    assert arr.section_class(0, 1, 2) == edge_class(
        14, arr.pair_points[0, 2] - arr.pair_points[0, 1])
    with pytest.raises(AssertionError, match="4 s_"):
        arr.section_class(0, 1, 1)


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 12, 13, 14])
def test_corners_read_from_the_pair_table(d):
    # corners() looks its points up in the table built with the vertices;
    # for every triple they equal the points recomputed by the reference
    # line meet, in corners, opposite segments and orientation
    for kappa in _kappas(d):
        sym = SymmetryIndex(d, kappa)
        arr = get_arrangement(d, kappa)
        for la in range(d):
            for mu in range(la + 1, d):
                for nu in range(mu + 1, d):
                    a = line_meet(arr, mu, nu)[0]
                    b = line_meet(arr, la, nu)[0]
                    c = line_meet(arr, la, mu)[0]
                    if cross_sign(b - a, c - a) < 0:
                        expect = (a, c, b), (la, nu, mu)
                    else:
                        expect = (a, b, c), (la, mu, nu)
                    assert arr.corners(TriangleId(sym, (la, mu, nu))) == expect


@pytest.mark.parametrize("d", [5, 10, 13, 14, 28])
def test_edge_class_is_exact(d):
    f = field_for_order(d)
    one = f.rational(1)
    for m in range(1, d // 2 + 1):
        ln = sin_val(d, 1) * sin_val(d, m) * 4
        for k in (0, 1, f.n // 3):
            assert edge_class(d, ln.mul_zeta(k)) == m
        # the float value picks class m; exact equality rejects both
        assert edge_class(d, ln * Fraction(10 ** 13 + 1, 10 ** 13)) is None
        assert edge_class(d, -ln + one * Fraction(1, 10 ** 14)) is None
    assert edge_class(d, f.zero) is None
