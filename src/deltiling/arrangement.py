"""Deltoid-tangent line arrangements and their triangular patterns.

The order-d family consists of d chords of the deltoid with evenly
distributed directions; a symmetry variant kappa in {-2, 0, 2} (kappa != 0
only when 3 | d) shifts all directions by -kappa*pi/(3d).  Segment i has
direction angle a_i * pi/(3d) with

    a_i = 3i            (kappa = 0)
    a_i = 3i + 2        (kappa = -2)
    a_i = -3i - 2       (kappa = +2, signed label -i)

All geometry is exact: points are complex elements of the order-d
cyclotomic field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import Elem, field_for_order, sin_val

#: sentinel returned by classify_triple for concurrent segment triples
CONCURRENT = object()


@dataclass(frozen=True)
class SymmetryIndex:
    d: int
    kappa: int = 0

    def __post_init__(self):
        if self.d < 5:
            raise ValueError("need d >= 5")
        if self.kappa not in (-2, 0, 2):
            raise ValueError("kappa must be -2, 0 or 2")
        if self.kappa != 0 and self.d % 3 != 0:
            raise ValueError(f"kappa={self.kappa} requires 3 | d (d={self.d})")

    @property
    def q(self):
        return (self.d + 1) // 2 if self.d % 2 else self.d // 2

    def angle_num(self, i):
        """Direction numerator a_i (units of pi/(3d)) of segment i."""
        if self.kappa == 2:
            return -3 * i - 2
        return 3 * i + (2 if self.kappa == -2 else 0)

    def signed_label(self, i):
        return -i if self.kappa == 2 else i

    def __str__(self):
        return f"A({self.d},{self.kappa:+d})" if self.kappa else f"A({self.d},0)"


def length_class(d, diff):
    """Edge length class in 1..floor(d/2): s_diff = s_{d-diff}."""
    diff %= d
    return min(diff, d - diff)


@lru_cache(maxsize=None)
def _length_squares(d):
    """|4 s_1 s_m|^2 for m = 1..floor(d/2): (floats, exact squares)."""
    s1 = sin_val(d, 1)
    exact = []
    for m in range(1, d // 2 + 1):
        ln = s1 * sin_val(d, m) * 4
        exact.append(ln * ln)
    return tuple(x.cvalue().real for x in exact), tuple(exact)


def edge_class(d, vec):
    """The class m with |vec| = 4 s_1 s_m in the order-d field, or None.

    The float squared length picks the nearest class; exact equality of
    the squares confirms it.
    """
    v2 = vec * vec.conj()
    floats, exact = _length_squares(d)
    val = v2.cvalue().real
    k = min(range(len(floats)), key=lambda k: abs(floats[k] - val))
    return k + 1 if v2 == exact[k] else None


@dataclass(frozen=True)
class TriangleId:
    """Triangle cut out by three segments of one arrangement.

    Indices are internal labels 0 <= la < mu < nu < d (for kappa = +2 the
    signed labels are the negatives).
    """
    sym: SymmetryIndex
    idx: tuple  # (la, mu, nu)

    def __post_init__(self):
        la, mu, nu = self.idx
        if not (0 <= la < mu < nu < self.sym.d):
            raise ValueError(f"bad index triple {self.idx}")

    @property
    def sigma(self):
        """Signed index sum (negated for kappa=+2), reduced mod d to -d/2..d/2."""
        s = sum(self.idx)
        if self.sym.kappa == 2:
            s = -s
        s %= self.sym.d
        if s > self.sym.d // 2:
            s -= self.sym.d
        return s

    @property
    def m_class(self):
        """(sigma - kappa) mod d: 0 means concurrent."""
        return (self.sigma - self.sym.kappa) % self.sym.d

    @property
    def p_class(self):
        """Similarity scale class |sigma - kappa| in 0..floor(d/2)."""
        return length_class(self.sym.d, self.m_class)

    @property
    def elementary(self):
        return self.m_class in (1, self.sym.d - 1)

    @property
    def angle_nums(self):
        """Angle numerators (units pi/d), matched to the opposite segments.

        Entry k is the angle opposite the side lying on segment idx[k]; it
        also equals that side's subtended index difference.
        """
        la, mu, nu = self.idx
        d = self.sym.d
        return (nu - mu, la - nu + d, mu - la)

    @property
    def side_classes(self):
        """Length classes (1..floor(d/2)) of the sides on idx[0], idx[1], idx[2]."""
        d = self.sym.d
        return tuple(length_class(d, a) for a in self.angle_nums)

    def __str__(self):
        lab = [self.sym.signed_label(i) for i in self.idx]
        return f"D{self.sym.d}^({self.sym.kappa})({lab[0]},{lab[1]},{lab[2]})"


class Segment:
    def __init__(self, arr, i):
        sym = arr.sym
        self.i = i
        self.anum = sym.angle_num(i)
        f = arr.f
        u = arr.u
        self.e = e = (u * self.anum) % f.n
        self.dir = f.zeta(e)  # unit direction exp(i*phi)
        self.start = f.zeta(e) * 2 + f.zeta(-2 * e)         # z(phi)
        self.end = f.zeta(e) * -2 + f.zeta(-2 * e)          # z(phi + pi)
        self.tangency = f.zeta(-2 * e) * 2 + f.zeta(4 * e)  # z(-2 phi)


def _tangent_meet(f, e1, e2):
    """Meeting point of the chords with directions zeta^e1 and zeta^e2.

    For w = exp(i phi), v = exp(i psi) the point is
    w^-2 + v^-2 + (w v)^2 = z(phi) + (2 cos(phi + 2 psi) - 2) w,
    which lies on the chord of phi, and by symmetry on that of psi.
    """
    return f.zeta(-2 * e1) + f.zeta(-2 * e2) + f.zeta(2 * (e1 + e2))


def _chord_key(n, e1, e2):
    """Integer position key of the meet with direction e2 along the e1 chord.

    The meet sits at parameter s = 2 cos(2 pi t / n) - 2 for
    t = e1 + 2 e2; the key is t folded into [0, n/2], where cos falls
    strictly, so a larger key means a smaller s.
    """
    t = (e1 + 2 * e2) % n
    return min(t, n - t)


class _Vertex:
    __slots__ = ("z", "segs", "params")

    def __init__(self, z):
        self.z = z
        self.segs = set()
        self.params = {}  # segment -> `_chord_key` of the point on it

    @property
    def multiplicity(self):
        return len(self.segs)


class Arrangement:
    """The full exact arrangement of the d chords, with vertices and faces."""

    def __init__(self, sym: SymmetryIndex):
        self.sym = sym
        d = sym.d
        self.f = field_for_order(d)
        self.u = self.f.n // (6 * d)
        self.segments = [Segment(self, i) for i in range(d)]
        self._build_vertices()
        self._faces = None
        self._face_table = None

    # -- construction ----------------------------------------------------
    def seg_pair_point(self, i, j):
        """Exact intersection point of the lines carrying segments i and j."""
        return _tangent_meet(self.f, self.segments[i].e, self.segments[j].e)

    def _build_vertices(self):
        """Every pair point, deduplicated into vertices, ordered per chord.

        Segment i runs from z(phi_i) (parameter s = 0) to z(phi_i + pi)
        (s = -4), and its meet with segment j sits at
        s = 2 cos(phi_i + 2 phi_j) - 2 (see `_tangent_meet`), which lies
        in [-4, 0]: every pair point is a vertex inside both chords.  Each
        chord is ordered from s = 0 towards s = -4 by the integer
        `_chord_key`.

        The meet of the chords with direction exponents e_i and e_j is
        zeta^(-2 e_i) + zeta^(-2 e_j) + zeta^(2 (e_i + e_j)), so the
        integer row of every pair i < j is a sum of three rows of
        `CycField.powers`, taken in one gather.  Equal rows are equal
        points; each distinct row becomes one `Elem`, with no arithmetic.
        The keys t = e_i + 2 e_j of the meets on chord i are integers whose
        sums and differences are multiples of n / d (the angle numbers are
        +-(3j + c0)), which is how `section_class` reads the length of
        the piece between two of them.
        """
        d = self.sym.d
        f = self.f
        n = f.n
        es = [seg.e for seg in self.segments]
        e = np.array(es)
        ii, jj = np.triu_indices(d, 1)
        rows = (f.powers[-2 * e[ii] % n] + f.powers[-2 * e[jj] % n]
                + f.powers[2 * (e[ii] + e[jj]) % n])
        verts = {}
        pairs = {}
        by_row = {}
        for i, j, row in zip(ii.tolist(), jj.tolist(), rows):
            key = row.tobytes()
            rec = by_row.get(key)
            if rec is None:
                z = Elem(f, row.tolist(), 1)
                rec = by_row[key] = verts[z.key()] = _Vertex(z)
            pairs[i, j] = rec.z
            rec.segs.update((i, j))
            rec.params[i] = _chord_key(n, es[i], es[j])
            rec.params[j] = _chord_key(n, es[j], es[i])
        self.vertices = verts
        # every pair point, keyed (i, j) with i < j
        self.pair_points = pairs
        by_seg = [[] for _ in range(d)]
        for rec in verts.values():
            for i in rec.segs:
                by_seg[i].append(rec)
        for i in range(d):
            by_seg[i].sort(key=lambda r: r.params[i])
        self.seg_vertices = by_seg

    # -- queries ---------------------------------------------------------
    def vertex_multiplicities(self, i):
        """(v2, v3) counts of multiplicity-2/3 vertices on segment i."""
        v2 = v3 = 0
        for rec in self.seg_vertices[i]:
            m = rec.multiplicity
            if m == 2:
                v2 += 1
            elif m == 3:
                v3 += 1
            else:
                raise AssertionError(f"vertex of multiplicity {m} on segment {i}")
        return v2, v3

    def section_class(self, c, p, q):
        """Length class of the piece of chord c between its meets with
        chords p and q.

        The meet with chord p sits at s = 2 cos(2 pi t_p / n) - 2 along
        chord c, t_p = e_c + 2 e_p (see `_chord_key`), so the piece has
        length |s_p - s_q| = 4 |sin(pi (t_p + t_q) / n)
        sin(pi (t_p - t_q) / n)|.  The direction exponents are
        e_i = u a_i with u = n / (6d) and a_i = +-(3i + c0), c0 in {0, 2},
        the sign and c0 shared by all chords (`SymmetryIndex.angle_num`).
        Hence t_p - t_q = +-6u (p - q) and t_p + t_q = +-6u (c + p + q
        + c0) mod n, both multiples of n/d = 6u: each factor is
        |sin(k pi / d)| = s_m for an integer k and m = `length_class`(d, k).
        A piece between two vertices has length 4 s_1 s_m, so one factor
        is s_1 and the other gives the class m.
        """
        d = self.sym.d
        n = self.f.n
        e = self.segments[c].e
        tp, tq = e + 2 * self.segments[p].e, e + 2 * self.segments[q].e
        step = n // d
        assert (tp + tq) % step == 0 and (tp - tq) % step == 0, \
            f"piece on chord {c} between {p} and {q} is off the index grid"
        a = length_class(d, (tp + tq) // step)
        b = length_class(d, (tp - tq) // step)
        assert min(a, b) == 1, \
            f"piece on chord {c} between {p} and {q} is 4 s_{a} s_{b}"
        return max(a, b)

    def subdivision_classes(self, i):
        """Length classes of the pieces between consecutive vertices on
        segment i.

        Consecutive vertices lie on further chords p and q, so the piece
        between them has length 4 |sin(pi (t_p + t_q) / n)
        sin(pi (t_p - t_q) / n)| with t_p +- t_q multiples of n / d, and
        `section_class` reads its class from the chord indices.
        """
        recs = self.seg_vertices[i]
        return [self.section_class(i, min(a.segs - {i}), min(b.segs - {i}))
                for a, b in zip(recs, recs[1:])]

    def subdivision_sequence(self, i):
        """Piece sequence as ascending S-indices n, n+2, n+4, ... (1..d-1).

        The pieces between consecutive vertices of segment i have lengths
        4 s_1 s_m whose indices, read from one end, always form an
        arithmetic progression of step 2 once the labels m and d-m (equal
        lengths) are chosen suitably.  The progression parity is odd except
        on odd-labelled segments of even-order arrangements, where it is
        even; when both ends admit a progression the larger start wins.
        """
        d = self.sym.d
        classes = self.subdivision_classes(i)
        parity = 0 if (d % 2 == 0 and i % 2 == 1) else 1
        best = None
        for seq in (classes, classes[::-1]):
            for n1 in {seq[0], d - seq[0]}:
                if n1 % 2 != parity:
                    continue
                labels = [n1 + 2 * k for k in range(len(seq))]
                if labels[-1] > d - 1:
                    continue
                if all(length_class(d, n) == c for n, c in zip(labels, seq)):
                    if best is None or labels[0] > best[0]:
                        best = labels
        if best is None:
            raise AssertionError(f"no consistent piece labelling on segment {i}")
        return best

    def faces(self):
        """Elementary triangles (the faces of the triangular pattern)."""
        if self._faces is None:
            d = self.sym.d
            out = []
            for la in range(d):
                for mu in range(la + 1, d):
                    for nu in range(mu + 1, d):
                        t = TriangleId(self.sym, (la, mu, nu))
                        if t.elementary:
                            out.append(t)
            self._faces = out
        return self._faces

    def face_table(self):
        """(face, corners, float centroid) for every face, built once."""
        if self._face_table is None:
            out = []
            for t in self.faces():
                corners, _ = self.corners(t)
                out.append((t, corners, sum(c.cvalue() for c in corners) / 3))
            self._face_table = out
        return self._face_table

    def corners(self, tri: TriangleId):
        """Exact corners in anticlockwise order.

        Returns (corners, opposite) where opposite[k] is the segment index
        whose side faces corners[k].

        The order is fixed by the symmetry variant.  With A, B, C the
        meets (see `_tangent_meet`) of the chord pairs (mu, nu), (la, nu)
        and (la, mu), of directions phi_1, phi_2, phi_3,

            Im(conj(B - A)(C - A)) = 16 sin^2(phi_1 + phi_2 + phi_3)
                * sin(phi_1 - phi_2) sin(phi_1 - phi_3) sin(phi_2 - phi_3).

        The directions a_i pi/(3d) lie in a window shorter than pi and
        rise with i for kappa in {0, -2}, so every sine difference is
        negative and A, B, C run clockwise; for kappa = +2 they fall with
        i and A, B, C run anticlockwise.  The first factor vanishes only
        for concurrent triples (sigma = kappa), which keep (A, B, C).
        """
        la, mu, nu = tri.idx
        pairs = self.pair_points
        a, b, c = pairs[mu, nu], pairs[la, nu], pairs[la, mu]
        if self.sym.kappa != 2 and tri.m_class:
            return (a, c, b), (la, nu, mu)
        return (a, b, c), (la, mu, nu)


def cross_sign(w1, w2):
    """Sign of the z-component of w1 x w2 for complex w1, w2 (exact)."""
    c = w1.conj() * w2
    return c.imag_sign()


@lru_cache(maxsize=None)
def get_arrangement(d, kappa=0):
    return Arrangement(SymmetryIndex(d, kappa))


# -- module-level convenience operations ----------------------------------------------

def deltoid_point(d, numerator):
    """Exact point z(phi) on the deltoid for phi = numerator*pi/(3d)."""
    f = field_for_order(d)
    u = f.n // (6 * d)
    e = (u * numerator) % f.n
    return f.zeta(e) * 2 + f.zeta(-2 * e)


def on_deltoid(z):
    """Exact implicit-equation test: (z zbar)^2 + 18 z zbar - 27 = 4(z^3 + zbar^3)."""
    r = z * z.conj()
    zc = z.conj()
    lhs = r * r + r * 18 - z.f.rational(27)
    rhs = (z * z * z + zc * zc * zc) * 4
    return (lhs - rhs).is_zero()


def intersect(d, phi_num, psi_num):
    """p(phi, psi) for phi = phi_num*pi/(3d), psi = psi_num*pi/(3d), exact.

    Raises ValueError for parallel directions (equal angles mod pi).
    """
    if (phi_num - psi_num) % (3 * d) == 0:
        raise ValueError("no intersection: angles equal mod pi")
    f = field_for_order(d)
    u = f.n // (6 * d)
    return _tangent_meet(f, u * phi_num, u * psi_num)


def classify_triple(sym: SymmetryIndex, la, mu, nu):
    """TriangleId for the segment triple, or CONCURRENT when sigma = kappa."""
    t = TriangleId(sym, tuple(sorted((la, mu, nu))))
    if t.m_class == 0:
        return CONCURRENT
    return t


def vertex_multiplicities(sym: SymmetryIndex, mu):
    return get_arrangement(sym.d, sym.kappa).vertex_multiplicities(mu % sym.d)


def subdivision_sequence(sym: SymmetryIndex, mu):
    return get_arrangement(sym.d, sym.kappa).subdivision_sequence(mu % sym.d)


def triangular_pattern(sym: SymmetryIndex):
    return get_arrangement(sym.d, sym.kappa).faces()


# -- counting closed forms -------------------------------

def _nearest_int(num, den):
    return (2 * num + den) // (2 * den)


def census_closed_form(d, kappa=0):
    """Closed-form count of elementary triangles in the (d, kappa) pattern."""
    base = 4 * _nearest_int((d - 3) ** 2, 12)
    if d % 3 != 0:
        if kappa != 0:
            raise ValueError("kappa != 0 needs 3 | d")
        return (d - 1 + base) if d % 2 else (d - 2 + base)
    q3 = d // 3
    nearest = _nearest_int((d - 3) ** 2, 12)
    if kappa == 0:
        if q3 % 2:  # q = 2l+1
            l = q3 // 2
            return 6 * (nearest - l * (l - 1))
        l = q3 // 2
        return 6 * (nearest - (l - 1) ** 2)
    if q3 % 2:  # q = 2l+1
        l = q3 // 2
        return 9 * l + 1 + 3 * (nearest - l * (l - 1)) + 6 * l * (l - 1)
    l = q3 // 2
    return 9 * l - 5 + 3 * (nearest - (l - 1) ** 2) + 6 * (l - 1) ** 2


def multiplicity_closed_form(d, kappa, mu):
    """Expected (v2, v3) for segment |mu| from the vertex-multiplicity table."""
    mu = mu % d
    if d % 2:  # d = 2q+1, kappa = 0 rows; kappa = +-2 for d = 3(2m+1)
        q = (d - 1) // 2
        if kappa == 0:
            if q % 3 == 1:  # q = 3l+1  (equivalently 3 | d)
                l = q // 3
                special = {0, 2 * l + 1, 4 * l + 2}
                return (0, (d - 1) // 2) if mu in special else (2, (d - 3) // 2)
            return (0, (d - 1) // 2) if mu == 0 else (2, (d - 3) // 2)
        # kappa = -+2: d = 3q', q' odd
        return (2, (d - 3) // 2)
    q = d // 2
    if kappa == 0:
        if q % 3 == 0:
            l = q // 3
            low = (mu % 2 == 1) or mu in {0, 2 * l, 4 * l}
        else:
            low = (mu % 2 == 1) or mu == 0
        return (1, (d - 2) // 2) if low else (3, (d - 4) // 2)
    # kappa = -+2 needs 3 | d (`SymmetryIndex`): d = 3q' with d even, so
    # q' = d/3 is even
    return (1, (d - 2) // 2) if mu % 2 == 1 else (3, (d - 4) // 2)


def subdivision_closed_form(d, kappa, mu):
    """Expected subdivision S-index sequence for segment |mu| (ascending)."""
    mu = mu % d
    i_odd = list(range(1, 2 * (d // 2), 2))
    i_even = list(range(2, 2 * ((d + 1) // 2) - 1, 2))
    if d % 2:  # cases 1 and 2
        if kappa != 0:
            return i_odd
        q = (d - 1) // 2
        if q % 3 == 1:
            l = q // 3
            special = {0, 2 * l + 1, 4 * l + 2}
            return i_odd[1:] if mu in special else i_odd
        return i_odd[1:] if mu == 0 else i_odd
    q = d // 2
    if q % 3 == 0:  # case 3
        l = q // 3
        if kappa == 0:
            if mu % 2 == 1:
                return i_even
            return i_odd[1:] if mu in {0, 2 * l, 4 * l} else i_odd
        return i_odd if mu % 2 == 0 else i_even
    # case 4
    if mu == 0:
        return i_odd[1:]
    return i_odd if mu % 2 == 0 else i_even
