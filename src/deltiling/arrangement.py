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

import math
from dataclasses import dataclass
from functools import lru_cache

from .field import field_for_order, sin_val

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
        e = (u * self.anum) % f.n
        self.dir = f.zeta(e)  # unit direction exp(i*phi)
        self.start = f.zeta(e) * 2 + f.zeta(-2 * e)         # z(phi)
        self.end = f.zeta(e) * -2 + f.zeta(-2 * e)          # z(phi + pi)
        self.tangency = f.zeta(-2 * e) * 2 + f.zeta(4 * e)  # z(-2 phi)


class _Vertex:
    __slots__ = ("z", "segs", "params")

    def __init__(self, z):
        self.z = z
        self.segs = set()
        self.params = {}

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
        si, sj = self.segments[i], self.segments[j]
        f = self.f
        e = (self.u * (si.anum - sj.anum)) % f.n
        key = ("sindenom", e)
        if key not in f._inv_cache:
            den = f.zeta(e) - f.zeta(-e)  # 2i sin(phi_i - phi_j)
            f._inv_cache[key] = den.inv()
        dz = sj.start - si.start
        num = dz * sj.dir.conj() - dz.conj() * sj.dir
        s = num * f._inv_cache[key]  # real parameter along segment i
        return si.start + s * si.dir, s

    def _param_on(self, seg, z):
        """Real parameter s with z = seg.start + s*seg.dir (z must be on the line)."""
        return ((z - seg.start) * seg.dir.conj() +
                (z - seg.start).conj() * seg.dir) / 2

    def _build_vertices(self):
        d = self.sym.d
        verts = {}
        pairs = {}
        for i in range(d):
            for j in range(i + 1, d):
                z, s_i = self.seg_pair_point(i, j)
                pairs[i, j] = z
                s_j = self._param_on(self.segments[j], z)
                # keep only points inside both chords (param range [-4, 0])
                ok = True
                for s in (s_i, s_j):
                    v = s.cvalue().real
                    if v > 1e-9 or v < -4 - 1e-9:
                        ok = False
                        break
                    if v > -1e-9 or v < -4 + 1e-9:
                        if s.real_sign() > 0 or (s + 4).real_sign() < 0:
                            ok = False
                            break
                if not ok:
                    continue
                k = z.key()
                rec = verts.get(k)
                if rec is None:
                    rec = verts[k] = _Vertex(z)
                rec.segs.update((i, j))
                rec.params[i] = s_i
                rec.params[j] = s_j
        self.vertices = verts
        # every pair point, on or off the chords, keyed (i, j) with i < j
        self.pair_points = pairs
        by_seg = [[] for _ in range(d)]
        for rec in verts.values():
            for i in rec.segs:
                by_seg[i].append(rec)
        # order along each chord from z(phi) (s=0) towards z(phi+pi) (s=-4)
        for i in range(d):
            by_seg[i].sort(key=lambda r: -r.params[i].cvalue().real)
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

    def subdivision_classes(self, i):
        """Length classes of the pieces between consecutive vertices on segment i."""
        d = self.sym.d
        recs = self.seg_vertices[i]
        out = []
        for a, b in zip(recs, recs[1:]):
            n = edge_class(d, b.z - a.z)
            assert n is not None, f"piece on segment {i} is not an S_n length"
            out.append(n)
        return out

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
        """
        la, mu, nu = tri.idx
        pairs = self.pair_points
        a, b, c = pairs[mu, nu], pairs[la, nu], pairs[la, mu]
        if cross_sign(b - a, c - a) < 0:
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


def build_segments(sym: SymmetryIndex):
    return get_arrangement(sym.d, sym.kappa).segments


def intersect(d, phi_num, psi_num):
    """p(phi, psi) for phi = phi_num*pi/(3d), psi = psi_num*pi/(3d), exact.

    Raises ValueError for parallel directions (equal angles mod pi).
    """
    if (phi_num - psi_num) % (3 * d) == 0:
        raise ValueError("no intersection: angles equal mod pi")
    f = field_for_order(d)
    u = f.n // (6 * d)
    pts = []
    for num in (phi_num, psi_num):
        e = (u * num) % f.n
        pts.append((f.zeta(e) * 2 + f.zeta(-2 * e), f.zeta(e)))
    (z1, u1), (z2, u2) = pts
    den = u1 * u2.conj() - u1.conj() * u2
    dz = z2 - z1
    s = (dz * u2.conj() - dz.conj() * u2) / den
    return z1 + s * u1


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
    # kappa = -+2: d = 3q', q' = d/3 even here iff d even
    q3 = d // 3
    if q3 % 2 == 0:
        return (1, (d - 2) // 2) if mu % 2 == 1 else (3, (d - 4) // 2)
    return (2, (d - 3) // 2)


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
