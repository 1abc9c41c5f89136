"""Substitution rules derived from the arrangement geometry.

Inflating an elementary triangle by iota_{d,p} = s_p/s_1 produces a
triangle congruent to a class-p triangle of an order-d pattern (possibly
with a different symmetry variant); the elementary faces inside that
triangle are the substitution children.  Rules are derived on integer
coefficient rows: the children are picked by an array centroid test,
placed as integer columns (rotation exponent, translation row), and
confirmed exactly by area balance (`check_area_balance`); edge words are
still read from float corners.

Congruences are found without field division: the float phase of a side
ratio picks the rotation exponent r, and equal integer rows of
zeta^r * (a1 - a0) and b1 - b0 (and of the third corner) decide.  Floats
only pick r; every verdict is exact.

Tiles are always placed by direct isometries w -> zeta^r w + t; a mirrored
tile is represented by the mirror prototile of the catalog, so reflections
never appear in placements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .field import Elem, field_for_order, inflation_factor, reduce_columns
from .arrangement import SymmetryIndex, TriangleId, get_arrangement
from .prototiles import canonical_rotation, prototile_catalog


# -- placements ---------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    """Direct isometry w -> zeta_n^r * w + t over a cyclotomic field.

    Applying, composing and inverting only multiply by powers of zeta,
    which `Elem.mul_zeta` does as a basis shift instead of a full product.
    """
    r: int
    t: object  # Elem

    @property
    def f(self):
        return self.t.f

    def __call__(self, z):
        return z.mul_zeta(self.r) + self.t

    def compose(self, other):
        """self after other."""
        return Isometry((self.r + other.r) % self.f.n,
                        other.t.mul_zeta(self.r) + self.t)

    def inverse(self):
        return Isometry((-self.r) % self.f.n, self.t.mul_zeta(-self.r) * -1)

    def scaled_translation(self, factor):
        return Isometry(self.r, self.t * factor)

    def key(self):
        return (self.r, self.t.key())


def identity_isometry(f):
    return Isometry(0, f.zero)


#: the three cyclic orders of a corner triple
SHIFTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _congruent(f, a, b):
    """(r, ok, t) for corner rows a, b (..., 3, D) over one denominator:
    ok where w -> zeta^r w + t maps each a[k] to b[k].

    No field division: the float phase of the first sides picks the only
    possible r, and equal integer rows of both sides decide.
    """
    # differences of rows bounded by B are bounded by 2B
    _guard(2 * max(f.degree * max_abs(a) * f.power_bound, max_abs(b)),
           "triangle match")
    za = (a[..., 1, :] - a[..., 0, :]) @ f.basis
    zb = (b[..., 1, :] - b[..., 0, :]) @ f.basis
    r = np.rint(np.angle(zb * za.conj()) * f.n / (2 * np.pi)).astype(
        np.int64) % f.n
    a = f.turn(a, r)
    ok = ((a - a[..., :1, :]) == (b - b[..., :1, :])).all(axis=(-2, -1))
    return r, ok, b[..., 0, :] - a[..., 0, :]


def match_triangles(src, dst):
    """Direct isometry with dst[k] = g(src[(k+shift) % 3]) for the first
    shift that fits, or (None, None); see `_congruent`."""
    f = src[0].f
    rows, den = _common_den(list(src) + list(dst), f.degree)
    r, ok, t = _congruent(f, rows[SHIFTS], rows[3:])
    if not ok.any():
        return None, None
    s = int(np.argmax(ok))
    return Isometry(int(r[s]), Elem(f, t[s].tolist(), den).normalized()), s


def _over(rows, den, L):
    """Integer rows over den, rewritten over its multiple L (int64 once
    rescaled: the rows may be stored narrow)."""
    if L == den:
        return rows
    _guard(max_abs(rows) * (L // den), "common denominator")
    return _scaled(rows, L // den, np.int64)


# -- prototile geometry in the order-d field ----------------------------

@lru_cache(maxsize=None)
def _tile_geometry(d, name):
    """(corners, letters) of a catalog prototile in the order-d field."""
    cat = prototile_catalog(d)
    p = cat.by_name[name]
    sym, tri = p.face.sym, p.face.tri
    # the representative is its catalog decoration turned to canonical start
    r = canonical_rotation(cat.faces[sym.kappa, tri.idx].letters)
    corners, _ = get_arrangement(sym.d, sym.kappa).corners(tri)
    return tuple(corners[(r + k) % 3] for k in range(3)), p.signature


def tile_corners(d, name, iso=None):
    corners, _ = _tile_geometry(d, name)
    if iso is None:
        return corners
    return tuple(iso(c) for c in corners)


@lru_cache(maxsize=None)
def _face_placements(d, kappa):
    """Every face of A(d, kappa) placed as a prototile, as columns.

    (ids, r, t, den, centroids): face k is prototile ids[k] placed by
    w -> zeta^r[k] w + t[k] / den, the catalog corner order going to the
    face corners turned by the classifying rotation (`_congruent`);
    centroids are the float face centroids.
    """
    f = field_for_order(d)
    cat = prototile_catalog(d)
    _, index = prototile_ids(d)
    faces = get_arrangement(d, kappa).face_table()
    ids, corners = [], []
    for tri, cs, _ in faces:
        proto, r = cat.classify(cat.faces[kappa, tri.idx].letters)
        ids.append(index[proto.name])
        corners += [cs[(k + r) % 3] for k in range(3)]
    B, bden = _common_den(corners, f.degree)
    A, aden = _corner_rows(d)
    den = math.lcm(bden, aden)
    r, ok, t = _congruent(f, _over(A[ids], aden, den),
                          _over(B, bden, den).reshape(len(ids), 3, f.degree))
    bad = int(np.argmin(ok))
    assert ok[bad], (f"cannot place {faces[bad][0]} as "
                     f"{cat.prototiles[ids[bad]].name}")
    return SimpleNamespace(ids=np.array(ids, dtype=np.int16), r=r, t=t,
                           den=den,
                           centroids=np.array([c for _, _, c in faces]))


def _inside_mask(points, tris, margin=1e-9):
    """Float test of every point against every anticlockwise triangle:
    for tris (..., 3) the mask (..., len(points)) is true where the cross
    product (b - a) x (p - a) is at least `margin` for every side ab."""
    a = np.asarray(tris)[..., None]
    side = (a[..., [1, 2, 0], :] - a).conj()
    inside = True
    for j in range(3):
        inside = inside & ((side[..., j, :] * (points - a[..., j, :])).imag
                           >= margin)
    return inside


# -- locating the inflated triangle -------------------------------------

def _signed_triple(sym, idx):
    return tuple(-i for i in idx) if sym.kappa == 2 else idx


def _internal_tri(sym, signed):
    s = -1 if sym.kappa == 2 else 1
    return TriangleId(sym, tuple(sorted((s * x) % sym.d for x in signed)))


def _target_preference(d, p, branch, sign):
    """The target class (+-p) of the inflated image of a branch triangle.

    The positive-variant convention: negative branches inflate to class +p
    and positive branches to class -p, except that order-3q patterns with
    3 not dividing p send both +-1 branches to +p, and the 3 | p
    transitions across symmetry variants follow the explicit index-shift
    laws (class -p exactly for the smallest factor iota_3 on small q).
    The sign -1 rule set takes the other class.
    """
    if d % 3 != 0 or p % 3 != 0:
        pref = p if branch < 0 else -p
    else:
        # m = p / 3 = 1 and q = d / 3 <= 3 swap the two classes
        pref = p if (branch > 0) != (p == 3 and d <= 9) else -p
    return pref if sign > 0 else -pref


def locate_inflated(sym, tri, p, sign=1):
    """Target (sym', tri', psi) with psi(iota * tri corners) = tri' corners."""
    f = field_for_order(sym.d)
    corners, _ = get_arrangement(sym.d, sym.kappa).corners(tri)
    rows, den = _common_den(corners, f.degree)
    M, mden = f.mul_matrix(inflation_factor(sym.d, p))
    _guard(f.degree * max_abs(rows) * max_abs(M), "inflated corners")
    [(sym2, tri2)], r, t, _, tden = _locate([(sym, tri)], (rows @ M)[None],
                                            den * mden, p, sign)
    return sym2, tri2, Isometry(int(r[0]),
                                Elem(f, t[0].tolist(), tden).normalized())


def _target(sym, tri, p, sign):
    """The target (sym', tri') of iota * tri, in closed form: the class s
    of `_target_preference`, the variant kappa' of 0, -2, 2 with
    3 | kappa' + s - sigma (0 unless 3 | d), and tri's labels shifted by
    the least n with 3n = kappa' + s - sigma (mod d).  This is the first
    class-p candidate of the search over both classes, every kappa' and
    every label shift that it replaces, and was the congruent one for
    every prototile of every rule set with d = 5..64.
    """
    d = sym.d
    branch = tri.m_class if tri.m_class <= d // 2 else tri.m_class - d
    s = _target_preference(d, p, branch, sign)
    if d % 3:
        k2, n = 0, (s - tri.sigma) * pow(3, -1, d) % d
    else:
        k2 = (0, -2, 2)[(tri.sigma - s) % 3]
        n = (k2 + s - tri.sigma) % d // 3
    sym2 = SymmetryIndex(d, k2)
    return sym2, _internal_tri(
        sym2, tuple(x + n for x in _signed_triple(sym, tri.idx)))


def _locate(tris, src, den, p, sign):
    """(targets, r, t, dst, den') for triangles tris = [(sym, tri), ...]
    of one order d: w -> zeta^r[i] w + t[i] maps src[i] to the corners
    dst[i] of targets[i] = (sym', tri') (in the target's cyclic order),
    all over den'.

    src holds the rows over den of iota times the corners of each
    triangle, in any cyclic order.  Every triangle's target is
    `_target`'s, and one `_congruent` call tests every (triangle, cyclic
    shift) pair; the first shift that fits wins.
    """
    d = tris[0][0].d
    f = field_for_order(d)
    targets = [_target(sym, tri, p, sign) for sym, tri in tris]
    dst, dden = _common_den(
        [c for sym2, tri2 in targets
         for c in get_arrangement(d, sym2.kappa).corners(tri2)[0]],
        f.degree)
    L = math.lcm(den, dden)
    dst = _over(dst, dden, L).reshape(len(tris), 3, f.degree)
    r, ok, t = _congruent(f, _over(src, den, L)[:, SHIFTS], dst[:, None])
    hit = ok.any(axis=1)
    if not hit.all():
        raise AssertionError("no congruent inflated image for "
                             f"{tris[int(np.argmin(hit))][1]} (p={p})")
    k = np.arange(len(tris))
    s = ok.argmax(axis=1)
    return targets, r[k, s], t[k, s], dst, L


# -- rule derivation ----------------------------------------------------

class RuleSet:
    """Substitution children, per prototile, in the inflated-tile frame.

    Its column table `table()` is (count, kids): per prototile id the
    number of children (-1 for a prototile without a rule), and a Patch of
    every child in prototile id order.  A RuleSet made from `rules` (name
    -> tuple of (child name, Isometry)) builds that table once; `rules` is
    a view of the table, built on first use.
    """

    def __init__(self, d, p, sign, rules=None, table=None):
        self.d = d
        self.p = p
        self.sign = sign
        self.iota = inflation_factor(d, p)
        if table is None:
            names, _ = prototile_ids(d)
            kids = [ch for n in names for ch in rules.get(n, ())]
            table = (np.array([len(rules[n]) if n in rules else -1
                               for n in names], dtype=np.int64),
                     Patch.from_columns(d, *_placement_columns(d, kids)))
        self._table = table

    def table(self):
        return self._table

    @cached_property
    def rules(self):
        names, _ = prototile_ids(self.d)
        count, kids = self._table
        it = iter([(tile.name, tile.iso) for tile in kids.tiles])
        return {n: tuple(itertools.islice(it, c))
                for n, c in zip(names, count.tolist()) if c >= 0}

    def children(self, name):
        return self.rules[name]

    def columns(self):
        """The rules as a column table for `Patch.inflate`, built once
        per rule set (see `_rule_table`)."""
        if "_columns" not in self.__dict__:
            self._columns = _rule_table(self.d, [self], self.iota)
        return self._columns

    def matrix(self, order=None):
        """M[i][j] = multiplicity of prototile i inside the image of j."""
        names, index = prototile_ids(self.d)
        order = list(names) if order is None else order
        count, kids = self.table()
        sel = [index[n] for n in order]
        if (count[sel] < 0).any():
            raise KeyError(order[int(np.argmin(count[sel]))])
        P = len(names)
        full = np.bincount(kids.columns[0].astype(np.int64) * P
                           + np.repeat(np.arange(P), np.maximum(count, 0)),
                           minlength=P * P).reshape(P, P)
        return full[np.ix_(sel, sel)], order


def _rule_starts(count):
    """First child row of every row key, for child counts `count` (-1 for
    a prototile without a rule)."""
    return np.cumsum(np.maximum(count, 0)) - np.maximum(count, 0)


def _rule_table(d, members, iota):
    """Column table of one or more rule sets sharing the factor iota.

    Row key m * P + id (P prototiles) is prototile `id` under
    `members[m]`.  Per key: the first child row `start` and the child
    count (-1 for a prototile without a rule).  Per child row: the name
    id, the rotation r, and `tidx`, the index of its translation among the
    distinct ones; `rot[tidx, s]` is that translation turned by zeta^s,
    for every s, over the common denominator `den`.  `M` is the matrix of
    multiplication by iota (over `mden`).  `M_max` and `rot_max` are
    `max_abs` of `M` and `rot`, reduced once for `_inflate`'s guard.
    """
    f = field_for_order(d)
    tables = [m.table() for m in members]
    kids = [k.columns for _, k in tables]
    den = math.lcm(*(k[3] for k in kids))
    count = np.concatenate([c for c, _ in tables])
    trans = np.concatenate([_over(k[2], k[3], den) for k in kids])
    # rule sets repeat few translations: turn each distinct one once
    tidx, first = row_ids(trans)
    distinct = trans[first]
    M, mden = f.mul_matrix(iota)
    rot = f.turns(distinct, _int_dtype(f.degree * max_abs(distinct)
                                       * f.power_bound))
    return SimpleNamespace(
        count=count,
        start=_rule_starts(count),
        ids=np.concatenate([k[0] for k in kids]),
        r=np.concatenate([k[1] for k in kids]),
        tidx=tidx, rot=rot, den=den, M=M, mden=mden,
        M_max=max_abs(M), rot_max=max_abs(rot))


@lru_cache(maxsize=None)
def derive_rules(d, p, sign=1) -> RuleSet:
    """Children picked by an array centroid test, placed as integer
    columns, confirmed by exact area balance.

    Every prototile's inflated image is located at once (`_locate`) on
    its closed-form target (`_target`), a triangle of some A(d, kappa'),
    and confirmed exactly there; per target kappa' one centroid test of
    its triangles against the faces of A(d, kappa') gives the (prototile,
    face) pairs of the children, pulled back by the inverse placement
    w -> zeta^-r (w - t): a child on a face placed by (r_f, t_f) is
    placed by (r_f - r, zeta^-r (t_f - t)), all children in one
    `CycField.turn`.
    """
    f = field_for_order(d)
    n = f.n
    cat = prototile_catalog(d)
    names, _ = prototile_ids(d)
    corners, cden = _corner_rows(d)
    M, mden = f.mul_matrix(inflation_factor(d, p))
    _guard(f.degree * max_abs(corners) * max_abs(M), "inflated corners")
    targets, r, T, dst, tden = _locate(
        [(proto.face.sym, proto.face.tri) for proto in cat.prototiles],
        corners @ M, cden * mden, p, sign)
    kappa = np.array([sym2.kappa for sym2, _ in targets])
    faces = {k: _face_placements(d, k) for k in set(kappa.tolist())}
    L = math.lcm(tden, *(face.den for face in faces.values()))
    tri = dst @ f.basis / tden
    parts = []
    for k, face in faces.items():
        sel = np.flatnonzero(kappa == k)
        owner, kid = np.nonzero(_inside_mask(face.centroids, tri[sel]))
        parts.append((sel[owner], face.ids[kid], face.r[kid],
                      _over(face.t, face.den, L)[kid]))
    owner, ids, r_face, t = map(np.concatenate, zip(*parts))
    del parts  # copies of the columns: free them before the turn
    count = np.bincount(owner, minlength=len(names))
    assert count.all(), f"empty rule for {names[int(np.argmin(count))]}"
    T = _over(T, tden, L)
    _guard(f.degree * f.power_bound * (max_abs(t) + max_abs(T)),
           "child placements")
    t -= T[owner]
    t = f.turn(t, -r[owner] % n)
    r = (r_face - r[owner]) % n
    # sort each rule by (name, r, Elem.key()) of the normalised translation
    g = np.gcd(np.gcd.reduce(t, axis=1), L)
    rank = np.argsort(np.argsort(np.array(names)))
    order = np.lexsort((L // g, *(t // g[:, None]).T[::-1], r, rank[ids],
                        owner))
    out = RuleSet(d, p, sign, table=(
        count,
        Patch.from_columns(d, ids[order], r[order].astype(np.int32),
                           t[order], L)))
    check_area_balance(out)
    return out


@lru_cache(maxsize=None)
def _area_rows(d):
    """(rows, den): 2i times twice the area of every prototile, by id.

    For corners a, b, c, u = b - a and w = c - a, that is conj(u) w -
    u conj(w).  As conj(u) = zeta^-(D-1) u'(zeta) = -zeta^(n/2-D+1)
    u'(zeta) for the reversed row u' of u, it is zeta^(n/2-D+1) times the
    polynomial (w' u - u' w)(zeta), whose 2D - 1 coefficients
    `CycField.turn` reduces.
    """
    f = field_for_order(d)
    D = f.degree
    C, den = _corner_rows(d)
    u, w = C[:, 1] - C[:, 0], C[:, 2] - C[:, 0]
    # |poly| <= 2D (2 max |C|)^2, and the turn multiplies by (2D - 1) bound
    _guard(4 * D * D * (2 * max_abs(C)) ** 2 * f.power_bound,
           "prototile areas")
    poly = np.zeros((len(C), 2 * D - 1), dtype=np.int64)
    for j in range(D):
        poly[:, j:j + D] += (w[:, D - 1 - j, None] * u
                             - u[:, D - 1 - j, None] * w)
    rows = f.turn(poly, f.n // 2 - D + 1)
    g = math.gcd(den * den, int(np.gcd.reduce(rows, axis=None)))
    return rows // g, den * den // g


def check_area_balance(rules: RuleSet):
    """Exact: the children of every prototile fill iota^2 times its area.

    Counts times per-prototile area rows must equal the area rows times
    the matrix of multiplication by iota^2, as integer coefficient rows.
    """
    f = field_for_order(rules.d)
    A, _ = _area_rows(rules.d)
    count, _ = rules.matrix()
    M, mden = f.mul_matrix(rules.iota * rules.iota)
    _guard(f.degree * max_abs(A) * max_abs(M)
           + int(count.sum(axis=0).max()) * max_abs(A) * mden, "area balance")
    bad = ~(count.T @ A * mden == A @ M).all(axis=1)
    if bad.any():
        names, _ = prototile_ids(rules.d)
        raise AssertionError("children do not fill the inflated prototile: "
                             + ", ".join(names[i] for i in np.flatnonzero(bad)))


# -- patches ------------------------------------------------------------

@dataclass(frozen=True)
class Tile:
    name: str
    iso: Isometry

    def corners(self, d):
        return tile_corners(d, self.name, self.iso)


#: int64 arithmetic stays exact while every bound on a result is below this
INT64_SAFE = 2 ** 62


def _guard(bound, what):
    if bound >= INT64_SAFE:
        raise OverflowError(f"{what}: coefficients could reach {bound}, "
                            "beyond the exact int64 range 2**62")


def max_abs(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


#: (dtype, largest value) of the narrow signed integer dtypes
_NARROW = tuple((dt, int(np.iinfo(dt).max))
                for dt in (np.int8, np.int16, np.int32))


def _int_dtype(bound):
    """The narrowest signed integer dtype that holds every |x| <= bound."""
    for dt, top in _NARROW:
        if bound <= top:
            return dt
    return np.int64


def _stable_argsort(key):
    """np.argsort(key, kind="stable") of non-negative keys, a C-contiguous
    int64 array, which is sorted in place.

    When the bits of key.max() and of the largest index fit in 64, the
    keys shifted left by the index bits are sorted with their indices
    (`_index_sort`).  Wider keys are sorted by their 16-bit digits, least
    significant first: stable sorts of 16-bit integers are radix sorts in
    numpy (one `np.lexsort` of a uint16 view of the keys, which sorts one
    index array in place); only the digits below key.max() are read.
    """
    top = int(key.max()) if key.size else 0
    b = max(len(key) - 1, 0).bit_length()
    if top.bit_length() + b <= 64:
        word = key.view(np.uint64)
        word <<= b
        return _index_sort(word, b)
    digits = key.view("<u2").reshape(-1, 4)
    order = np.lexsort(digits[:, :max(1, (top.bit_length() + 15) // 16)].T)
    key[...] = key[order]
    return order


def _index_sort(word, b):
    """The stable argsort of uint64 words whose low b bits are 0, where b
    is at least the bit length of the largest index; word becomes the
    sorted words shifted right by b.

    The words word | index are distinct, so sorting them by value in place
    sorts the words stably: the low b bits are the order, and the high
    bits the sorted words.  One value sort of 64-bit integers costs a
    third to a half of an argsort of them.
    """
    order = np.arange(len(word))
    word |= order.view(np.uint64)
    word.sort()
    np.bitwise_and(word, (1 << b) - 1, out=order.view(np.uint64))
    word >>= b
    return order


def _scaled(x, s, dt):
    """x * s, computed in dt: the caller's bound on the product proves that
    dt holds it and every x (x itself when s = 1).  numpy wraps narrow
    integer products silently, so no rescaling is done in x's dtype."""
    return x if s == 1 else np.multiply(x, s, dtype=dt)


def _common_den(elems, degree):
    """(rows, den): numerators of field elements over their common den."""
    den = math.lcm(*(e.den for e in elems)) if elems else 1
    rows = np.array([e.num if e.den == den else
                     [c * (den // e.den) for c in e.num] for e in elems],
                    dtype=np.int64).reshape(len(elems), degree)
    return rows, den


def _placement_columns(d, placed):
    """(ids, r, t, den) of (prototile name, Isometry) pairs."""
    f = field_for_order(d)
    _, index = prototile_ids(d)
    t, den = _common_den([iso.t for _, iso in placed], f.degree)
    return (np.array([index[name] for name, _ in placed], dtype=np.int16),
            np.array([iso.r % f.n for _, iso in placed], dtype=np.int32),
            t, den)


@lru_cache(maxsize=None)
def prototile_ids(d):
    """(prototile names in catalog order, name -> id)."""
    names = tuple(p.name for p in prototile_catalog(d).prototiles)
    return names, {n: i for i, n in enumerate(names)}


@lru_cache(maxsize=None)
def _corner_rows(d):
    """(rows, den): rows[id] = the three prototile corners, by id."""
    f = field_for_order(d)
    names, _ = prototile_ids(d)
    rows, den = _common_den([c for n in names for c in tile_corners(d, n)],
                            f.degree)
    return rows.reshape(len(names), 3, f.degree), den


@lru_cache(maxsize=None)
def _corner_table(d):
    """(table, den, bound): table[id, r] = rows of zeta^r * prototile
    corners, and bound = `max_abs`(table), reduced once with the table."""
    f = field_for_order(d)
    rows, den = _corner_rows(d)
    table = f.turns(rows, _int_dtype(f.degree * max_abs(rows)
                                     * f.power_bound))
    return table, den, max_abs(table)


@lru_cache(maxsize=None)
def letter_table(d):
    """(letters, classes, orientations) of every prototile side, by id."""
    names, _ = prototile_ids(d)
    letters = [_tile_geometry(d, n)[1] for n in names]
    return (letters,
            np.array([[l.cls for l in ls] for ls in letters], dtype=np.int64),
            np.array([[l.orient for l in ls] for ls in letters],
                     dtype=np.int64))


#: corner rows per block whose keys `_corner_ids` sums at once
_ROW_BLOCK = 1 << 16

#: tiles per block of corner rows that `Patch.corner_values` converts
_VALUE_BLOCK = 1 << 12


def _packing(bounds):
    """(W, off, free): the packing of integer rows x with lo[j] <= x[j] <=
    hi[j] (exact bounds, bounds[j] = (lo[j], hi[j])) into keys of uint64
    words.

    Column j takes b_j = (hi[j] - lo[j]).bit_length() bits.  Consecutive
    columns share a word while their widths sum to at most 64, and the
    first column of a word takes its most significant bits.  Word w of
    the key of x is sum_j x[j] * W[w, j] - off[w], with W[w, j] = 2**s_j
    for the columns j of word w (0 for the others) and off[w] = sum_j
    lo[j] * W[w, j], all modulo 2**64 (`_packed`).  A new word starts
    only at a column that does not fit in the last one, so the key is
    one word when the widths sum to at most 64.  No column takes the free
    least significant bits of the last word, so they are 0 in every key.

    The keys are exact, injective and ordered.  Each offset v_j = x[j] -
    lo[j] satisfies 0 <= v_j < 2**b_j, so the fields v_j * 2**s_j of a
    word hold disjoint bits below 2**64, and the word sum_j v_j * 2**s_j
    lies in [0, 2**64).  uint64 arithmetic is exact modulo 2**64, so it
    computes that word itself, whatever the signs of x and lo.  Equal
    keys have equal fields, so equal v and equal rows (a column with b_j
    = 0 is lo[j] in every row): the packing is injective on the box of
    the bounds.  Comparing keys word by word, most significant first,
    compares the fields in column order, so the key order is the
    lexicographic order of the signed rows.
    """
    words, off, room = [], [], 0
    for j, (a, b) in enumerate(bounds):
        width = (b - a).bit_length()
        if width > room:
            words.append([0] * len(bounds))
            off.append(0)
            room = 64
        if width:
            room -= width
            words[-1][j] = 1 << room
            off[-1] += a << room
    return (np.array(words or [[0] * len(bounds)], dtype=np.uint64),
            np.array([o % 2 ** 64 for o in off] or [0], dtype=np.uint64),
            room if words else 64)


def _packed(x, W, subscripts="ij,wj->wi"):
    """The einsum of an integer array x and uint64 weights W, modulo 2**64.

    x is cast to uint64 (two's complement, so modulo 2**64 too) a buffer
    at a time: no widened copy of x is made."""
    return np.einsum(subscripts, x, W, dtype=np.uint64, casting="unsafe",
                     order="C")


def _column_bounds(rows):
    """(lo, hi): the least and greatest entry of every column of the
    integer rows (N x D, N >= 1), as lists of ints."""
    return [reduce_columns(ufunc, rows).tolist()
            for ufunc in (np.minimum, np.maximum)]


def row_ids(rows):
    """(ids, first): equal coefficient rows get equal ids.

    ids has the shape of rows without its last axis; first[i] is the flat
    index of the first row with id i.  Ids number the distinct rows in
    the lexicographic order of their signed values, as `np.unique(rows,
    axis=0)` numbers them.  The keys pack the rows by the bounds of their
    own columns (`_packing`), which are exact and keep that order.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    W, off, free = _packing(list(zip(*_column_bounds(flat))) if len(flat)
                            else [(0, 0)] * flat.shape[1])
    keys = _packed(flat, W)
    keys -= off[:, None]
    ids, first = _block_ids(keys, free)
    return ids.reshape(rows.shape[:-1]), first


def _block_ids(keys, free):
    """`row_ids` of the rows with keys (words x rows, C-contiguous
    uint64, the most significant word first), whose last word has its
    low free bits 0 in every key (`_packing`); the keys are overwritten.

    A key of one word whose free bits hold the bits of every index is
    sorted by value with its index (`_index_sort`), so a run of equal keys
    starts at its least index.  Other keys take one argsort (a lexsort
    for keys of several words), and sorted neighbours are compared one
    word at a time, so no sorted copy of the whole keys is made.  The run
    numbers then take the memory of the first word.
    """
    N = keys.shape[1]
    b = max(N - 1, 0).bit_length()
    new = np.zeros(N, dtype=bool)
    stable = len(keys) == 1 and b <= free
    if stable:
        order = _index_sort(keys[0], b)
        new[1:] = keys[0, 1:] != keys[0, :-1]
    else:
        order = (np.argsort(keys[0]) if len(keys) == 1
                 else np.lexsort(keys[::-1]))
        for word in keys:
            word = word[order]
            new[1:] |= word[1:] != word[:-1]
        del word
    new[:1] = True
    start = new.nonzero()[0]
    run = np.cumsum(new, out=keys[0].view(np.int64))
    run -= 1
    ids = np.empty_like(order)
    ids[order] = run
    # an argsort need not be stable: take each run's smallest index
    first = (order[start] if stable or not N
             else np.minimum.reduceat(order, start))
    return ids, first


def _corner_ids(patch):
    """`row_ids(patch.corner_rows()[0])`, the corner ids (N x 3) and the
    flat index (3 k + j) of each id's first corner.

    Corner j of tile k has the coefficients table[ids[k], r[k], j] * s1 +
    t[k] * s2 (`Patch._corner_frame`), and its key is linear in them: the
    key of the table row, packed once for each (id, r) that a tile takes
    and found through a dense index of those, plus the key of the
    translation row.  The bounds come from those table rows and the
    translation rows, so the keys are exact and ordered as in `row_ids`
    (see `_packing`); only the columns that vary enter them.  The keys
    are summed for `_ROW_BLOCK` // 3 tiles at a time, and no corner row
    is built.
    """
    ids, r, t, _ = patch.columns
    table, _, s1, s2, _ = patch._corner_frame()
    P, n, _, D = table.shape
    row = np.ravel_multi_index((ids, r), (P, n))
    taken = np.bincount(row, minlength=P * n).nonzero()[0]
    # at[row]: the place of a taken (id, r) among the rows taken
    at = np.empty(P * n, dtype=np.intp)
    at[taken] = np.arange(len(taken))
    rows = table.reshape(P * n, 3, D)[taken]
    bounds = [(0, 0)] * D
    if len(patch):
        bounds = [(a * s1 + c * s2, b * s1 + e * s2) for a, b, c, e in zip(
            *_column_bounds(rows.reshape(-1, D)), *_column_bounds(t))]
    W, off, free = _packing(bounds)
    # a column with one value in every corner has no weight
    var = [j for j, (lo, hi) in enumerate(bounds) if lo != hi]
    W = W[:, var]
    # s1, s2 < 2**62 by the guard of the corner bound: uint64 holds them
    corner = _packed(rows[..., var], W * s1, "mcj,wj->wmc")
    corner -= off[:, None, None]
    W *= s2
    keys = np.empty((len(off), len(patch), 3), dtype=np.uint64)
    tiles = max(1, _ROW_BLOCK // 3)
    for a in range(0, len(patch), tiles):
        k = keys[:, a:a + tiles]
        np.take(corner, at[row[a:a + tiles]], 1, out=k)
        k += _packed(t[a:a + tiles, var], W)[:, :, None]
    del row
    pid, first = _block_ids(keys.reshape(len(keys), -1), free)
    return pid.reshape(len(patch), 3), first


class Patch:
    """A finite set of placed prototiles, stored column-wise.

    Tile k is prototile `names[ids[k]]` placed by w -> zeta^r[k] w +
    t[k] / den: name ids (int16), rotations (int32) and translation
    numerators (one row per tile) share one denominator.  The numerators
    are stored in the narrowest dtype that holds them, `_int_dtype` of
    their largest |coefficient| `t_max`.  numpy wraps narrow integer
    arithmetic silently, so nothing computes in that dtype: every reader
    widens the rows first (to int64 or Python ints), or computes in the
    dtype of a bound it has proved (`_scaled`); each such bound is checked
    against INT64_SAFE and raises OverflowError instead of wrapping.  A
    patch made from `Tile`s converts them to these columns once; its
    `tiles` list is a view of the columns, built only when asked.  Both
    are read-only: make a new Patch to change tiles.
    """

    def __init__(self, d, tiles):
        self._store(d, *_placement_columns(
            d, [(tile.name, tile.iso) for tile in tiles]))

    @classmethod
    def single(cls, d, name):
        """Prototile `name` at the identity."""
        return cls.from_columns(
            d, np.array([prototile_ids(d)[1][name]], dtype=np.int16),
            np.zeros(1, dtype=np.int32),
            np.zeros((1, field_for_order(d).degree), dtype=np.int8))

    @classmethod
    def from_columns(cls, d, ids, r, t, den=1):
        """A patch from name ids, rotations and translation numerators of
        any integer dtype, reduced to their least common denominator."""
        if den != 1 and len(t):
            tg = int(np.gcd.reduce(t, axis=None))
            g = math.gcd(den, tg)
            den //= g
            if tg:  # g divides a coefficient, so t's dtype holds it
                t = t // g
        self = cls.__new__(cls)
        self._store(d, ids, r, t, den)
        return self

    def _store(self, d, ids, r, t, den):
        """Keep the columns, with t in the narrowest dtype."""
        self.d = d
        self.t_max = max_abs(t)
        self.columns = (ids, r, t.astype(_int_dtype(self.t_max), copy=False),
                        den)

    @cached_property
    def tiles(self):
        """The tiles as `Tile`s with normalised translations."""
        f = field_for_order(self.d)
        names, _ = prototile_ids(self.d)
        ids, r, t, den = self.columns
        return [Tile(names[i], Isometry(rk, Elem(f, num, den).normalized()))
                for i, rk, num in zip(ids.tolist(), r.tolist(), t.tolist())]

    def __len__(self):
        return len(self.columns[0])

    def _corner_frame(self):
        """(table, den, s1, s2, dt): corner j of tile k has the numerators
        table[ids[k], r[k], j] * s1 + t[k] * s2 over den, and dt holds
        every coefficient of them and s1, s2; the bound is guarded."""
        table, tden, tmax = _corner_table(self.d)
        den = self.columns[3]
        L = math.lcm(den, tden)
        s1, s2 = L // tden, L // den
        bound = tmax * s1 + self.t_max * s2
        _guard(bound, "corner rows")
        return table, L, s1, s2, _int_dtype(max(bound, s1, s2))

    def corner_rows(self, tiles=slice(None), corner=None):
        """(C, den): C[k, j] = numerators of corner j of tile tiles[k],
        over den (every tile by default); given corner, an array of corner
        numbers 0..2 as long as the index array tiles, C[k] is the row of
        corner corner[k] of tile tiles[k] alone.

        The one corner kernel: the rotated prototile corners are gathered
        from a per-d table and the translations added.  Equal corners have
        equal rows.  C has the narrowest integer dtype its bound allows.
        """
        ids, r, t, _ = self.columns
        table, L, s1, s2, dt = self._corner_frame()
        P, n, _, D = table.shape
        # np.take gathers rows several times faster than fancy indexing
        at = ids[tiles].astype(np.intp) * n + r[tiles]
        t = t[tiles] if isinstance(tiles, slice) else np.take(t, tiles, 0)
        if corner is None:
            table, t = table.reshape(P * n, 3, D), t[:, None, :]
        else:
            table, at = table.reshape(P * n * 3, D), at * 3 + corner
        C = np.multiply(np.take(table, at, 0), s1, dtype=dt)
        C += _scaled(t, s2, dt)
        return C, L

    def corner_values(self):
        """Complex corners, N x 3, equal to `Elem.cvalue()` bit for bit.

        They are converted from the corner rows of `_VALUE_BLOCK` tiles at
        a time, so the N x 3 x D corner matrix is never held."""
        f = field_for_order(self.d)
        out = np.empty((len(self), 3), dtype=complex)
        for a in range(0, len(self), _VALUE_BLOCK):
            C, den = self.corner_rows(slice(a, a + _VALUE_BLOCK))
            out[a:a + _VALUE_BLOCK] = f.cvalues(C, den)
        return out

    def inflate(self, rules: RuleSet):
        """Replace every tile by the children of its rule, scaled by iota."""
        assert rules.d == self.d
        return _inflate(self, rules.columns(), self.columns[0])[0]


def _runs(count):
    """(owner, offset): offsets 0..count[k]-1 for each k, with owner k."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


def _inflate(patch, tab, key):
    """The one inflation kernel: tile k takes the children of table row
    key[k] (see `_rule_table`).

    Child c of tile (r, t) is placed by (zeta^r * h_c.t + iota * t,
    r + h_c.r): a gather from the rule table plus one matrix product.
    Every step computes in the dtype of the guarded bound, which also
    bounds every partial sum of the product.  Returns (patch, parent,
    child): the inflated patch and, per new tile, its parent tile and its
    child row in the table.
    """
    f = field_for_order(patch.d)
    _, r, t, den = patch.columns
    count = tab.count[key]
    if (count < 0).any():
        names, _ = prototile_ids(patch.d)
        raise KeyError(names[key[np.argmax(count < 0)] % len(names)])
    parent, child = _runs(count)
    child += tab.start[key][parent]
    pr = r[parent]
    L = math.lcm(den * tab.mden, tab.den)
    s1, s2 = L // (den * tab.mden), L // tab.den
    bound = f.degree * patch.t_max * tab.M_max * s1 + tab.rot_max * s2
    _guard(bound, "inflation")
    dt = _int_dtype(max(bound, tab.M_max * s1, s2))
    # iota * t over L is t @ (M s1): the rescaling rides on the product
    new_t = (t.astype(dt, copy=False) @ np.multiply(tab.M, s1, dtype=dt))[
        parent]
    new_t += _scaled(tab.rot[tab.tidx[child], pr], s2, dt)
    new_r = (pr + tab.r[child]) % f.n
    out = Patch.from_columns(patch.d, tab.ids[child], new_r.astype(np.int32),
                             new_t, L)
    return out, parent, child


# -- face-to-face verification ------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    tiles: int
    interior_edges: int
    boundary_edges: int
    problems: list

    def __str__(self):
        state = "face-to-face" if self.ok else "NOT face-to-face"
        return (f"{state}: {self.tiles} tiles, {self.interior_edges} interior "
                f"and {self.boundary_edges} boundary edges"
                + (f"; {len(self.problems)} problems" if self.problems else ""))


def _inside_edge(a, b, c):
    """Exact: c lies on the segment [a, b], strictly between its ends."""
    u = b - a
    w = u.conj() * (c - a)  # real iff c is on the line; then w = s * |u|^2
    if w != w.conj():
        return False
    return w.real_sign() > 0 and (u * u.conj() - w).real_sign() > 0


def tile_edges(pid):
    """The edges of tiles whose corners have ids pid (N x 3).

    Tile edge 3k + j runs from corner j to corner j+1 of tile k; the two
    sides of a shared edge get one edge id.  Returns (first, count, side2,
    fwd), indexed by edge id: its first tile edge, the number of tile
    edges with that id, its second tile edge (meaningful when count >= 2),
    and, per tile edge, whether it runs from the smaller to the larger
    corner id.  Edge ids number the distinct corner-id pairs in increasing
    order: one stable argsort of the pair keys, read at the starts of its
    runs (`_stable_argsort`).
    """
    a = pid.ravel()
    # corner j + 1 of tile k, and corner 0 after corner 2
    b = np.concatenate((a[1:], a[:1]))
    b[2::3] = a[::3]
    n = int(pid.max()) + 1 if pid.size else 0
    key = np.minimum(a, b)
    key *= n
    key += np.maximum(a, b)
    fwd = a < b
    # dropped before the sort, whose index buffers then reuse its memory
    del b
    order = _stable_argsort(key)
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    del key  # freed before the per-edge arrays are made
    start = np.flatnonzero(new)
    count = np.diff(start, append=len(order))
    first = order[start]
    side2 = order[np.minimum(start + 1, len(order) - 1)]
    return first, count, side2, fwd


def verify_face_to_face(patch: Patch, decorated=True, max_problems=20):
    """Exact adjacency audit of a patch.

    Every shared edge must be traversed once in each direction; with
    `decorated` the two letters must have opposite orientations (the
    interior decorations then match across the edge).  Their classes need
    no check: a letter's class is the length class of its side, and both
    sides of a shared edge have its exact length.
    Boundary edges are checked against T-junctions: no tile corner may lie
    strictly inside them.  Corners and edges are paired as exact
    coefficient rows (`_corner_ids`, `tile_edges`).  Floats only pick the
    T-junction candidates, from one sorted cell grid, with a filter
    widened by the proven float error of every corner, so no true
    T-junction is dropped; each candidate is confirmed exactly
    (`_t_junctions`).  The corner rows are never held whole: the keys are
    built from blocks of them, and the distinct corners are gathered
    again from the corner table and the translations.
    """
    d = patch.d
    ids = patch.columns[0]
    pid, pfirst = _corner_ids(patch)
    points, den = patch.corner_rows(*np.divmod(pfirst, 3))
    first, count, side2, fwd = tile_edges(pid)
    letters, _, orient = letter_table(d)
    # each is -1, 0 or +1
    orient = np.take(orient.astype(np.int8), ids, 0).ravel()
    pair = count == 2
    same = pair & (fwd[first] == fwd[side2])
    dec_bad = pair & ~same & (orient[first] + orient[side2] != 0)
    bad = np.flatnonzero((count > 2) | same | (dec_bad & decorated))
    problems = []
    # format only the bad edges the report keeps: the first max_problems,
    # in tile-edge order
    for e in bad[np.argsort(first[bad])[:max_problems]].tolist():
        if count[e] > 2:
            problems.append(f"edge shared by {count[e]} tiles")
            continue
        l1, l2 = (letters[ids[o // 3]][o % 3] for o in (first[e], side2[e]))
        if same[e]:
            problems.append("edge traversed twice in the same direction "
                            f"({l1}, {l2})")
        else:
            problems.append(f"decoration mismatch {l1} vs {l2}")
    boundary = np.flatnonzero(count == 1)
    if len(problems) < max_problems and len(boundary):
        ends = np.sort(first[boundary])
        # tile edge 3 k + j runs from corner j to corner j + 1 of tile k
        problems += _t_junctions(field_for_order(d), points, den,
                                 pid.ravel()[ends],
                                 pid.ravel()[ends - ends % 3 + (ends + 1) % 3],
                                 max_problems - len(problems))
    return VerifyReport(not (len(bad) or problems), len(patch),
                        int(pair.sum()), len(boundary),
                        problems[:max_problems])


def _cell_pairs(fl, pad, za, zb):
    """(edge, corner): the corners fl[corner] in the cells that the box
    spanned by za[edge] and zb[edge], padded by pad, touches, edge by edge.

    The cells are squares of side s, the least power of two at least 1,
    pad and 2^-28 R (R the largest |Re fl_k| or |Im fl_k|): unit cells
    unless the errors or the coordinates are large, and never more than
    2^30 of them along an axis, so the keys fit int64.  Corner k lies in
    the cell (rint(Re fl_k / s), rint(Im fl_k / s)); the corners are
    sorted once by integer cell key, and each cell's corners are one
    `searchsorted` range.  Each box takes every cell it touches (x outer,
    y inner), so, as rint is monotone, a corner within pad of the box
    is found as long as pad also covers the rounding of the padded box.
    """
    x, y = fl.real, fl.imag
    R = max(np.abs(x).max(), np.abs(y).max())
    s = 2.0 ** max(0, math.frexp(max(pad, R * 2.0 ** -28))[1])
    cx, cy = np.rint(x / s).astype(np.int64), np.rint(y / s).astype(np.int64)
    x0, x1, y0, y1 = cx.min(), cx.max(), cy.min(), cy.max()
    height = int(y1 - y0) + 1
    key = (cx - x0) * height + (cy - y0)
    order = _stable_argsort(key)

    def cells(a, b, floor, ceil):
        return (np.maximum(np.rint((np.minimum(a, b) - pad) / s)
                           .astype(np.int64), floor),
                np.minimum(np.rint((np.maximum(a, b) + pad) / s)
                           .astype(np.int64), ceil))

    lx, hx = cells(za.real, zb.real, x0, x1)
    ly, hy = cells(za.imag, zb.imag, y0, y1)
    ny = hy - ly + 1
    edge, k = _runs((hx - lx + 1) * ny)
    i, j = np.divmod(k, ny[edge])
    cell = (lx[edge] - x0 + i) * height + (ly[edge] - y0 + j)
    lo = np.searchsorted(key, cell, side="left")
    cell, k = _runs(np.searchsorted(key, cell, side="right") - lo)
    return edge[cell], order[lo[cell] + k]


#: up to this many (edge, corner) pairs `_candidates` returns them all:
#: building the cell grid costs more than filtering that many pairs
#: (0.1 to 0.2 ms more per two-tile patch)
_ALL_PAIRS = 4096


def _candidates(fl, err, starts, ends):
    """(edge, corner), sorted by edge: every corner c that can lie inside
    the edge starts[k] -> ends[k] (corner ids; fl the float values and
    err the bounds of their errors, see `_t_junctions`), and some more.

    If z_c lies on the segment [z_a, z_b], then Re fl_c lies within
    e_c + max(e_a, e_b) of the interval spanned by Re fl_a and Re fl_b,
    and likewise Im.  The corners with err at most E = max(1/4, 16 m),
    m the median of err, form the grid of `_cell_pairs`, with the boxes
    padded by 2e + 2^-40 (1 + R), e their largest error and R their
    largest float coordinate (the second term covers the rounding of the
    padded box): an edge between two of them finds every such corner.
    The few corners above E, which only a patch with some very large
    coefficients has, would make every cell as large as their errors;
    instead they are paired with every edge, and an edge with such an
    end with every corner.  A patch with at most `_ALL_PAIRS` pairs gets
    all of them.
    """
    if len(starts) * len(fl) <= _ALL_PAIRS:
        return np.divmod(np.arange(len(starts) * len(fl)), len(fl))
    big = err > max(0.25, 16 * np.median(err))
    grid = np.flatnonzero(~big)
    pad = 2 * err[grid].max() + 2.0 ** -40 * (
        1 + np.abs(fl[grid].view(float)).max())
    if len(grid) == len(fl):
        return _cell_pairs(fl, pad, fl[starts], fl[ends])
    odd = big[starts] | big[ends]
    plain, other, out = (np.flatnonzero(~odd), np.flatnonzero(odd),
                         np.flatnonzero(big))
    edge, c = _cell_pairs(fl[grid], pad, fl[starts[plain]], fl[ends[plain]])
    edge = np.concatenate([plain[edge], np.repeat(plain, len(out)),
                           np.repeat(other, len(fl))])
    c = np.concatenate([grid[c], np.tile(out, len(plain)),
                        np.tile(np.arange(len(fl)), len(other))])
    order = np.argsort(edge, kind="stable")
    return edge[order], c[order]


def _t_junctions(f, points, den, starts, ends, max_problems):
    """Corners strictly inside the edges starts[k] -> ends[k] (point ids),
    in edge order, at most max_problems of them.

    Floats only pick candidates, and never drop a true one; each candidate
    is confirmed exactly by `_inside_edge`.  The float value fl_k of
    corner k (`CycField.cvalues`, equal to `Elem.cvalue`) lies within
    e_k = sum_j |c_kj| (D + 8) 2^-50 / den of its exact value z_k
    (`Elem.cvalue_error`).  The proof of that bound gives an error below
    e_k / 2 (a factor 1.5 D + 25 where the formula has 8 D + 64), which
    leaves room for the roundings in computing e_k and the margins below.
    The candidate pairs come from `_candidates`.

    Filter.  Let w = fl_b - fl_a, v = (fl_c - fl_a) conj(w) and
    h = e_a + e_b + e_c.  If z_c = z_a + t (z_b - z_a) with 0 < t < 1,
    then P = fl_a + t w is within max(e_a, e_b) of z_c, so fl_c - fl_a =
    t w + q with |q| <= h.  Hence v = t |w|^2 + q conj(w) satisfies
    |Im v| <= h|w| and -h|w| <= Re v <= |w|^2 + h|w|.  Each side of these
    tests is computed with fewer than 16 roundings (relative 2^-53) of
    sums of products of factors of modulus at most |w| + 2h, so it moves
    by less than 2^-48 (|w| + 2h)^2; the filter widens every test by
    tau = 2^-44 (|w| + 2h)^2 and keeps such a corner.
    """
    fl = f.cvalues(points, den)
    # columns that are 0 in every corner add nothing to the bounds
    used = np.flatnonzero(reduce_columns(np.bitwise_or, points))
    err = np.abs(points[:, used]).sum(axis=1, dtype=float) * (
        (f.degree + 8) * 2.0 ** -50 / den)
    edge, c = _candidates(fl, err, starts, ends)
    a, b = starts[edge], ends[edge]
    w = fl[b] - fl[a]
    v = (fl[c] - fl[a]) * w.conj()
    aw = np.abs(w)
    h = err[a] + err[b] + err[c]
    tol = h * aw + 2.0 ** -44 * (aw + 2 * h) ** 2
    keep = ((c != a) & (c != b) & (np.abs(v.imag) <= tol)
            & (v.real >= -tol) & (v.real <= aw * aw + tol))

    def exact(p):
        return Elem(f, points[p].tolist(), den).normalized()

    problems = []
    for ka, kb, kc in zip(a[keep].tolist(), b[keep].tolist(),
                          c[keep].tolist()):
        if _inside_edge(exact(ka), exact(kb), exact(kc)):
            mid = (complex(fl[ka]) + complex(fl[kb])) / 2
            problems.append("tile corner inside a boundary edge "
                            f"(T-junction near {mid:.3f})")
            if len(problems) >= max_problems:
                break
    return problems


# -- edge inflation words -----------------------------------------------

def mir(word):
    return tuple(reversed(word))


def rho(word):
    return tuple(l.negated() for l in word)


def project(word):
    return tuple(l.cls for l in word)


def edge_subdivision(d, p, j):
    """S-index sequence of an iota_{d,p}-inflated class-j edge."""
    if 1 <= j <= p:
        return list(range(p - j + 1, p + j, 2))
    return list(range(j - p + 1, j + p, 2))


def derive_edge_words(rules: RuleSet):
    """The induced letter substitution: letter -> word of child letters.

    Words are read along each side of every inflated prototile; the
    derivation asserts that all occurrences of a letter induce the same
    word, which is what makes the substitution well defined on edges.
    Child corners are floats zeta^r * c + t, built for all children at
    once (`CycField.cvalues` gives t bit for bit as `Elem.cvalue`); a
    child side belongs to a word when both its ends lie on the parent
    side, tested for every child against its own parent's three sides.
    """
    d = rules.d
    f = field_for_order(d)
    names, index = prototile_ids(d)
    letters = letter_table(d)[0]
    base = f.cvalues(*_corner_rows(d))  # prototile corners, by id
    count, kids = rules.table()
    ids, r, t, den = kids.columns
    have = count >= 0
    parents = [n for n, h in zip(names, have) if h]
    owner = np.repeat(np.cumsum(have) - 1, np.maximum(count, 0))
    ids = ids.astype(np.int64)
    turn = np.exp(2j * np.pi / f.n * r)
    corners = turn[:, None] * base[ids] + f.cvalues(t, den)[:, None]
    big = base[have] * rules.iota.cvalue()
    side = big[:, [1, 2, 0]] - big
    ln2 = (abs(side) ** 2)[owner][:, None, :]
    # v[c, j, k]: corner j of child c against side k of its parent,
    # scaled by |side|^2
    v = ((corners[:, :, None] - big[owner][:, None, :])
         * side.conjugate()[owner][:, None, :])
    on = ((np.abs(v.imag) <= 1e-9 * ln2) & (v.real >= -1e-9 * ln2)
          & (v.real <= (1 + 1e-9) * ln2))
    on &= on[:, [1, 2, 0]]
    c, j, k = np.nonzero(on)
    pos = v[c, j, k].real
    group = owner[c] * 3 + k
    backward = np.zeros(3 * len(parents), dtype=bool)
    backward[group[~(v[c, (j + 1) % 3, k].real > pos)]] = True
    order = np.lexsort((pos, group))
    bounds = np.searchsorted(group[order], np.arange(3 * len(parents) + 1))
    # equal letters are made one object, so comparing words is identity
    canon = {}
    seq = np.array([canon.setdefault(letter, letter) for ls in letters
                    for letter in ls], dtype=object)[
        ids[c[order]] * 3 + j[order]].tolist()
    words = {}
    for g, name in enumerate(n for n in parents for _ in range(3)):
        letter = letters[index[name]][g % 3]
        assert not backward[g], \
            f"child side against the direction of {letter} in {name}"
        word = tuple(seq[bounds[g]:bounds[g + 1]])
        prev = words.get(letter)
        assert prev is None or prev == word, \
            f"inconsistent edge word for {letter} in {name}"
        words[letter] = word
    return words
