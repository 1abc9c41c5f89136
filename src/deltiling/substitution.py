"""Substitution rules derived from the arrangement geometry.

Inflating an elementary triangle by iota_{d,p} = s_p/s_1 produces a
triangle congruent to a class-p triangle of an order-d pattern (possibly
with a different symmetry variant); the elementary faces inside that
triangle are the substitution children.  All of this is computed exactly:
the only floating point use is for pre-filtering candidates that are then
confirmed with field arithmetic.

Congruences are found without field division: the float phase of a side
ratio picks the rotation exponent r, and the field confirms it by the
exact equality zeta^r * (a1 - a0) == b1 - b0.  Floats only pick r; every
verdict is a field equality.

Tiles are always placed by direct isometries w -> zeta^r w + t; a mirrored
tile is represented by the mirror prototile of the catalog, so reflections
never appear in placements.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

from .field import embed, field_for_order, inflation_factor
from .arrangement import SymmetryIndex, TriangleId, get_arrangement
from .prototiles import (EdgeLetter, Prototile, canonical_rotation, decorate,
                         prototile_catalog, signature, tilde_signature)


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


def rotation_index(num, den):
    """Index r with num = zeta_n^r * den, or None; no field division.

    The float phase of num * conj(den) picks the only possible r, and the
    exact equality den.mul_zeta(r) == num decides.  Pairs whose float
    moduli clearly differ are skipped before any field operation.
    """
    f = den.f
    zn, zd = num.cvalue(), den.cvalue()
    if abs(abs(zn) - abs(zd)) > 1e-6 * max(abs(zn), abs(zd)):
        return None
    r = round(cmath.phase(zn * zd.conjugate()) * f.n / (2 * cmath.pi)) % f.n
    if den.mul_zeta(r) == num:
        return r
    return None


def match_triangles(src, dst):
    """Direct isometry with dst[k] = g(src[(k+shift) % 3]), or (None, None).

    For each cyclic shift the rotation comes from `rotation_index` (float
    phase picks r, the field confirms it) and the translation from the
    first corner; the third corner is then confirmed exactly as well.
    """
    b0, b1, b2 = dst
    num = b1 - b0
    for shift in range(3):
        a0, a1, a2 = (src[(k + shift) % 3] for k in range(3))
        r = rotation_index(num, a1 - a0)
        if r is None:
            continue
        g = Isometry(r, b0 - a0.mul_zeta(r))
        if g(a2) == b2:
            return g, shift
    return None, None


# -- prototile geometry in the order-d field ----------------------------

@lru_cache(maxsize=None)
def _tile_geometry(d, name):
    """(corners, letters) of a catalog prototile in the order-d field."""
    cat = prototile_catalog(d)
    p = cat.by_name[name]
    sym = p.face.sym
    arr = get_arrangement(sym.d, sym.kappa)
    corners, _ = arr.corners(p.face.tri)
    big = p.face.corners[0].f
    for r in range(3):
        if embed(corners[r], big) == p.face.corners[0]:
            rot = tuple(corners[(r + k) % 3] for k in range(3))
            return rot, p.signature
    raise AssertionError(f"corner alignment lost for {name}")


def tile_corners(d, name, iso=None):
    corners, _ = _tile_geometry(d, name)
    if iso is None:
        return corners
    return tuple(iso(c) for c in corners)


@lru_cache(maxsize=None)
def _decorated(sym, tri):
    return decorate(sym, tri)


@lru_cache(maxsize=None)
def _face_placements(d2, kappa2, d):
    """(prototile name, placement) for every face of one arrangement."""
    sym = SymmetryIndex(d2, kappa2)
    cat = prototile_catalog(d)
    arr = get_arrangement(d2, kappa2)
    out = {}
    for tri in arr.faces():
        df = _decorated(sym, tri)
        proto, r = cat.classify(df.letters)
        corners, _ = arr.corners(tri)
        face_corners = tuple(corners[(k + r) % 3] for k in range(3))
        rep = tile_corners(d, proto.name)
        g, shift = match_triangles(rep, face_corners)
        assert g is not None and shift == 0, f"cannot place {tri} as {proto.name}"
        out[tri.idx] = (proto.name, g, face_corners)
    return out


# -- locating the inflated triangle -------------------------------------

def _signed_triple(sym, idx):
    if sym.kappa == 2:
        return tuple(-i for i in idx)
    return idx


def _internal_tri(sym, signed):
    if sym.kappa == 2:
        signed = tuple((-x) % sym.d for x in signed)
    else:
        signed = tuple(x % sym.d for x in signed)
    return TriangleId(sym, tuple(sorted(signed)))


def _target_preference(d, p, branch, sign):
    """Order in which the target classes +-p are tried.

    The positive-variant convention: negative branches inflate to class +p
    and positive branches to class -p, except that order-3q patterns with
    3 not dividing p send both +-1 branches to +p, and the 3 | p
    transitions across symmetry variants follow the explicit index-shift
    laws (class -p exactly for the smallest factor iota_3 on small q).
    """
    if d % 3 != 0 or p % 3 != 0:
        pref = p if branch < 0 else -p
    else:
        m = p // 3
        q = d // 3
        if branch > 0:
            pref = -p if (m == 1 and q <= 3) else p
        else:
            pref = p if (m == 1 and q <= 3) else -p
    if sign < 0:
        pref = -pref
    return (pref, -pref)


def locate_inflated(sym, tri, p, sign=1):
    """Target (sym', tri', psi) with psi(iota * tri corners) = tri' corners."""
    d = sym.d
    iota = inflation_factor(d, p)
    arr = get_arrangement(sym.d, sym.kappa)
    corners, _ = arr.corners(tri)
    src = tuple(c * iota for c in corners)
    sigma = tri.sigma
    branch = tri.m_class if tri.m_class <= d // 2 else tri.m_class - d
    signed = _signed_triple(sym, tri.idx)

    kappas = (0,) if d % 3 else (0, -2, 2)
    for s in _target_preference(d, p, branch, sign):
        for k2 in kappas:
            # need 3n = (kappa' + s) - sigma (mod d) for a label shift n
            rhs = (k2 + s - sigma) % d
            sols = [n for n in range(d) if (3 * n) % d == rhs]
            for n in sols:
                sym2 = SymmetryIndex(d, k2)
                tri2 = _internal_tri(sym2, tuple(x + n for x in signed))
                if tri2.p_class != p:
                    continue
                arr2 = get_arrangement(d, k2)
                dst, _ = arr2.corners(tri2)
                g, shift = match_triangles(src, dst)
                if g is not None:
                    return sym2, tri2, g
    raise AssertionError(f"no congruent inflated image for {tri} (p={p})")


# -- rule derivation ----------------------------------------------------

def _point_in(p, tri_fl, margin=1e-9):
    for k in range(3):
        a, b = tri_fl[k], tri_fl[(k + 1) % 3]
        if ((b - a).conjugate() * (p - a)).imag < margin:
            return False
    return True


class RuleSet:
    """Substitution children, per prototile, in the inflated-tile frame."""

    def __init__(self, d, p, sign, rules):
        self.d = d
        self.p = p
        self.sign = sign
        self.rules = rules  # name -> tuple of (child name, Isometry)
        self.iota = inflation_factor(d, p)

    def children(self, name):
        return self.rules[name]

    def counts(self, name):
        out = {}
        for cname, _ in self.rules[name]:
            out[cname] = out.get(cname, 0) + 1
        return out

    def matrix(self, order=None):
        """M[i][j] = multiplicity of prototile i inside the image of j."""
        import numpy as np
        cat = prototile_catalog(self.d)
        if order is None:
            order = [p.name for p in cat.prototiles]
        index = {n: i for i, n in enumerate(order)}
        M = np.zeros((len(order), len(order)), dtype=int)
        for j, name in enumerate(order):
            for cname, _ in self.rules[name]:
                M[index[cname], j] += 1
        return M, order


@lru_cache(maxsize=None)
def derive_rules(d, p, sign=1) -> RuleSet:
    cat = prototile_catalog(d)
    iota = inflation_factor(d, p)
    rules = {}
    for proto in cat.prototiles:
        sym = proto.face.sym
        tri = proto.face.tri
        sym2, tri2, psi = locate_inflated(sym, tri, p, sign)
        arr2 = get_arrangement(sym2.d, sym2.kappa)
        tcorners, _ = arr2.corners(tri2)
        # representative rotation: psi maps the canonical corner cycle
        rep = tile_corners(d, proto.name)
        src = tuple(c * iota for c in rep)
        g, shift = match_triangles(src, tcorners)
        assert g is not None
        tri_fl = [c.cvalue() for c in tcorners]
        placements = _face_placements(sym2.d, sym2.kappa, d)
        inv = g.inverse()
        children = []
        for idx, (cname, place, fc) in placements.items():
            cen = sum(c.cvalue() for c in fc) / 3
            if _point_in(cen, tri_fl):
                children.append((cname, inv.compose(place)))
        assert children, f"empty rule for {proto.name}"
        children.sort(key=lambda ch: (ch[0], ch[1].key()))
        rules[proto.name] = tuple(children)
    return RuleSet(d, p, sign, rules)


# -- patches ------------------------------------------------------------

@dataclass(frozen=True)
class Tile:
    name: str
    iso: Isometry

    def corners(self, d):
        return tile_corners(d, self.name, self.iso)

    def letters(self, d):
        return _tile_geometry(d, self.name)[1]


class Patch:
    def __init__(self, d, tiles):
        self.d = d
        self.tiles = list(tiles)

    @classmethod
    def single(cls, d, name):
        f = field_for_order(d)
        return cls(d, [Tile(name, identity_isometry(f))])

    def __len__(self):
        return len(self.tiles)

    def inflate(self, rules: RuleSet):
        assert rules.d == self.d
        out = []
        for tile in self.tiles:
            outer = tile.iso.scaled_translation(rules.iota)
            for cname, h in rules.children(tile.name):
                out.append(Tile(cname, outer.compose(h)))
        return Patch(self.d, out)

    def counts(self):
        out = {}
        for t in self.tiles:
            out[t.name] = out.get(t.name, 0) + 1
        return out


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


def verify_face_to_face(patch: Patch, decorated=True, max_problems=20):
    """Exact adjacency audit of a patch.

    Every shared edge must be traversed once in each direction; with
    `decorated` the two letters must carry the same class and opposite
    orientations (the interior decorations then match across the edge).
    Boundary edges are checked against T-junctions: no tile corner may lie
    strictly inside them.  Floats only pick the candidate corners (every
    corner in a unit cell that the edge's bounding box touches, then a
    loose collinearity test); each candidate is confirmed exactly.
    """
    d = patch.d
    problems = []
    edges = {}
    points = {}  # corner key -> (exact corner, float embedding)
    for ti, tile in enumerate(patch.tiles):
        corners = tile.corners(d)
        letters = tile.letters(d)
        keys = [c.key() for c in corners]
        for key, c in zip(keys, corners):
            if key not in points:
                points[key] = (c, c.cvalue())
        for k in range(3):
            a, b = keys[k], keys[(k + 1) % 3]
            ekey = (a, b) if a <= b else (b, a)
            edges.setdefault(ekey, []).append((ti, letters[k], a <= b))
    interior = boundary = 0
    for ekey, ents in edges.items():
        if len(ents) > 2:
            problems.append(f"edge shared by {len(ents)} tiles")
            continue
        if len(ents) == 2:
            interior += 1
            (_, l1, f1), (_, l2, f2) = ents
            if f1 == f2:
                problems.append("edge traversed twice in the same direction "
                                f"({l1}, {l2})")
            elif l1.cls != l2.cls:
                problems.append(f"edge class mismatch {l1} vs {l2}")
            elif decorated and l1.orient + l2.orient != 0:
                problems.append(f"decoration mismatch {l1} vs {l2}")
        else:
            boundary += 1
    # T-junction scan on boundary edges (corner strictly inside an edge)
    cells = {}
    for key, (_, fl) in points.items():
        cells.setdefault((round(fl.real), round(fl.imag)), []).append(key)
    eps = 1e-6
    for (ka, kb), ents in edges.items():
        if len(ents) != 1:
            continue
        (a, af), (b, bf) = points[ka], points[kb]
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
                c, cf = points[key]
                v = (cf - af) * w.conjugate()
                if abs(v.imag) > eps * span2 \
                        or not -eps * span2 < v.real < (1 + eps) * span2:
                    continue
                if _inside_edge(a, b, c):
                    problems.append("tile corner inside a boundary edge "
                                    f"(T-junction near {(af + bf) / 2:.3f})")
        if len(problems) >= max_problems:
            break
    return VerifyReport(not problems, len(patch.tiles), interior, boundary,
                        problems[:max_problems])


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
    """
    d = rules.d
    words = {}
    for name, children in rules.rules.items():
        rep, letters = _tile_geometry(d, name)
        big = tile_corners(d, name)
        sides = []
        for k in range(3):
            a = rep[k] * rules.iota
            b = rep[(k + 1) % 3] * rules.iota
            sides.append((a, b, letters[k]))
        child_edges = []
        for cname, h in children:
            ccorners = tile_corners(d, cname, h)
            _, cletters = _tile_geometry(d, cname)
            for k in range(3):
                child_edges.append((ccorners[k], ccorners[(k + 1) % 3],
                                    cletters[k]))
        for a, b, letter in sides:
            af, bf = a.cvalue(), b.cvalue()
            dirv = bf - af
            ln2 = abs(dirv) ** 2
            found = []
            for ca, cb, cl in child_edges:
                caf, cbf = ca.cvalue(), cb.cvalue()
                # both endpoints on the [a, b] segment, oriented forwards
                ok = True
                for pt in (caf, cbf):
                    s = ((pt - af) * dirv.conjugate()).real / ln2
                    cr = ((pt - af) * dirv.conjugate()).imag
                    if abs(cr) > 1e-9 * ln2 or s < -1e-9 or s > 1 + 1e-9:
                        ok = False
                        break
                if not ok:
                    continue
                pos = ((caf - af) * dirv.conjugate()).real / ln2
                assert ((cbf - caf) * dirv.conjugate()).real > 0
                found.append((pos, cl))
            found.sort(key=lambda e: e[0])
            word = tuple(cl for _, cl in found)
            prev = words.get(letter)
            assert prev is None or prev == word, \
                f"inconsistent edge word for {letter} in {name}"
            words[letter] = word
    return words
