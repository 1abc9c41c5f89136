"""Decorated triangle prototiles.

Each elementary triangle of an order-d pattern carries an interior
decoration: the order-2d pattern (with symmetry variant -kappa) refines it
into a central inscribed triangle plus three corner triangles.  The
inscribed corners split each edge of class a into two sections of classes
2a-1 and 2a+1 (order-2d units); which of the two comes first when walking
the boundary anticlockwise is the edge letter orientation:

    W_a^{+1}  shorter section first,
    W_a^{-1}  longer section first,
    W_a^{0}   equal sections (only a = d/2, d even).

The cyclic letter sequence (the signature) identifies a prototile up to
congruence; mirror images get reversed-and-negated signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field import embed
from .arrangement import (SymmetryIndex, TriangleId, cross_sign, edge_class,
                          get_arrangement, length_class)


@dataclass(frozen=True)
class EdgeLetter:
    cls: int      # edge length class a (1..floor(d/2))
    orient: int   # +1, -1 or 0

    def __str__(self):
        sup = {1: "+", -1: "-", 0: "0"}[self.orient]
        return f"W{self.cls}^{sup}"

    def negated(self):
        return EdgeLetter(self.cls, -self.orient)


def child_symmetry(sym: SymmetryIndex) -> SymmetryIndex:
    """The order-2d pattern refining an order-d pattern."""
    return SymmetryIndex(2 * sym.d, -sym.kappa)


class DecoratedFace:
    """One elementary triangle with its exact decoration geometry.

    corners[k] are anticlockwise; side k runs corners[k] -> corners[k+1],
    carries letters[k] and touches the inscribed corner inscribed[k].
    All points live in the order-2d field.
    """

    def __init__(self, sym, tri, corners, opposite, letters, inscribed, child_tri):
        self.sym = sym
        self.tri = tri
        self.corners = corners
        self.opposite = opposite  # opposite[k] = segment carrying side k
        self.letters = letters
        self.inscribed = inscribed
        self.child_tri = child_tri

    def rotated(self, r):
        rot = lambda seq: tuple(seq[(k + r) % 3] for k in range(3))
        return DecoratedFace(self.sym, self.tri, rot(self.corners),
                             rot(self.opposite), rot(self.letters),
                             rot(self.inscribed), self.child_tri)


def point_in_triangle(p, tri, margin=1e-9):
    """Float test: p lies inside the anticlockwise triangle tri, with the
    cross product (b - a) x (p - a) above `margin` for every side ab."""
    for k in range(3):
        a, b = tri[k], tri[(k + 1) % 3]
        if ((b - a).conjugate() * (p - a)).imag < margin:
            return False
    return True


def decorate(sym: SymmetryIndex, tri: TriangleId) -> DecoratedFace:
    """Compute the interior decoration of one elementary triangle."""
    if not tri.elementary:
        raise ValueError(f"{tri} is not elementary")
    d = sym.d
    parent = get_arrangement(d, sym.kappa)
    csym = child_symmetry(sym)
    child = get_arrangement(csym.d, csym.kappa)

    corners, opposite = parent.corners(tri)
    pc = [embed(c, child.f) for c in corners]
    ptri_fl = [c.cvalue() for c in pc]

    candidates = [(t, cc) for t, cc, cen in child.face_table()
                  if point_in_triangle(cen, ptri_fl)]
    assert len(candidates) == 4, \
        f"{tri}: expected 4 refinement faces, found {len(candidates)}"

    # the inscribed face is the one whose corners avoid the parent corners
    def touches_parent_corner(cc):
        keys = {p.key() for p in pc}
        return any(c.key() in keys for c in cc)

    inner = [(t, cc) for t, cc in candidates if not touches_parent_corner(cc)]
    assert len(inner) == 1, f"{tri}: inscribed face not unique"
    child_tri, icorners = inner[0]

    # match each inscribed corner to the parent side it lies on
    inscribed = [None] * 3
    for p in icorners:
        for k in range(3):
            a, b = pc[k], pc[(k + 1) % 3]
            af, bf = a.cvalue(), b.cvalue()
            if abs(((bf - af).conjugate() * (p.cvalue() - af)).imag) < 1e-9:
                assert cross_sign(b - a, p - a) == 0
                assert inscribed[k] is None
                inscribed[k] = p
                break
        else:
            raise AssertionError(f"{tri}: inscribed corner off the sides")

    # section lengths in order-2d units
    d2 = csym.d

    def section_class(v):
        m = edge_class(d2, v)
        assert m is not None, f"{tri}: section is not an elementary length"
        return m

    letters = []
    for k in range(3):
        a_cls = tri.side_classes[tri.idx.index(opposite[(k + 2) % 3])]
        first = section_class(inscribed[k] - pc[k])
        second = section_class(pc[(k + 1) % 3] - inscribed[k])
        expect = {2 * a_cls - 1, length_class(d2, 2 * a_cls + 1)}
        assert {first, second} == expect, \
            f"{tri}: sections {first},{second} do not match class {a_cls}"
        if first < second:
            w = 1
        elif first > second:
            w = -1
        else:
            w = 0
        letters.append(EdgeLetter(a_cls, w))

    # sides run k -> k+1; the segment carrying side k is opposite[k+2]
    side_segs = tuple(opposite[(k + 2) % 3] for k in range(3))
    return DecoratedFace(sym, tri, tuple(pc), side_segs, tuple(letters),
                         tuple(inscribed), child_tri)


# -- signatures and their symmetries ------------------------------------

def canonical_rotation(letters):
    """Rotation index r minimising the letter tuple read from position r."""
    keyed = [tuple((letters[(k + r) % 3].cls, letters[(k + r) % 3].orient)
                   for k in range(3)) for r in range(3)]
    return min(range(3), key=lambda r: keyed[r])


def signature(letters):
    r = canonical_rotation(letters)
    return tuple(letters[(k + r) % 3] for k in range(3))


def hat_signature(sig):
    """Partner with mirrored shape but identical edge subdivisions."""
    return signature(tuple(reversed(sig)))


def tilde_signature(sig):
    """Mirror image: reversed boundary walk, orientations flipped."""
    return signature(tuple(l.negated() for l in reversed(sig)))


def undecorated_signature(sig):
    """Edge classes only; merges a prototile with its negated-orientation twin."""
    classes = tuple(l.cls for l in sig)
    return min(tuple(classes[(k + r) % 3] for k in range(3)) for r in range(3))


# -- the prototile catalog ----------------------------------------------

#: order-14 naming of the sigma = -1 prototiles
LETTER_NAMES_14 = {
    (0, 1, 12): "A", (3, 4, 6): "Ah", (2, 12, 13): "B", (2, 5, 6): "Bh",
    (0, 2, 11): "C", (2, 4, 7): "Ch", (3, 11, 13): "D", (1, 5, 7): "Dh",
    (0, 3, 10): "E", (1, 4, 8): "Eh", (4, 10, 13): "F", (0, 5, 8): "Fh",
    (0, 4, 9): "G", (5, 9, 13): "H", (6, 8, 13): "I", (5, 10, 12): "Ih",
    (0, 6, 7): "J", (4, 11, 12): "Jh", (1, 2, 10): "K", (2, 3, 8): "Kh",
    (1, 3, 9): "L", (6, 9, 12): "M", (7, 8, 12): "N", (6, 10, 11): "Nh",
    (7, 9, 11): "O", (8, 9, 10): "P",
}


class Prototile:
    def __init__(self, name, face: DecoratedFace):
        self.name = name
        self.face = face  # representative, rotated to canonical start
        self.signature = tuple(face.letters)

    @property
    def d(self):
        return self.face.sym.d

    @property
    def kappa(self):
        return self.face.sym.kappa

    @property
    def branch(self):
        """sigma - kappa of the representative, in {-3, -1, 1, 3}."""
        m = self.face.tri.m_class
        d = self.d
        return m if m <= d // 2 else m - d

    @property
    def side_classes(self):
        return tuple(l.cls for l in self.signature)

    @property
    def corners(self):
        return self.face.corners

    def __repr__(self):
        sig = " ".join(str(l) for l in self.signature)
        return f"Prototile({self.name}: {sig})"


def mirror_triple(d, idx):
    return tuple(sorted((-x) % d for x in idx))


class Catalog:
    """All prototiles of order d, with name, signature and partner lookups.

    `faces[kappa, tri.idx]` is the decoration of every face of every
    symmetry variant, in the corner order of `Arrangement.corners`.
    """

    def __init__(self, d):
        self.d = d
        syms = [SymmetryIndex(d, 0)]
        if d % 3 == 0:
            syms += [SymmetryIndex(d, -2), SymmetryIndex(d, 2)]
        groups = {}  # signature -> list of DecoratedFace (canonical rotation)
        self.faces = {}
        for sym in syms:
            for tri in get_arrangement(sym.d, sym.kappa).faces():
                df = self.faces[sym.kappa, tri.idx] = decorate(sym, tri)
                r = canonical_rotation(df.letters)
                df = df.rotated(r)
                groups.setdefault(tuple(df.letters), []).append(df)
        self._groups = groups
        names = self._assign_names(groups)
        self.prototiles = []
        for sig, faces in sorted(groups.items(),
                                 key=lambda kv: self._face_key(kv[1][0])):
            self.prototiles.append(Prototile(names[sig], faces[0]))
        self.by_signature = {p.signature: p for p in self.prototiles}
        self.by_name = {p.name: p for p in self.prototiles}

    @staticmethod
    def _face_key(df):
        return (abs(df.sym.kappa), df.sym.kappa, df.tri.m_class, df.tri.idx)

    def _assign_names(self, groups):
        d = self.d
        base = {}   # signature -> name, for the sigma - kappa < 0 branch
        reps = {sig: faces[0] for sig, faces in groups.items()}
        ordered = sorted(groups, key=lambda sig: self._face_key(reps[sig]))
        use_letters = (d == 14)
        counter = 0
        for sig in ordered:
            if sig in base:
                continue
            df = reps[sig]
            if df.tri.m_class <= d // 2:
                continue  # mirror branch, named via tilde below
            if use_letters:
                base[sig] = LETTER_NAMES_14[df.tri.idx]
                continue
            counter += 1
            base[sig] = f"T{counter}"
            hs = hat_signature(sig)
            if hs != sig and hs in groups and hs not in base:
                if reps[hs].tri.m_class > d // 2:
                    base[hs] = f"T{counter}h"
        names = dict(base)
        for sig, name in base.items():
            ts = tilde_signature(sig)
            if ts != sig:
                assert ts in groups, f"mirror partner of {name} missing"
                names[ts] = name + "t"
        for sig in groups:
            assert sig in names, f"unnamed prototile class {reps[sig].tri}"
        return names

    # -- lookups ---------------------------------------------------------
    def classify(self, letters):
        """Prototile matching a letter cycle, plus the rotation applied."""
        r = canonical_rotation(letters)
        sig = tuple(letters[(k + r) % 3] for k in range(3))
        return self.by_signature[sig], r

    def hat(self, p: Prototile):
        return self.by_signature.get(hat_signature(p.signature))

    def tilde(self, p: Prototile):
        return self.by_signature.get(tilde_signature(p.signature))

    def tilde_hat(self, p: Prototile):
        sig = signature(tuple(l.negated() for l in p.signature))
        return self.by_signature.get(sig)

    def undecorated_classes(self):
        """Group names by undecorated signature (orientations dropped)."""
        out = {}
        for p in self.prototiles:
            out.setdefault(undecorated_signature(p.signature), []).append(p.name)
        return out


@lru_cache(maxsize=None)
def prototile_catalog(d) -> Catalog:
    return Catalog(d)
