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

from .arrangement import (CONCURRENT, SymmetryIndex, TriangleId,
                          classify_triple, get_arrangement, length_class)


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


def decorate(sym: SymmetryIndex, tri: TriangleId) -> DecoratedFace:
    """Compute the interior decoration of one elementary triangle.

    Chord i of A(d, kappa) is the line of chord c(i) of A(2d, -kappa),
    with c(i) = 2i for kappa = 0 and c(i) = -2i - 2 (mod 2d) for
    kappa = +-2 (equal directions mod pi).  The inscribed face is cut by
    the chords c(i) + s, with s = -(sigma - kappa) (negated for
    kappa = -2), so every point is a pair point of the child table: the
    parent corner between chords i and j is the meet of c(i) and c(j),
    and the inscribed corner on the side of chord i is the meet of the
    other two inner chords, a triple point with c(i).

    The two sections of side k lie on chord c = c(i) of A(2d, -kappa),
    between its meets with an outer chord and an inner one.  The meet
    with chord p sits at s = 2 cos(2 pi t_p / n) - 2, t_p = e_c + 2 e_p,
    so a section has length 4 |sin(pi (t_p + t_q) / n)
    sin(pi (t_p - t_q) / n)|.  The angle numbers are +-(3i + c0), so
    t_p - t_q = +-6u (p - q) and t_p + t_q = +-6u (c + p + q + c0) with
    u = n / (12d): both are multiples of n / 2d, each factor is the sine
    s_k of an integer k in order-2d units, one of them must be s_1, and
    the other gives the class (`Arrangement.section_class`).  A side of
    class a must split into sections of classes {2a - 1, 2a + 1}.
    """
    if not tri.elementary:
        raise ValueError(f"{tri} is not elementary")
    csym = child_symmetry(sym)
    d2 = csym.d
    child = get_arrangement(d2, csym.kappa)
    pairs = child.pair_points
    _, opposite = get_arrangement(sym.d, sym.kappa).corners(tri)

    # sigma - kappa is +1 for m_class 1 and -1 for m_class d - 1
    s = 1 if (tri.m_class == 1) == (sym.kappa == -2) else -1
    # sides run k -> k+1; the segment carrying side k is opposite[k+2]
    side_segs = tuple(opposite[(k + 2) % 3] for k in range(3))
    outer = [2 * i if sym.kappa == 0 else (-2 * i - 2) % d2
             for i in side_segs]
    inner = [(c + s) % d2 for c in outer]

    def meet(i, j):
        return pairs[min(i, j), max(i, j)]

    # corner k closes side k-1 and opens side k
    pc = tuple(meet(outer[(k + 2) % 3], outer[k]) for k in range(3))
    inscribed = []
    for k in range(3):
        j, l = inner[(k + 1) % 3], inner[(k + 2) % 3]
        assert classify_triple(csym, outer[k], j, l) is CONCURRENT, \
            f"{tri}: inscribed corner off side {k}"
        inscribed.append(meet(j, l))
    child_tri = TriangleId(csym, tuple(sorted(inner)))
    assert child_tri.elementary, \
        f"{tri}: inscribed face {child_tri} is not elementary"

    # side k lies on chord outer[k]: from the parent corner on outer[k-1]
    # to the inscribed corner on inner[k+1], then on to the parent corner
    # on outer[k+1]; section classes in order-2d units
    letters = []
    for k in range(3):
        a_cls = tri.side_classes[tri.idx.index(side_segs[k])]
        c, mid = outer[k], inner[(k + 1) % 3]
        first = child.section_class(c, outer[(k + 2) % 3], mid)
        second = child.section_class(c, mid, outer[(k + 1) % 3])
        expect = {2 * a_cls - 1, length_class(d2, 2 * a_cls + 1)}
        assert {first, second} == expect, \
            f"{tri}: sections {first},{second} do not match class {a_cls}"
        letters.append(EdgeLetter(a_cls, (first < second) - (first > second)))

    return DecoratedFace(sym, tri, pc, side_segs, tuple(letters),
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
