"""Edge flips and random tiling ensembles.

For even d = 2q the arrangement contains an inscribed regular q-gon whose
vertices are the pairwise intersections p_{c,q+c}.  Quadrilaterals formed
by two elementary triangles sharing a class-q edge admit an edge flip
S_q -> S_{q-1}: the shared diagonal is replaced by the other diagonal and
the quadrilateral is retiled by two different prototile shapes.

Flips drive two ensembles:

  * rearrangement sampling: random flips applied to a fixed tiling;
  * random substitution: a family of rule sets (the base inflation rules
    with some subset of interior flips applied) drawn independently per
    tile and per inflation step.

Both work on undecorated tiles; the base factor iota_{d,q} has palindromic
edge subdivisions, so edge matching does not need the decorations.

Default flip sites share no tile, and a flip creates none.  A side of
class m has length 4 s_1 s_m, s_m = sin(m pi / d), and the angle opposite
it is m pi / d or its supplement; as s_q = 1, a class-q side faces a right
angle.  No triangle has two, so a prototile has at most one class-q side
and a tile lies in at most one site.  The halves of a flip have the
class-(q-1) diagonal and one other side of each flipped tile, so no
class-q side.  A flip thus takes its own site out of the site list and
leaves the others as they were: the sites are independent switches
(Henley, "Random tiling models", 1991).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random as _stdrandom
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .field import field_for_order
from .arrangement import SymmetryIndex, get_arrangement, length_class
# match_triangles is not called here: the benchmark's tracer wraps the name
from .substitution import (SHIFTS, Patch, RuleSet, derive_rules,
                           derive_edge_words, letter_table, match_triangles,
                           max_abs, mir, project, prototile_ids, row_ids,
                           tile_edges, _congruent, _corner_ids, _corner_rows,
                           _face_placements, _guard, _inflate, _int_dtype,
                           _over, _rule_table)


# -- the inscribed polygon ----------------------------------------------

def polygon_vertices(d, kappa=0):
    """Vertices p_{c, q+c}, c = 0..q-1, of the inscribed regular q-gon."""
    if d % 2:
        raise ValueError("the inscribed polygon needs even d = 2q")
    q = d // 2
    arr = get_arrangement(d, kappa)
    return [arr.pair_points[c, q + c] for c in range(q)]


# -- flip templates (quadrilateral congruences) -------------------------

@dataclass(frozen=True)
class FlipTemplate:
    """One admissible quadrilateral flip of the arrangement.

    source/target are index triples (signed labelling); the quadrilateral
    is source[0] u source[1] sharing a class-q edge, and after replacing
    it by the class-(q-1) diagonal the halves are congruent to target.
    """
    d: int
    kappa: int
    case: str
    a: int
    source: tuple
    target: tuple
    target_kappa: int


def _mod_triple(d, t):
    return tuple(x % d for x in t)


def _case_templates(d, kappa):
    q = d // 2
    l, r = divmod(q, 3)
    out = []
    if kappa == 0 and r == 1:
        for a in range(1, 3 * l + 1):
            if a == l:
                continue
            out.append(FlipTemplate(d, 0, "q=3l+1", a,
                ((l + a, 4 * l + a + 1, l - 2 * a),
                 (l + a + 1, 4 * l + a + 2, l - 2 * a)),
                ((3 * l - a, 3 * l + 2 * a + 1, 6 * l - a + 2),
                 (3 * l - a + 1, 3 * l + 2 * a + 1, 6 * l - a + 1)), 0))
    elif kappa == 0 and r == 2:
        for a in range(1, 3 * l + 2):
            if a == l + 1:
                continue
            out.append(FlipTemplate(d, 0, "q=3l+2", a,
                ((l + a, 4 * l + a + 2, l - 2 * a + 1),
                 (l + a + 1, 4 * l + a + 3, l - 2 * a + 1)),
                ((3 * l - a + 2, -a + 1, 3 * l + 2 * a + 2),
                 (3 * l - a + 3, -a, 3 * l + 2 * a + 2)), 0))
    elif kappa == 0:  # q = 3l: flipped halves land in the kappa = -2 variant
        for a in range(1, 3 * l):
            out.append(FlipTemplate(d, 0, "q=3l", a,
                ((l + a, 4 * l + a, l - 2 * a - 1),
                 (l + a + 1, 4 * l + a + 1, l - 2 * a - 1)),
                ((3 * l - a - 2, 6 * l - a - 1, 3 * l + 2 * a),
                 (2 * l - a - 2, 5 * l - a - 1, 5 * l + 2 * a)), -2))
    else:  # kappa = -+2, q = 3l
        if r != 0:
            raise ValueError("kappa = +-2 flips need q divisible by 3")
        for a in range(1, 3 * l):
            if a in (l, 2 * l):
                continue
            out.append(FlipTemplate(d, kappa, "q=3l kappa", a,
                ((l + a - 1, 4 * l + a - 1, l - 2 * a - 1),
                 (l + a, 4 * l + a, l - 2 * a - 1)),
                ((3 * l - a - 1, 6 * l - a, 3 * l + 2 * a),
                 (5 * l - a, 2 * l - a - 1, 5 * l + 2 * a)), kappa))
    return out


def _template_tris(tpl):
    # templates are written in internal segment labels: the kappa = +2
    # variant mirrors kappa = -2 label-for-label
    from .arrangement import TriangleId
    sym = SymmetryIndex(tpl.d, tpl.kappa)
    sym2 = SymmetryIndex(tpl.d, tpl.target_kappa)
    src = tuple(TriangleId(sym, tuple(sorted(_mod_triple(tpl.d, t))))
                for t in tpl.source)
    dst = tuple(TriangleId(sym2, tuple(sorted(_mod_triple(tpl.d, t))))
                for t in tpl.target)
    return src, dst


def verify_template(tpl: FlipTemplate):
    """Exact audit of one flip template, by the flip table.

    The two source faces, placed as prototiles, must form a two-tile
    patch with exactly one flip site (`find_flippable`: a shared class-q
    edge whose other diagonal has class q-1), and the flipped halves must
    have the side classes of the elementary target triangles.  Class m
    has length 4 s_1 s_m, which strictly increases on 1..d/2, so equal
    side classes make the halves congruent to the targets, directly or
    mirrored.
    """
    d = tpl.d
    src, dst = _template_tris(tpl)
    faces = {tri: k for k, (tri, _, _) in enumerate(
        get_arrangement(d, tpl.kappa).face_table())}
    assert all(tri in faces for tri in src), f"{tpl}: a source is not a face"
    assert all(tri.elementary for tri in dst), \
        f"{tpl}: a target is not elementary"
    at = _face_placements(d, tpl.kappa)
    k = [faces[tri] for tri in src]
    sites = find_flippable(Patch.from_columns(d, at.ids[k], at.r[k], at.t[k]))
    assert len(sites) == 1, f"{tpl}: the sources do not flip"
    cls = letter_table(d)[1]
    assert (sorted(tuple(sorted(cls[i].tolist())) for i in sites[0].flip.ids)
            == sorted(tuple(sorted(tri.side_classes)) for tri in dst)), \
        f"{tpl}: the flipped halves are not the targets"
    return True


def enumerate_flips(d, kappa=0):
    """All flip templates of the (d, kappa) arrangement, each audited by
    `verify_template`."""
    if d % 2:
        raise ValueError("edge flips need even d = 2q")
    out = _case_templates(d, kappa)
    for tpl in out:
        verify_template(tpl)
    return out


# -- flips inside patches -----------------------------------------------

class _Flip(NamedTuple):
    """One flip-table entry: the two replacements relative to tile i.

    `ids`, `r` and `t` are their prototile ids, rotations and (integral)
    translation rows, and `bound` bounds the coefficients of every
    zeta^s * t.
    """
    ids: tuple
    r: tuple
    t: np.ndarray
    bound: int


#: the flipped halves (w1, u, w2) and (w2, v, w1), by index in (u, v, w1, w2)
_HALVES = ((2, 0, 3), (3, 1, 2))


@lru_cache(maxsize=None)
def _flip_entry(d, edge_cls, diag_cls, key):
    """The flip table: the `_Flip` of one tile pair, or None.

    key = (id_i, k_i, id_j, k_j, s): prototile i at the identity, side k_i
    of it shared with side k_j of prototile j, turned by zeta^s.  The
    pair flips when the side runs the other way along j and both halves
    cut off by the other diagonal are prototiles in which that diagonal
    has class diag_cls.  The halves' other sides are sides of i and j, so
    their classes are read off the letter table, and an exact congruence
    places each half.  This also makes the quadrilateral strictly convex:
    its four turns are the orientations of i, j and the two halves, and
    every prototile runs anticlockwise.
    """
    id_i, k_i, id_j, k_j, s = key
    f = field_for_order(d)
    rows = _corner_rows(d)
    # bounds the turned corners and w2, a sum of three corner rows
    _guard(3 * f.degree * max_abs(rows) * f.power_bound, "flip corners")
    cj = f.turn(rows[id_j], s)
    u, v, w1 = (rows[id_i, (k_i + k) % 3] for k in range(3))
    if not np.array_equal(cj[(k_j + 1) % 3] - cj[k_j], u - v):
        return None
    quad = np.array([u, v, w1, cj[(k_j + 2) % 3] + (v - cj[k_j])])
    cls = letter_table(d)[1]
    shapes = np.sort(cls, axis=1)
    # (w1, u, w2) has sides w1 -> u of i and u -> w2 of j; (w2, v, w1) has
    # w2 -> v of j and v -> w1 of i; the diagonal closes both
    known = ((cls[id_i, (k_i + 2) % 3], cls[id_j, (k_j + 1) % 3]),
             (cls[id_j, (k_j + 2) % 3], cls[id_i, (k_i + 1) % 3]))
    found = []
    for half, sides in zip(_HALVES, known):
        cand = np.flatnonzero((shapes == sorted((*sides, diag_cls))).all(1))
        if not len(cand):
            return None
        # prototiles of equal side classes differ only in decoration: the
        # first in catalog order, then in cyclic-shift order, is placed
        r, ok, t = _congruent(f, rows[cand][:, SHIFTS], quad[list(half)])
        if not ok.any():
            return None
        c, shift = divmod(int(np.argmax(ok)), 3)
        found.append((int(cand[c]), int(r[c, shift]), t[c, shift]))
    ids, r, t = zip(*found)
    t = np.array(t)
    return _Flip(ids, r, t, f.degree * max_abs(t) * f.power_bound)


def _write_flip(d, ids, r, t, den, i, j, flip):
    """Overwrite tiles i and j of the columns, translation rows t over den,
    with the flip's replacements placed by tile i's isometry: (r_i + r_k,
    zeta^r_i t_k + t_i), the flip's integral rows scaled by den.

    The guard bound of the new rows is taken first; ids and r are written
    in place, and so is t when its dtype holds that bound, else t is
    copied into the narrowest dtype that does.  A Patch stores its
    translation rows narrow, so callers pass a copy of them in their
    stored dtype, never a widened one.  Returns t.
    """
    ri = int(r[i])
    bound = max_abs(t[i]) + flip.bound * den
    _guard(bound, "flip")
    t = t.astype(np.promote_types(t.dtype, _int_dtype(bound)), copy=False)
    f = field_for_order(d)
    new = f.turn(flip.t, ri) * den
    new += t[i]
    for k, row in enumerate((i, j)):
        ids[row] = flip.ids[k]
        r[row] = (ri + flip.r[k]) % f.n
        t[row] = new[k]
    return t


class FlipSite:
    """A flippable pair of tiles inside a patch.

    Tile i's side `side % 3` (side = 3 i + k_i is the pair's first tile
    edge) is shared with tile j.  `old`, the two Tiles being replaced, and
    `new`, their replacements, are views of the columns of the `patch` the
    site was found in and the flip-table entry `flip`; no flip reads them.
    Default sites share no tile (module docstring).
    """

    __slots__ = ("i", "j", "side", "flip", "patch")

    def __init__(self, i, j, side, flip, patch):
        self.i, self.j, self.side = i, j, side
        self.flip, self.patch = flip, patch

    def __repr__(self):
        return f"FlipSite(i={self.i}, j={self.j})"

    @property
    def old(self):
        (ids, r, t, den), k = self.patch.columns, [self.i, self.j]
        return tuple(Patch.from_columns(self.patch.d, ids[k], r[k], t[k],
                                        den).tiles)

    @property
    def new(self):
        (ids, r, t, den), k = self.patch.columns, [self.i, self.j]
        ids, r = ids[k], r[k]
        t = _write_flip(self.patch.d, ids, r, t[k], den, 0, 1, self.flip)
        return tuple(Patch.from_columns(self.patch.d, ids, r, t, den).tiles)


def find_flippable(patch: Patch, edge_class=None, diag_class=None):
    """All adjacent tile pairs admitting an edge flip.

    By default the shared edge has class q = d/2 and the new diagonal
    class q-1; pass edge_class/diag_class to search other flips (e.g. the
    inverses, with the classes swapped).  Shared edges are found from the
    patch's corner rows and picked by the side class of their prototile.
    Each pair is decided by the flip table `_flip_entry`, keyed by the two
    prototiles, their shared sides and their relative rotation.  Sites
    come in the order of their first tile edge; their replacements are
    composed only when read.
    """
    return _flip_sites(patch, _corner_ids(patch)[0], edge_class, diag_class)


def _flip_sites(patch, pid, edge_class=None, diag_class=None):
    """`find_flippable` on given corner ids pid (N x 3) of the tiles."""
    d = patch.d
    if edge_class is None:
        if d % 2:
            raise ValueError("default flips need even d = 2q")
        edge_class = d // 2
    if diag_class is None:
        diag_class = length_class(d, edge_class - 1)
    n = field_for_order(d).n
    ids, r, _, _ = patch.columns
    first, count, side2, _ = tile_edges(pid)
    classes = np.take(letter_table(d)[1], ids, 0).ravel()
    cand = np.flatnonzero((count == 2) & (classes[first] == edge_class))
    cand = cand[np.argsort(first[cand])]
    ti, ki = np.divmod(first[cand], 3)
    tj, kj = np.divmod(side2[cand], 3)
    keys = zip(ids[ti].tolist(), ki.tolist(), ids[tj].tolist(), kj.tolist(),
               ((r[tj] - r[ti]) % n).tolist())
    sites = []
    for side, a, b, key in zip(first[cand].tolist(), ti.tolist(),
                               tj.tolist(), keys):
        flip = _flip_entry(d, edge_class, diag_class, key)
        if flip is not None:
            sites.append(FlipSite(a, b, side, flip, patch))
    return sites


def apply_flip(patch: Patch, site: FlipSite) -> Patch:
    """Replace the two tiles of a flip site; the outline is unchanged.

    The new patch's columns are a copy of the old ones with two rows
    overwritten.  Tiles i and j must be placed as in the patch the site
    was found on: equal d, name ids and rotations, and equal translation
    rows over the common denominator.
    """
    for k in (site.i, site.j):
        if k >= len(patch):
            raise ValueError(f"stale flip site: tile {k} is past the end "
                             f"of a {len(patch)}-tile patch")
    ids, r, t, den = patch.columns
    if site.patch is not patch:
        k, (ids0, r0, t0, den0) = [site.i, site.j], site.patch.columns
        L = math.lcm(den, den0)
        if (site.patch.d != patch.d or (ids[k] != ids0[k]).any()
                or (r[k] != r0[k]).any()
                or (_over(t[k], den, L) != _over(t0[k], den0, L)).any()):
            raise ValueError("stale flip site: the patch has changed")
    ids, r = ids.copy(), r.copy()
    t = _write_flip(patch.d, ids, r, t.copy(), den, site.i, site.j, site.flip)
    return Patch.from_columns(patch.d, ids, r, t, den)


def rearrangement_sample(patch: Patch, steps, rng_seed=0):
    """Sequential random single-flip dynamics (uniform over current sites).

    One full `find_flippable` scan; default flip sites share no tile and
    a flip creates none (module docstring), so the sites left after a
    flip are those of the scan less the one flipped, in scan order.  Each
    step's `rng.choice` thus sees the list a rescan would give.  The run
    stops early when no flip site is left.
    """
    return rearrangement_run(patch, steps, rng_seed)[0]


def rearrangement_run(patch: Patch, steps, rng_seed=0):
    """(sample, flips): `rearrangement_sample` and the number of flips it
    made, fewer than steps when the run ran out of flip sites."""
    rng = _stdrandom.Random(rng_seed)
    if steps <= 0:
        return patch, 0
    sites = find_flippable(patch)
    d = patch.d
    if (letter_table(d)[1] == d // 2).sum(axis=1).max() > 1:
        raise AssertionError(f"d = {d}: a prototile has two class-{d // 2} "
                             "sides, so flip sites may share a tile")
    if not sites:
        return patch, 0
    ids, r, t, den = patch.columns
    ids, r, t = ids.copy(), r.copy(), t.copy()
    made = 0
    while made < steps and sites:
        site = rng.choice(sites)
        sites.remove(site)
        t = _write_flip(d, ids, r, t, den, site.i, site.j, site.flip)
        made += 1
    return Patch.from_columns(d, ids, r, t, den), made


# -- random substitution ------------------------------------------------

class RandomRuleFamily:
    """Rule sets obtained by flipping interior sites of the base rules.

    The base is the iota_{d,q} rule set (q = d/2); every member applies a
    subset of pairwise-independent flip sites inside the inflated
    prototiles.  Members share d, p and the inflation factor.
    """

    def __init__(self, d, members):
        self.d = d
        self.members = members  # RuleSets sharing d, p and iota
        self.iota = members[0].iota

    def __len__(self):
        return len(self.members)

    def columns(self):
        """One column table of all members, built once per family: row
        member * P + id is prototile `id` under that member."""
        if "_columns" not in self.__dict__:
            self._columns = _rule_table(self.d, self.members, self.iota)
        return self._columns

    def uniform_pi(self):
        w = 1.0 / len(self.members)
        return [w] * len(self.members)


def _site_groups(d, base):
    """(parent name, site) of every flip site inside the inflated
    prototiles, sorted by name and then side.

    One search covers the whole base table: each child's corners are
    tagged with its parent prototile, so no edge joins two rules.  The
    sites index the rows of the table.
    """
    names, _ = prototile_ids(d)
    count, kids = base.table()
    parent = np.repeat(np.arange(len(count)), np.maximum(count, 0))
    rows, _ = kids.corner_rows()
    pid = row_ids(np.concatenate(
        [rows, np.broadcast_to(parent[:, None, None], (len(rows), 3, 1))],
        axis=-1))[0]
    groups = [(names[parent[site.i]], site) for site in _flip_sites(kids, pid)]
    groups.sort(key=lambda g: (g[0], g[1].side))
    return groups


def random_rule_family(d, cap=64, rng_seed=0):
    """Enumerate flip-subset rule variants of the iota_{d,q} base rules."""
    if d % 2:
        raise ValueError("random substitution needs even d = 2q: the base "
                         "edge subdivisions must be palindromic")
    if cap < 1:
        raise ValueError(f"cap must be at least 1 (got {cap}): the family "
                         "always holds the base rule set")
    q = d // 2
    base = derive_rules(d, q, 1)
    # sanity: palindromic edge subdivisions make undecorated matching sound
    words = derive_edge_words(base)
    for w in words.values():
        assert project(w) == project(mir(w))
    sites = _site_groups(d, base)
    # the first cap subsets, smallest first; the sites share no tile
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(len(sites)), size)
        for size in range(1, len(sites) + 1))
    chosen = list(itertools.islice(subsets, cap))
    rng = _stdrandom.Random(rng_seed)
    if len(chosen) > cap - 1:
        chosen = rng.sample(chosen, cap - 1)
    # every member is the base table with its flipped rows overwritten
    count, kids = base.table()
    ids, r, t, _ = kids.columns
    members = [RuleSet(d, q, 1, table=(count, kids))]
    for combo in chosen:
        mids, mr, mt = ids.copy(), r.copy(), t.copy()
        for ci in combo:
            site = sites[ci][1]
            mt = _write_flip(d, mids, mr, mt, 1, site.i, site.j, site.flip)
        members.append(RuleSet(d, q, 1, table=(
            count, Patch.from_columns(d, mids, mr, mt))))
    return RandomRuleFamily(d, members)


def _draw(rng_seed, path, step, pi):
    """Counter-based member draw: independent of evaluation order.

    path is the tile's lineage, its child indices joined by dots.
    """
    tag = f"{rng_seed}|{path}|{step}".encode()
    u = int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") / 2.0 ** 64
    acc = 0.0
    # the last member also takes the u that rounding leaves above sum(pi)
    for k, w in enumerate(pi[:-1]):
        acc += w
        if u < acc:
            return k
    return len(pi) - 1


def random_substitution(seed_tile, family: RandomRuleFamily, pi, n, rng_seed=0):
    """n random-substitution steps from a single seed tile.

    Every tile draws its own rule-set member at every step, keyed by its
    lineage path, so the result is reproducible for a given rng_seed no
    matter how the expansion is scheduled.  Each step is one pass of the
    inflation kernel over the family's stacked rule table, with row key
    member * P + id per tile.
    """
    if abs(sum(pi) - 1.0) > 1e-9 or any(w <= 0 for w in pi):
        raise ValueError("pi must be positive and sum to 1")
    if len(pi) != len(family.members):
        raise ValueError("pi must assign a weight to every family member")
    d = family.d
    tab = family.columns()
    P = len(prototile_ids(d)[0])
    patch = Patch.single(d, seed_tile)
    paths = [""]
    for step in range(n):
        member = np.array([_draw(rng_seed, path, step, pi) for path in paths],
                          dtype=np.int64)
        key = member * P + patch.columns[0]
        patch, parent, child = _inflate(patch, tab, key)
        if step + 1 < n:
            idx = (child - tab.start[key][parent]).tolist()
            paths = [f"{paths[a]}.{k}" if step else str(k)
                     for a, k in zip(parent.tolist(), idx)]
    return patch
