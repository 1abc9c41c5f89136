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
"""

from __future__ import annotations

import hashlib
import itertools
import random as _stdrandom
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field import field_for_order
from .arrangement import (SymmetryIndex, cross_sign, edge_class,
                          get_arrangement, length_class)
from .prototiles import prototile_catalog
from .substitution import (Patch, RuleSet, Tile, derive_rules,
                           derive_edge_words, letter_table, match_triangles,
                           mir, project, prototile_ids, row_ids, tile_corners,
                           tile_edges, _inflate, _rule_table)


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


def _shared_edge(arr, t1, t2):
    """(u, v, w1, w2): shared corners and the two opposite corners."""
    c1, _ = arr.corners(t1)
    c2, _ = arr.corners(t2)
    k1 = {c.key(): c for c in c1}
    k2 = {c.key(): c for c in c2}
    shared = sorted(set(k1) & set(k2))
    if len(shared) != 2:
        return None
    u, v = (k1[k] for k in shared)
    (w1,) = [c for c in c1 if c.key() not in shared]
    (w2,) = [c for c in c2 if c.key() not in shared]
    return u, v, w1, w2


def _acw(tri):
    if cross_sign(tri[1] - tri[0], tri[2] - tri[0]) < 0:
        return (tri[0], tri[2], tri[1])
    return tri


def _congruent_any(src, dst):
    """Direct or mirrored congruence (undecorated shapes)."""
    src, dst = _acw(src), _acw(dst)
    g, _ = match_triangles(src, dst)
    if g is not None:
        return "direct"
    g, _ = match_triangles(_acw(tuple(c.conj() for c in src)), dst)
    if g is not None:
        return "mirror"
    return None


def verify_template(tpl: FlipTemplate):
    """Exact congruence audit of one flip template.

    Checks that the source pair shares a class-q edge, that the other
    diagonal has class q-1, and that both flipped halves are congruent to
    the stated target triangles.
    """
    d = tpl.d
    q = d // 2
    arr = get_arrangement(d, tpl.kappa)
    arr2 = get_arrangement(d, tpl.target_kappa)
    src, dst = _template_tris(tpl)
    quad = _shared_edge(arr, src[0], src[1])
    assert quad is not None, f"{tpl}: source pair is not edge-adjacent"
    u, v, w1, w2 = quad
    for vec, cls in (((v - u), q), ((w2 - w1), q - 1)):
        assert edge_class(d, vec) == cls, f"{tpl}: diagonal is not class {cls}"
    halves = ((u, w1, w2), (v, w1, w2))
    for tri in dst:
        corners, _ = arr2.corners(tri)
        hit = [h for h in halves if _congruent_any(corners, h)]
        assert hit, f"{tpl}: target {tri} not congruent to a flipped half"
        halves = tuple(h for h in halves if h is not hit[0])
    assert not halves
    return True


def enumerate_flips(d, kappa=0, verify=True):
    """All flip templates of the (d, kappa) arrangement."""
    if d % 2:
        raise ValueError("edge flips need even d = 2q")
    out = _case_templates(d, kappa)
    if verify:
        for tpl in out:
            verify_template(tpl)
    return out


# -- flips inside patches -----------------------------------------------

@lru_cache(maxsize=None)
def _shape_index(d):
    """Sorted side-class multiset -> candidate prototile names."""
    cat = prototile_catalog(d)
    out = {}
    for p in cat.prototiles:
        out.setdefault(tuple(sorted(p.side_classes)), []).append(p.name)
    return out


def _place_shape(d, corners):
    """(name, Isometry) of a prototile congruent (directly) to corners."""
    classes = []
    for k in range(3):
        cls = edge_class(d, corners[(k + 1) % 3] - corners[k])
        if cls is None:
            return None
        classes.append(cls)
    for name in _shape_index(d).get(tuple(sorted(classes)), ()):
        g, _ = match_triangles(tile_corners(d, name), corners)
        if g is not None:
            return name, g
    return None


@dataclass(frozen=True)
class FlipSite:
    """A flippable pair of tiles inside a patch."""
    i: int
    j: int
    old: tuple      # the two Tile records being replaced
    new: tuple      # the two replacement Tile records


@lru_cache(maxsize=None)
def _flip_entry(d, edge_cls, diag_cls, key):
    """The flip table: replacements of one tile pair, or None.

    key = (id_i, k_i, id_j, k_j, s): prototile i at the identity, side k_i
    of it shared with side k_j of prototile j, turned by zeta^s.  The
    pair flips when the side runs the other way along j, the far corners
    span a class-diag_cls diagonal, the quadrilateral is strictly convex
    (exact orientation tests) and both halves are prototiles.  Returns
    the two replacements as (name, Isometry) relative to tile i.
    """
    id_i, k_i, id_j, k_j, s = key
    names, _ = prototile_ids(d)
    ci = tile_corners(d, names[id_i])
    cj = [c.mul_zeta(s) for c in tile_corners(d, names[id_j])]
    u, v, w1 = (ci[(k_i + k) % 3] for k in range(3))
    if cj[(k_j + 1) % 3] - cj[k_j] != u - v:
        return None
    w2 = cj[(k_j + 2) % 3] + (v - cj[k_j])
    if edge_class(d, w2 - w1) != diag_cls:
        return None
    quad = (u, w2, v, w1)
    if any(cross_sign(quad[(k + 1) % 4] - quad[k],
                      quad[(k + 2) % 4] - quad[(k + 1) % 4]) <= 0
           for k in range(4)):
        return None
    p1 = _place_shape(d, (w1, u, w2))
    p2 = _place_shape(d, (w2, v, w1))
    if p1 is None or p2 is None:
        return None
    return p1, p2


def find_flippable(patch: Patch, edge_class=None, diag_class=None):
    """All adjacent tile pairs admitting an edge flip.

    By default the shared edge has class q = d/2 and the new diagonal
    class q-1; pass edge_class/diag_class to search other flips (e.g. the
    inverses, with the classes swapped).  Shared edges are found from the
    patch's corner rows and picked by the side class of their prototile.
    Each pair is decided by the flip table `_flip_entry`, keyed by the two
    prototiles, their shared sides and their relative rotation; the
    replacements are placed by the first tile's isometry.
    """
    d = patch.d
    if edge_class is None:
        if d % 2:
            raise ValueError("default flips need even d = 2q")
        edge_class = d // 2
    if diag_class is None:
        diag_class = length_class(d, edge_class - 1)
    n = field_for_order(d).n
    ids, r, _, _ = patch.columns
    rows, _ = patch.corner_rows()
    first, count, side1, side2, _ = tile_edges(row_ids(rows)[0])
    classes = letter_table(d)[1][ids].ravel()
    cand = np.flatnonzero((count == 2) & (classes[side1] == edge_class))
    cand = cand[np.argsort(first[cand])]
    ti, ki = np.divmod(side1[cand], 3)
    tj, kj = np.divmod(side2[cand], 3)
    keys = zip(ids[ti].tolist(), ki.tolist(), ids[tj].tolist(), kj.tolist(),
               ((r[tj] - r[ti]) % n).tolist())
    sites = []
    for a, b, key in zip(ti.tolist(), tj.tolist(), keys):
        entry = _flip_entry(d, edge_class, diag_class, key)
        if entry is None:
            continue
        tiles = patch.tiles
        iso = tiles[a].iso
        sites.append(FlipSite(a, b, (tiles[a], tiles[b]),
                              tuple(Tile(name, iso.compose(g))
                                    for name, g in entry)))
    return sites


def apply_flip(patch: Patch, site: FlipSite) -> Patch:
    """Replace the two tiles of a flip site; the outline is unchanged."""
    for idx, old in zip((site.i, site.j), site.old):
        if patch.tiles[idx] != old:
            raise ValueError("stale flip site: the patch has changed")
    tiles = list(patch.tiles)
    tiles[site.i], tiles[site.j] = site.new
    return Patch(patch.d, tiles)


def rearrangement_sample(patch: Patch, steps, rng_seed=0):
    """Sequential random single-flip dynamics (uniform over current sites)."""
    rng = _stdrandom.Random(rng_seed)
    for _ in range(steps):
        sites = find_flippable(patch)
        if not sites:
            break
        patch = apply_flip(patch, rng.choice(sites))
    return patch


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
    """Per-prototile flip sites inside the inflated prototiles."""
    groups = []
    for name in sorted(base.rules):
        patch = Patch(d, [Tile(c, h) for c, h in base.rules[name]])
        for site in find_flippable(patch):
            groups.append((name, site))
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
    members = [RuleSet(d, q, 1, dict(base.rules))]
    chosen = []
    for size in range(1, len(sites) + 1):
        if len(members) > cap:
            break
        for combo in itertools.combinations(range(len(sites)), size):
            used = set()
            ok = True
            for ci in combo:
                name, site = sites[ci]
                key = {(name, site.i), (name, site.j)}
                if key & used:
                    ok = False
                    break
                used |= key
            if ok:
                chosen.append(combo)
                if len(members) + len(chosen) > cap:
                    break
        else:
            continue
        break
    rng = _stdrandom.Random(rng_seed)
    if len(chosen) > cap - 1:
        chosen = rng.sample(chosen, cap - 1)
    for combo in chosen:
        rules = {n: list(ch) for n, ch in base.rules.items()}
        for ci in combo:
            name, site = sites[ci]
            tiles = rules[name]
            tiles[site.i] = (site.new[0].name, site.new[0].iso)
            tiles[site.j] = (site.new[1].name, site.new[1].iso)
        members.append(RuleSet(d, q, 1, {n: tuple(ch)
                                         for n, ch in rules.items()}))
    return RandomRuleFamily(d, members)


def _draw(rng_seed, path, step, pi):
    """Counter-based member draw: independent of evaluation order.

    path is the tile's lineage, its child indices joined by dots.
    """
    tag = f"{rng_seed}|{path}|{step}".encode()
    u = int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") / 2.0 ** 64
    acc = 0.0
    for k, w in enumerate(pi):
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
