"""Independent output checks.

Each check recomputes what it needs from the field layer alone (exact
`Elem` arithmetic, `mul_zeta`, `zeta`) or from closed forms, and raises
`CheckError` on the first disagreement.  Every check also fails when it
examined nothing, so a check that silently skips its input cannot pass.
"""

from __future__ import annotations

import math
import random as stdrandom
from collections import Counter
from fractions import Fraction

import numpy as np

from deltiling.field import field_for_order
from deltiling.substitution import tile_corners


class CheckError(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# -- exact geometry from the field layer --------------------------------

def placed(d, name, r, t):
    """Corners zeta^r * c + t of a prototile, through mul_zeta."""
    return [c.mul_zeta(r) + t for c in tile_corners(d, name)]


def records(tiles):
    """(name, r, t) of Tile objects: the exact data a patch file carries."""
    return [(tile.name, tile.iso.r, tile.iso.t) for tile in tiles]


def cross(u, w):
    """conj(u) * w; its imaginary part is the z-component of u x w."""
    return u.conj() * w


def double_area(a, b, c):
    """2i * (signed area) * 2 of triangle abc, as an exact field element."""
    x = cross(b - a, c - a)
    return x - x.conj()


def sin_elem(d, k):
    """sin(k*pi/d) built from roots of unity: (z^e - z^-e) / 2i."""
    f = field_for_order(d)
    e = k * f.n // (2 * d)
    return (f.zeta(e) - f.zeta(-e)) * f.zeta(3 * f.n // 4) * Fraction(1, 2)


def check_iota(d, p, iota):
    require(iota * sin_elem(d, 1) == sin_elem(d, p),
            f"inflation factor of ({d},{p}) is not s_p/s_1")


def iota_float(d, p):
    return math.sin(p * math.pi / d) / math.sin(math.pi / d)


# -- substitution matrices -----------------------------------------------

def count_matrix(rules, order):
    index = {n: i for i, n in enumerate(order)}
    M = np.zeros((len(order), len(order)), dtype=object)
    for j, name in enumerate(order):
        for cname, _ in rules.rules[name]:
            M[index[cname], j] += 1
    return M


def expected_counts(rule_seq, order, seed):
    """Tile counts after applying rule_seq[0], rule_seq[1], ... to seed."""
    v = np.zeros(len(order), dtype=object)
    v[order.index(seed)] = 1
    out = []
    for rules in rule_seq:
        v = count_matrix(rules, order).dot(v)
        out.append({n: int(c) for n, c in zip(order, v) if c})
    return out


def check_counts(tiles, want, what):
    got = Counter(t.name for t in tiles)
    require(got and dict(got) == want, f"{what}: tile counts differ from "
            "the matrix power of the seed")


# -- derive: rule areas, edge words, Perron root, Pisot verdicts ------------

def check_rule_areas(rules):
    """Sum of child double-areas = iota^2 * parent double-area, exactly."""
    d = rules.d
    iota2 = rules.iota * rules.iota
    require(rules.rules, "empty rule set")
    for name, children in rules.rules.items():
        require(children, f"rule {name} has no children")
        a, b, c = tile_corners(d, name)
        total = None
        for cname, h in children:
            area = double_area(*placed(d, cname, h.r, h.t))
            total = area if total is None else total + area
        require(total == double_area(a, b, c) * iota2,
                f"({d},{rules.p},{rules.sign}) rule {name}: child areas do "
                "not add up to iota^2 times the parent area")


def closed_form_subdivision(d, p, j):
    """S-indices of an iota_{d,p}-inflated class-j edge (paper's formula)."""
    lo = p - j + 1 if j <= p else j - p + 1
    return list(range(lo, lo + 2 * min(j, p) - 1, 2))


def check_edge_words(d, p, sign, words):
    """Each word's length classes are the closed-form subdivision.

    A positively oriented letter reads the S-indices downwards in the +
    variant; the - variant is its mirror image and reads them upwards.
    """
    require(words, f"no edge words for ({d},{p})")
    for letter, word in words.items():
        want = [min(n, d - n) for n in closed_form_subdivision(d, p, letter.cls)]
        if letter.orient * sign == 1:
            want.reverse()
        require([l.cls for l in word] == want,
                f"({d},{p},{sign}) edge word of {letter} does not project to the "
                "closed-form subdivision")


def check_perron(rules, lam_reported):
    order = sorted(rules.rules)
    M = count_matrix(rules, order).astype(float)
    lam = max(np.linalg.eigvals(M).real)
    want = iota_float(rules.d, rules.p) ** 2
    require(abs(lam - want) < 1e-9 and abs(lam_reported - want) < 1e-9,
            f"({rules.d},{rules.p},{rules.sign}) Perron root {lam!r} "
            f"(reported {lam_reported!r}) is not iota^2 = {want!r}")


def float_pisot(d, p):
    """(is Pisot, degree) from the conjugates sin(pk pi/d)/sin(k pi/d)."""
    vals = []
    for k in range(1, 2 * d):
        if math.gcd(k, 2 * d) == 1:
            v = math.sin(p * k * math.pi / d) / math.sin(k * math.pi / d)
            if all(abs(v - w) > 1e-9 for w in vals):
                vals.append(v)
    x = iota_float(d, p)
    others = [v for v in vals if abs(v - x) > 1e-9]
    require(all(abs(abs(v) - 1) > 1e-6 for v in others),
            f"({d},{p}): a conjugate lies too close to the unit circle "
            "for a float verdict")
    return x > 1 and all(abs(v) < 1 for v in others), len(vals)


def check_pisot_table(d, rows):
    require([r["p"] for r in rows] == list(range(2, d // 2 + 1)),
            f"Pisot table of d={d} does not list p = 2..{d // 2}")
    for row in rows:
        pisot, degree = float_pisot(d, row["p"])
        require(row["pisot"] == pisot and row["degree"] == degree,
                f"Pisot verdict of ({d},{row['p']}) disagrees with the "
                "float conjugates")


# -- patches: edge pairing and outline -----------------------------------

def check_pairing(d, recs, outline):
    """Interior edges used once each way; the boundary is `outline`.

    recs: (name, r, t) per tile.  outline: the three exact corners the
    boundary must run through, anticlockwise; the boundary edges must
    chain from outline[0] through outline[1] and outline[2] back to
    outline[0], each vertex on the side it belongs to.
    """
    directed = {}
    for name, r, t in recs:
        cs = placed(d, name, r, t)
        keys = [c.key() for c in cs]
        for k in range(3):
            e = (keys[k], keys[(k + 1) % 3])
            require(e not in directed, "an edge is traversed twice in the "
                    "same direction")
            directed[e] = cs[(k + 1) % 3]
    require(directed, "empty patch")
    nxt = {}
    for (a, b), bz in directed.items():
        if (b, a) not in directed:
            require(a not in nxt, "the boundary passes a vertex twice")
            nxt[a] = (b, bz)
    okeys = [c.key() for c in outline]
    require(okeys[0] in nxt, "the boundary misses the outline corner")
    side, seen, key = 0, 0, okeys[0]
    a, b = outline[0], outline[1]
    while True:
        key, z = nxt[key]
        seen += 1
        if key == okeys[(side + 1) % 3]:
            side += 1
            if side == 3:
                break
            a, b = outline[side], outline[(side + 1) % 3]
            continue
        x = cross(b - a, z - a)
        s = (z - a).cvalue() / (b - a).cvalue()
        require(x == x.conj() and 0 < s.real < 1,
                "a boundary vertex is off the scaled seed outline")
        require(seen <= len(nxt), "the boundary does not close")
    require(seen == len(nxt), "boundary edges outside the outline chain")


def scaled_outline(d, name, r, t, factor):
    return [c * factor for c in placed(d, name, r, t)]


# -- ensemble: flips ------------------------------------------------------

def check_flip(d, old, new):
    """A flip keeps the quadrilateral's four corners and its exact area."""
    before = [placed(d, *rec) for rec in old]
    after = [placed(d, *rec) for rec in new]
    corners_before = {c.key() for cs in before for c in cs}
    corners_after = {c.key() for cs in after for c in cs}
    require(len(corners_before) == 4 and corners_before == corners_after,
            "a flip changed the quadrilateral's corners")
    require(sum((double_area(*cs) for cs in before[1:]),
                double_area(*before[0])) ==
            sum((double_area(*cs) for cs in after[1:]),
                double_area(*after[0])),
            "a flip changed the pair's area")


def replay_flips(patch, steps, rng_seed, find_flippable, apply_flip):
    """The flip sequence of rearrangement_sample, step by step.

    The sampler picks uniformly among the current sites in find_flippable
    order with random.Random(rng_seed).choice; this repeats that choice
    and checks each applied flip.
    """
    rng = stdrandom.Random(rng_seed)
    for _ in range(steps):
        sites = find_flippable(patch)
        require(sites, "a rearrangement step found no flip site")
        site = rng.choice(sites)
        nxt = apply_flip(patch, site)
        check_flip(patch.d, records([patch.tiles[site.i], patch.tiles[site.j]]),
                   records([nxt.tiles[site.i], nxt.tiles[site.j]]))
        changed = [k for k, (u, v) in enumerate(zip(patch.tiles, nxt.tiles))
                   if u != v]
        require(changed == sorted((site.i, site.j)),
                "a flip touched tiles outside its pair")
        patch = nxt
    return patch


def prototile_area(d, name):
    return double_area(*tile_corners(d, name))


def check_area(d, tiles, want):
    counts = Counter(t.name for t in tiles)
    require(counts, "empty patch")
    total = None
    for name, k in sorted(counts.items()):
        a = prototile_area(d, name) * k
        total = a if total is None else total + a
    require(total == want, "total tile area differs from the scaled seed area")
