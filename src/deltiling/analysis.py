"""Quantitative diagnostics: matrices, frequencies, vertex stars, reports."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .field import inflation_factor
from .algebraic import pisot_check
from .arrangement import (SymmetryIndex, census_closed_form, get_arrangement,
                          subdivision_closed_form, multiplicity_closed_form,
                          triangular_pattern)
from .prototiles import prototile_catalog, undecorated_signature
from .substitution import (RuleSet, check_area_balance, letter_table,
                           prototile_ids, _corner_ids)


def substitution_matrix(rules: RuleSet):
    """(M, order): M[i, j] = multiplicity of tile i among children of j."""
    return rules.matrix()


def is_primitive(M):
    """Some power of the non-negative square matrix M is strictly positive.

    A primitive n x n matrix has A^k > 0 for every k >= (n-1)^2 + 1
    (Wielandt's bound), so squaring the 0/1 pattern until the exponent
    2^j reaches that bound decides it.  The pattern is squared in
    float64: its products are integers at most n, so they are exact.
    """
    n = M.shape[0]
    P = (np.asarray(M) > 0).astype(float)
    power = 1
    while not P.all():
        if power >= (n - 1) ** 2 + 1:
            return False
        P = ((P @ P) > 0).astype(float)
        power *= 2
    return True


def tile_frequencies(rules: RuleSet):
    """(iota^2, name -> relative frequency): the Perron root of the
    substitution matrix M and its right eigenvector v, summing to 1 (the
    tile-count proportions in high inflation powers).

    The root is iota^2, proved.  `check_area_balance` shows exactly that
    a^T M = iota^2 a^T, where a > 0 holds the prototile areas.  A
    nonnegative irreducible matrix (a primitive one is irreducible) has
    only one eigenvalue with a positive eigenvector, its Perron root, and
    that root is simple (Perron-Frobenius; Baake & Grimm, Aperiodic Order
    Vol. 1, ch. 2), so the Perron root of M is iota^2.  A rule set whose
    balance fails raises AssertionError (the verdict is computed once per
    rule set), and one whose M is not primitive ValueError.

    v solves M v = iota^2 v with one row replaced by sum v = 1.  That
    system is regular: the rows of M - iota^2 I span dimension n - 1 with
    the left null vector a, which has no zero entry, so any n - 1 of them
    are independent; and the row of ones is not in their span, because
    every row of M - iota^2 I annuls v > 0 and the ones do not.  v is
    certified by v > 0 and by its residual.
    """
    check_area_balance(rules)
    M, order = rules.matrix()
    if not is_primitive(M):
        raise ValueError("substitution matrix is not primitive")
    lam = abs(rules.iota.cvalue()) ** 2
    A = M - lam * np.eye(len(M))
    A[-1] = 1
    b = np.zeros(len(M))
    b[-1] = 1
    v = np.linalg.solve(A, b)
    assert (v > 0).all()
    assert np.max(np.abs(M @ v - lam * v)) < 1e-9
    return lam, dict(zip(order, v))


def top_frequencies(freq):
    """The four largest (name, frequency) pairs of freq, in the order they
    print to four decimals: by the value rounded to four decimals, larger
    first, then by name.  Equal frequencies then print in one order,
    whatever the rounding of the eigenvector that gave them."""
    return sorted(freq.items(), key=lambda kv: (-round(kv[1], 4), kv[0]))[:4]


def empirical_convergence(rules: RuleSet, seed_name, depth=4):
    """l1 distance of tile fractions in Phi^n(seed) to the Perron vector."""
    _, freq = tile_frequencies(rules)
    M, order = rules.matrix()
    counts = np.zeros(len(order))
    counts[order.index(seed_name)] = 1
    dists = []
    for _ in range(depth):
        counts = M.astype(float) @ counts
        frac = counts / counts.sum()
        dists.append(float(sum(abs(frac[i] - freq[n])
                               for i, n in enumerate(order))))
    return dists


# -- vertex configurations ----------------------------------------------

@dataclass
class VertexStar:
    z: complex
    sectors: tuple   # cyclic, anticlockwise: (shape id, angle numerator)
    order: int       # largest rotational symmetry of the sector sequence


def _shape_id(cat, name):
    return undecorated_signature(cat.by_name[name].signature)


def corner_angles(d):
    """Prototile angles, by id and corner, in units of pi/d, exactly.

    Class c has length 4 s_1 s_c, so the angle at corner m, opposite side
    m+1 (side k runs from corner k to k+1), is c = c_{m+1} or d - c.  The
    angles sum to d: d - c only at the corner where 2c = c_0 + c_1 + c_2
    != d.
    """
    c = letter_table(d)[1][:, [1, 2, 0]]  # c[:, m]: class opposite corner m
    total = c.sum(axis=1, keepdims=True)
    return np.where((2 * c == total) & (total != d), d - c, c)


def vertex_configurations(patch):
    """Rotational symmetry of every interior vertex star of a patch.

    Angles are in units of pi/d, exact from `corner_angles`; floats only
    order the sectors around a vertex.  A vertex is interior when its
    sectors sum to 2 pi exactly.
    """
    d = patch.d
    cat = prototile_catalog(d)
    names, _ = prototile_ids(d)
    angles = corner_angles(d).tolist()
    stars = {}
    for i, keys, fl in zip(patch.columns[0].tolist(),
                           _corner_ids(patch)[0].tolist(),
                           patch.corner_values().tolist()):
        shape = _shape_id(cat, names[i])
        for k in range(3):
            start = cmath.phase(fl[(k + 1) % 3] - fl[k]) % (2 * math.pi)
            stars.setdefault(keys[k], (fl[k], []))[1].append(
                (start, shape, angles[i][k]))
    out = []
    for z, sectors in stars.values():
        sectors.sort()
        total = sum(num for _, _, num in sectors)
        if total != 2 * d:
            continue  # boundary vertex
        cyc = tuple((shape, num) for _, shape, num in sectors)
        n = len(cyc)
        order = 1
        for k in range(1, n + 1):
            if n % k:
                continue
            rot = cyc[n // k:] + cyc[:n // k]
            if rot == cyc and sum(num for _, num in cyc[:n // k]) * k == 2 * d:
                order = max(order, k)
        out.append(VertexStar(z, cyc, order))
    return out


# -- census and arrangement reports -------------------------------------

def census_report(d):
    """Geometric counts vs closed forms, plus table/sequence verification."""
    kappas = (0, -2, 2) if d % 3 == 0 else (0,)
    variants = []
    all_match = True
    for kappa in kappas:
        sym = SymmetryIndex(d, kappa)
        arr = get_arrangement(d, kappa)
        geometric = len(triangular_pattern(sym))
        closed = census_closed_form(d, kappa)
        table_ok = all(arr.vertex_multiplicities(mu)
                       == multiplicity_closed_form(d, kappa, mu) for mu in range(d))
        seq_ok = all(arr.subdivision_sequence(mu)
                     == subdivision_closed_form(d, kappa, mu) for mu in range(d))
        match = geometric == closed and table_ok and seq_ok
        all_match = all_match and match
        variants.append({"kappa": kappa, "geometric": geometric,
                         "closed_form": closed, "multiplicities_ok": table_ok,
                         "subdivisions_ok": seq_ok, "match": match})
    return {"d": d, "variants": variants, "all_match": all_match}


def pisot_table(d):
    """Pisot classification of every inflation factor iota_{d,p}."""
    rows = []
    for p in range(2, d // 2 + 1):
        res = pisot_check(inflation_factor(d, p))
        rows.append({"p": p, "value": float(inflation_factor(d, p).cvalue().real),
                     "degree": res.polynomial.degree,
                     "pisot": res.is_pisot,
                     "margin": res.margin,
                     "reason": res.reason})
    return rows
