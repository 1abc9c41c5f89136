"""Substitution matrices, frequencies, vertex stars, reports."""

import cmath
import math

import numpy as np
import pytest

from deltiling.field import field_for_order, inflation_factor
from deltiling.analysis import (census_report, corner_angles,
                                empirical_convergence, is_primitive,
                                pisot_table, substitution_matrix,
                                tile_frequencies, top_frequencies,
                                vertex_configurations)
from deltiling import substitution
from deltiling.substitution import Patch, RuleSet, _corner_rows, derive_rules


def test_matrix_columns_match_rules():
    rules = derive_rules(14, 3, 1)
    M, order = substitution_matrix(rules)
    j = order.index("P")
    col = {order[i]: M[i, j] for i in range(len(order)) if M[i, j]}
    assert col == {"A": 1, "Bt": 1}
    j = order.index("N")
    col = {order[i]: M[i, j] for i in range(len(order)) if M[i, j]}
    assert col == {"At": 1, "B": 1, "Ct": 1, "D": 1, "Et": 1}
    for j, name in enumerate(order):
        assert M[:, j].sum() == len(rules.rules[name])


def test_matrices_are_primitive():
    cases = [(14, p, sign) for p in range(2, 8) for sign in (1, -1)]
    for d, p, sign in cases + [(7, 2, 1), (9, 3, 1), (10, 5, 1)]:
        M, _ = substitution_matrix(derive_rules(d, p, sign))
        assert is_primitive(M), (d, p, sign)


def wielandt(n):
    """Cycle 0 -> 1 -> ... -> n-1 -> 0 plus n-1 -> 1: primitive, exponent
    (n-1)^2 + 1, the largest any primitive n x n matrix has."""
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        A[i, (i + 1) % n] = 1
    A[n - 1, 1] = 1
    return A


@pytest.mark.parametrize("n", [*range(4, 9), 30, 60])
def test_is_primitive_beyond_exponent_n(n):
    A = wielandt(n)
    P = np.eye(n, dtype=np.int64)
    for k in range(1, (n - 1) ** 2 + 2):
        P = ((P @ A) > 0).astype(np.int64)
        assert P.all() == (k == (n - 1) ** 2 + 1)  # first positive power
    assert is_primitive(A)


def test_is_primitive_rejects_imprimitive_matrices():
    cyclic = np.roll(np.eye(5, dtype=np.int64), 1, axis=1)
    assert not is_primitive(cyclic)
    reducible = np.block([[np.ones((2, 2)), np.ones((2, 3))],
                          [np.zeros((3, 2)), np.ones((3, 3))]]).astype(int)
    assert not is_primitive(reducible)


def test_perron_eigenvalue_is_iota_squared():
    """Every (d, p, +-) with d = 5..16: tile_frequencies gives iota^2 and
    the Perron vector of a dense eigensolver, to 1e-12, or refuses a
    matrix that is not primitive."""
    for d in range(5, 17):
        for p in range(2, d // 2 + 1):
            for sign in (1, -1):
                rules = derive_rules(d, p, sign)
                iota2 = abs(inflation_factor(d, p).cvalue()) ** 2
                M, order = substitution_matrix(rules)
                vals, vecs = np.linalg.eig(M.astype(float))
                k = int(np.argmax(vals.real))
                assert abs(vals[k] - iota2) < 1e-9, (d, p, sign)
                if not is_primitive(M):
                    # happens when the kappa variants cycle (3|d and the
                    # signed class -+p is 1 mod 3)
                    assert d % 3 == 0 and (-sign * p) % 3 == 1
                    with pytest.raises(ValueError, match="not primitive"):
                        tile_frequencies(rules)
                    continue
                lam, freq = tile_frequencies(rules)
                assert lam == iota2
                assert list(freq) == order
                want = np.abs(vecs[:, k].real)
                vals = np.array(list(freq.values()))
                assert (vals > 0).all()
                assert np.abs(vals - want / want.sum()).max() < 1e-12, \
                    (d, p, sign)


def test_tile_frequencies_rest_on_the_area_balance(monkeypatch):
    # a rule set whose balance fails is refused, not given a vector; each
    # rule set's balance is computed once, a derived one's when derived
    rules = derive_rules(14, 3, 1)
    dropped = RuleSet(14, 3, 1, dict(rules.rules, G=rules.rules["G"][1:]))
    with pytest.raises(AssertionError, match="prototile: G$"):
        tile_frequencies(dropped)
    monkeypatch.setattr(substitution, "_area_rows", None)
    with pytest.raises(AssertionError, match="prototile: G$"):
        tile_frequencies(dropped)
    lam, _ = tile_frequencies(rules)
    assert lam == abs(rules.iota.cvalue()) ** 2


def test_top_frequencies_break_printed_ties_by_name():
    # values equal to four decimals tie whatever their last bits; a value
    # that prints larger comes first
    freq = {"Gt": 0.04140000001, "G": 0.0414, "H": 0.03889999999,
            "Ht": 0.0389, "P": 0.0416, "Q": 0.001}
    assert top_frequencies(freq) == [
        ("P", 0.0416), ("G", 0.0414), ("Gt", 0.04140000001),
        ("H", 0.03889999999)]


def test_composed_factor():
    # lambda of a two-stage inflation is the product of the squares
    ra = derive_rules(14, 3, 1)
    rb = derive_rules(14, 5, 1)
    Ma, order = substitution_matrix(ra)
    Mb, order_b = substitution_matrix(rb)
    assert order == order_b
    lam = max(abs(np.linalg.eigvals((Ma @ Mb).astype(float))))
    i3 = abs(inflation_factor(14, 3).cvalue())
    i5 = abs(inflation_factor(14, 5).cvalue())
    assert abs(lam - (i3 * i5) ** 2) < 1e-8


def test_empirical_convergence_reported():
    dists = empirical_convergence(derive_rules(14, 3, 1), "G", depth=4)
    assert len(dists) == 4 and all(x >= 0 for x in dists)
    assert dists[-1] < dists[0]


def test_vertex_configurations():
    rules = derive_rules(14, 3, 1)
    patch = Patch.single(14, "G").inflate(rules).inflate(rules)
    stars = vertex_configurations(patch)
    assert stars
    d = patch.d
    for star in stars:
        assert sum(num for _, num in star.sectors) == 2 * d
        assert len(star.sectors) % star.order == 0


def test_corner_angles_match_float_corners():
    """The side-class angles agree with the float phases of the corners
    at all 8,148 prototile corners of d = 5..30."""
    seen = 0
    for d in range(5, 31):
        corners = field_for_order(d).cvalues(_corner_rows(d)).tolist()
        for tri, angles in zip(corners, corner_angles(d).tolist()):
            assert sum(angles) == d
            for m in range(3):
                u = tri[(m + 1) % 3] - tri[m]
                w = tri[(m + 2) % 3] - tri[m]
                ang = (cmath.phase(w) - cmath.phase(u)) % (2 * math.pi)
                assert abs(ang - angles[m] * math.pi / d) < 1e-9, (d, m)
                seen += 1
    assert seen == 8148


def test_census_report():
    rep = census_report(14)
    assert rep["all_match"]
    assert rep["variants"][0]["geometric"] == 52
    rep = census_report(12)
    assert rep["all_match"]
    assert [v["geometric"] for v in rep["variants"]] == [36, 37, 37]


def test_pisot_table():
    rows = {r["p"]: r for r in pisot_table(14)}
    assert rows[5]["pisot"] is True
    assert rows[3]["pisot"] is False
    assert rows[5]["margin"] > 0
    assert abs(rows[3]["value"] - math.sin(3 * math.pi / 14)
               / math.sin(math.pi / 14)) < 1e-12
    assert {r["p"] for r in pisot_table(5)} == {2}
