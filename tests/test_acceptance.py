"""Acceptance gate: one test per acceptance criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -rP`` or on failure) and asserts that the criterion holds at its
stated tolerance.
"""

import json
import time
from collections import Counter

import numpy as np

from deltiling.field import field_for_order, inflation_factor, sin_val
from deltiling.algebraic import pisot_check
from deltiling.arrangement import (SymmetryIndex, census_closed_form,
                                   subdivision_closed_form, subdivision_sequence,
                                   multiplicity_closed_form, triangular_pattern,
                                   vertex_multiplicities)
from deltiling.prototiles import prototile_catalog, EdgeLetter
from deltiling.substitution import (Patch, derive_edge_words, derive_rules,
                                    edge_subdivision, mir, project, rho,
                                    verify_face_to_face)
from deltiling.random import (apply_flip, enumerate_flips, find_flippable,
                              random_rule_family, random_substitution,
                              rearrangement_sample)
from deltiling.analysis import pisot_table
from deltiling.patchio import patch_document


def variants(d):
    return (0, -2, 2) if d % 3 == 0 else (0,)


def emit(n, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {n}: {status}{extra}")
    assert not failures, failures[:10]


# ---------------------------------------------------------------------------

def test_criterion_01_vertex_multiplicity_table():
    t0 = time.time()
    failures = []
    for d in range(5, 19):
        for kappa in variants(d):
            sym = SymmetryIndex(d, kappa)
            for mu in range(d):
                got = vertex_multiplicities(sym, mu)
                want = multiplicity_closed_form(d, kappa, mu)
                if got != want:
                    failures.append((d, kappa, mu, got, want))
    elapsed = time.time() - t0
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    emit(1, failures, f" (v2/v3 table, 5<=d<=18, {elapsed:.1f}s)")


def test_criterion_02_subdivision_sequences():
    failures = []
    for d in range(5, 19):
        for kappa in variants(d):
            sym = SymmetryIndex(d, kappa)
            for mu in range(d):
                got = subdivision_sequence(sym, mu)
                want = subdivision_closed_form(d, kappa, mu)
                if got != want:
                    failures.append((d, kappa, mu, got, want))
    emit(2, failures, " (segment subdivision sequences, 5<=d<=18, exact)")


def test_criterion_03_census():
    failures = []
    for d in range(5, 19):
        for kappa in variants(d):
            sym = SymmetryIndex(d, kappa)
            got = len(triangular_pattern(sym))
            want = census_closed_form(d, kappa)
            if got != want:
                failures.append((d, kappa, got, want))
    if census_closed_form(14, 0) != 52:
        failures.append("d=14 census != 52")
    cat = prototile_catalog(14)
    neg = sorted(p.name for p in cat.prototiles
                 if (p.face.tri.sigma - 0) % 14 == 14 - 1)
    want = sorted(["A", "Ah", "B", "Bh", "C", "Ch", "D", "Dh", "E", "Eh",
                   "F", "Fh", "G", "H", "I", "Ih", "J", "Jh", "K", "Kh",
                   "L", "M", "N", "Nh", "O", "P"])
    if neg != want:
        failures.append(("sigma=-1 names", neg))
    emit(3, failures, " (census closed forms + d=14 sigma=-1 name list)")


GOLDEN_RULES_14_3 = {
    "A":  "Ah Ot Bh Nt",
    "Ah": "P Aht O Cht",
    "B":  "Pt Ah Ot Ch Mt",
    "Bh": "Bht O Cht Nh Kht",
    "C":  "Ot Bh Nt Dh It Mt Ch Nht",
    "Ch": "Aht O Cht M Eht Dht N Bht",
    "D":  "Ot Ch Mt Eh Ht Iht Kh Nht",
    # a ninth Cht child would break the exact area balance (children must
    # tile iota*Dh exactly), so Dh has eight children like D
    "Dh": "Cht Nh Kht Ih Lt Eht M Dht",
    "E":  "Nt Dh It Fh Fht Ht Eh Mt Iht",
    "Eh": "Cht M Eht H Gt Fht I Dht Jt",
    "F":  "Mt Eh Ht G Gt Ft L Iht Jht",
    "Fh": "Kht Ih Lt F Et Eht H Gt Fht",
    "G":  "It Fh Fht H Eht Ht G Gt Ft",
    "H":  "Dt E Ft G Ht Gt F Et Lt",
    "I":  "Ct D Et F Gt Lt Jh Kt",
    "Ih": "Iht L Jht K Ft E Dt Et",
    "J":  "Eht Ih Lt Jh Kt",
    "Jh": "Nht Kh Iht L Ft",
    "K":  "Mt Dh It J Jt",
    "Kh": "Bht N Dht I Fht",
    "L":  "Dht I Jt J Fht Fh It Ht",
    "M":  "Bt C Dt E Ft Et D Ct Kt",
    "N":  "At B Ct D Et",
    "Nh": "Ct C Dt K Jht",
    "O":  "A Bt C Dt At B Ct",
    "P":  "A Bt",
}

GOLDEN_WORDS_14_3 = {
    (1, 1): "W3^-",
    (2, 1): "W4^- W2^-",
    (3, 1): "W5^- W3^- W1^-",
    (4, 1): "W6^- W4^- W2^-",
    (5, 1): "W7^0 W5^- W3^-",
    (6, 1): "W6^+ W6^- W4^-",
    (7, 0): "W5^+ W7^0 W5^-",
}


def letter_str(l):
    return f"W{l.cls}^{ {1: '+', 0: '0', -1: '-'}[l.orient] }".replace(" ", "")


def test_criterion_04_golden_rules_d14():
    rules = derive_rules(14, 3, 1)
    failures = []
    for name, expect in GOLDEN_RULES_14_3.items():
        got = Counter(child for child, _ in rules.rules[name])
        if got != Counter(expect.split()):
            failures.append((name, sorted(got.elements()), expect))
    words = derive_edge_words(rules)
    for (cls, orient), expect in GOLDEN_WORDS_14_3.items():
        got = " ".join(letter_str(l) for l in words[EdgeLetter(cls, orient)])
        if got != expect:
            failures.append(((cls, orient), got, expect))
    emit(4, failures, " (26 child multisets + 7 edge words, 0 mismatches)")


# ---------------------------------------------------------------------------

def signed_sin(d, n):
    """Exact sin(n*pi/d) for any integer n."""
    f = field_for_order(d)
    m = n % (2 * d)
    if m % d == 0:
        return f.rational(0)
    if m < d:
        return sin_val(d, m)
    return -sin_val(d, m - d)


def word_subst(words, w):
    return tuple(l2 for l in w for l2 in words[l])


def test_criterion_05_trig_identities():
    failures = []
    for d in range(5, 31):
        q = d // 2
        s1 = sin_val(d, 1)
        zero = field_for_order(d).rational(0)
        for l in range(1, q + 1):
            sl = sin_val(d, l)
            ratio = sl / s1
            for j in range(1, q + 1):
                lhs = ratio * sin_val(d, j)
                if j <= l:
                    rhs = sum((signed_sin(d, l - j + 2 * k + 1)
                               for k in range(j)), zero)
                else:
                    rhs = sum((signed_sin(d, j - l + 2 * k + 1)
                               for k in range(l)), zero)
                if lhs != rhs:
                    failures.append(("sum identity", d, l, j))
            # three-term recurrence s_l s_2 = s_1 (s_{l-1} + s_{l+1})
            if sl * sin_val(d, 2) != s1 * (signed_sin(d, l - 1)
                                           + signed_sin(d, l + 1)):
                failures.append(("recurrence", d, l))
    # mirror relation of iterated edge words and projection consistency
    for d, p in [(14, 3), (14, 5), (10, 3), (8, 3), (5, 2)]:
        words = derive_edge_words(derive_rules(d, p, 1))
        level = {l: (l,) for l in words}
        for n in range(1, 5):
            level = {l: word_subst(words, w) for l, w in level.items()}
            for l, w in level.items():
                if w != mir(rho(level[l.negated()])):
                    failures.append(("mirror", d, p, n, letter_str(l)))
                if project(mir(w)) != mir(project(w)):
                    failures.append(("P.Mir", d, p, n, letter_str(l)))
        # level-1 projection is the exact edge subdivision
        for l, w in words.items():
            expect = [min(k, d - k) for k in edge_subdivision(d, p, l.cls)]
            got = list(project(w))
            if got != (expect[::-1] if l.orient == 1 else expect):
                failures.append(("subdivision", d, p, letter_str(l)))
    emit(5, failures, " (exact sums/recurrence d<=30; word mirror n<=4)")


def all_rule_params(dmax=14):
    for d in range(5, dmax + 1):
        for p in range(2, d // 2 + 1):
            for sign in (1, -1):
                yield d, p, sign


def test_criterion_06_face_to_face():
    failures = []
    worst = 0.0
    for d, p, sign in all_rule_params():
        t0 = time.time()
        rules = derive_rules(d, p, sign)
        seed = prototile_catalog(d).prototiles[0].name
        patch = Patch.single(d, seed)
        for _ in range(3):
            patch = patch.inflate(rules)
        rep = verify_face_to_face(patch)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        if not rep.ok:
            failures.append((d, p, sign, rep.problems[:2]))
        if elapsed >= 120:
            failures.append((d, p, sign, f"runtime {elapsed:.0f}s"))
    # mixed-rule compositions on the d=14 seed G
    combos = [([(3, 1), (3, -1)], 3), ([(3, 1), (5, 1)], 2),
              ([(5, -1), (3, 1)], 2)]
    for steps, power in combos:
        t0 = time.time()
        patch = Patch.single(14, "G")
        for _ in range(power):
            for p, sign in steps:
                patch = patch.inflate(derive_rules(14, p, sign))
        rep = verify_face_to_face(patch)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        if not rep.ok:
            failures.append((steps, power, rep.problems[:2]))
        if elapsed >= 120:
            failures.append((steps, power, f"runtime {elapsed:.0f}s"))
    emit(6, failures, f" (0 violations, all d<=14 + compositions, "
         f"max {worst:.1f}s/case)")


def test_criterion_07_pisot():
    failures = []
    i3 = inflation_factor(14, 3)
    i5 = inflation_factor(14, 5)
    if not pisot_check(i5, width=1e-7).is_pisot:
        failures.append("iota_{14,5} not classified Pisot")
    if not pisot_check(i3 * i5, width=1e-7).is_pisot:
        failures.append("iota_{14,3}*iota_{14,5} not classified Pisot")
    gold = pisot_check(inflation_factor(5, 2), width=1e-7)
    if not gold.is_pisot or gold.polynomial.coeffs != (-1, -1, 1):
        failures.append("iota_{5,2} is not the golden ratio")
    lines = []
    for d in range(5, 15):
        for row in pisot_table(d):
            lines.append(f"  iota_{{{d},{row['p']}}} = {row['value']:.6f} "
                         f"deg={row['degree']} pisot={row['pisot']} "
                         f"margin={row['margin']:.3g}")
            if row["pisot"]:
                certified = row["degree"] == 1 or row["margin"] > 1e-6
            else:
                # a disqualifying conjugate must have been certified > 1
                certified = row["reason"].startswith("conjugate with modulus")
            if not certified:
                failures.append((d, row["p"], "margin not certified",
                                 row["margin"], row["reason"]))
    print("\n".join(lines))
    emit(7, failures, " (claimed Pisot values + certified table d<=14)")


def pair_outline(patch, i, j):
    edges = Counter()
    for t in (patch.tiles[i], patch.tiles[j]):
        c = [z.key() for z in t.corners(patch.d)]
        for k in range(3):
            edges[frozenset((c[k], c[(k + 1) % 3]))] += 1
    return frozenset(e for e, n in edges.items() if n == 1)


def test_criterion_08_flip_congruence():
    failures = []
    for d in (8, 10, 12, 14, 16, 18):
        for kappa in variants(d) if d % 3 == 0 else (0,):
            try:
                if not enumerate_flips(d, kappa):
                    failures.append((d, kappa, "no templates"))
            except AssertionError as exc:
                failures.append((d, kappa, str(exc)))
    # outlines are preserved exactly under applied flips
    for d, p in [(14, 5), (10, 5)]:
        rules = derive_rules(d, p, 1)
        seed = "G" if d == 14 else prototile_catalog(d).prototiles[0].name
        patch = Patch.single(d, seed).inflate(rules).inflate(rules)
        for site in find_flippable(patch)[:5]:
            before = pair_outline(patch, site.i, site.j)
            after = pair_outline(apply_flip(patch, site), site.i, site.j)
            if before != after:
                failures.append((d, "outline changed", site.i, site.j))
    emit(8, failures, " (exact template congruences + outline preservation)")


def test_criterion_09_palindromic_edge_words():
    failures = []
    for d in (8, 10, 12, 14):
        words = derive_edge_words(derive_rules(d, d // 2, 1))
        for l, w in words.items():
            if project(w) != mir(project(w)):
                failures.append((d, letter_str(l), project(w)))
    emit(9, failures, " (base half-turn words project to palindromes)")


def exact_double_area(patch):
    # sum of (cross - conj(cross)); purely imaginary, exact
    f = field_for_order(patch.d)
    total = f.rational(0)
    for t in patch.tiles:
        a, b, c = t.corners(patch.d)
        z = (b - a).conj() * (c - a)
        total = total + (z - z.conj())
    return total


def export_bytes(patch, manifest):
    doc = patch_document(patch, manifest, 12)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def test_criterion_10_ensembles():
    failures = []
    rules = derive_rules(14, 3, 1)
    patch = Patch.single(14, "G")
    for _ in range(3):
        patch = patch.inflate(rules)
    if len(patch) < 500:
        failures.append(f"base patch too small: {len(patch)}")
    sample = rearrangement_sample(patch, 100, rng_seed=42)
    if not verify_face_to_face(sample, decorated=False).ok:
        failures.append("rearrangement sample not face-to-face")
    if exact_double_area(sample) != exact_double_area(patch):
        failures.append("rearrangement changed the covered area")
    again = rearrangement_sample(patch, 100, rng_seed=42)
    if export_bytes(sample, {"rng_seed": 42}) != \
            export_bytes(again, {"rng_seed": 42}):
        failures.append("rearrangement export not byte-identical")

    family = random_rule_family(14, cap=4, rng_seed=0)
    pi = family.uniform_pi()
    rnd = random_substitution("G", family, pi, 3, rng_seed=7)
    if not verify_face_to_face(rnd, decorated=False).ok:
        failures.append("random substitution not face-to-face")
    iota = family.members[0].iota
    scale = iota * iota
    expect = exact_double_area(Patch.single(14, "G"))
    for _ in range(3):
        expect = expect * scale
    if exact_double_area(rnd) != expect:
        failures.append("random substitution area != iota^6 * seed area")
    again = random_substitution("G", family, pi, 3, rng_seed=7)
    if export_bytes(rnd, {"rng_seed": 7}) != export_bytes(again,
                                                         {"rng_seed": 7}):
        failures.append("random substitution export not byte-identical")
    emit(10, failures, f" (100 flips on {len(patch)} tiles; n=3 draw of "
         f"{len(rnd)} tiles; byte-identical exports)")


def test_criterion_11_perron_eigenvalues():
    failures = []
    for d, p, sign in all_rule_params():
        rules = derive_rules(d, p, sign)
        M, _ = rules.matrix()
        lam = max(abs(np.linalg.eigvals(M.astype(float))))
        iota2 = abs(inflation_factor(d, p).cvalue()) ** 2
        if not abs(lam - iota2) < 1e-9:
            failures.append((d, p, sign, lam, iota2))
    emit(11, failures, " (dominant eigenvalue = iota^2 +-1e-9, d<=14)")
