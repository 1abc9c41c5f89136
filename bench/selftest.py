"""Self-tests of the benchmark's output checks.

    python3 bench/selftest.py

Each check must accept a correct output and reject a deliberately
corrupted copy: a tile shifted by an exact translation, a child dropped
from a rule, a flip that moves a corner, and more.  It must also reject
an empty output, so that a check which examined nothing cannot pass.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from deltiling.analysis import pisot_table, tile_frequencies  # noqa: E402
from deltiling.field import field_for_order  # noqa: E402
from deltiling.random import find_flippable  # noqa: E402
from deltiling.substitution import (Isometry, Patch, RuleSet, Tile,  # noqa: E402
                                    derive_edge_words, derive_rules)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import check_control, defect_controls  # noqa: E402

D, P = 14, 3
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(fn, *args):
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def level(n, place=None):
    f = field_for_order(D)
    rules = derive_rules(D, P, 1)
    patch = Patch(D, [Tile("G", place or Isometry(0, f.zero))])
    for _ in range(n):
        patch = patch.inflate(rules)
    return patch, rules


def outline(n, place):
    iota = derive_rules(D, P, 1).iota
    factor = iota
    for _ in range(n - 1):
        factor = factor * iota
    return checks.scaled_outline(D, "G", place.r, place.t, factor)


@case
def pairing_rejects_shifted_tile():
    f = field_for_order(D)
    place = Isometry(7, f.rational(2) + f.i * -3)
    patch, _ = level(2, place)
    recs = checks.records(patch.tiles)
    box = outline(2, place)
    checks.check_pairing(D, recs, box)
    name, r, t = recs[5]
    shifted = recs[:5] + [(name, r, t + f.one)] + recs[6:]
    assert rejects(checks.check_pairing, D, shifted, box)
    assert rejects(checks.check_pairing, D, recs[1:], box)
    assert rejects(checks.check_pairing, D, [], box)
    assert rejects(checks.check_pairing, D, recs, outline(3, place))


@case
def rule_areas_reject_dropped_child():
    rules = derive_rules(D, P, 1)
    checks.check_rule_areas(rules)
    broken = dict(rules.rules)
    name = sorted(broken)[0]
    broken[name] = broken[name][1:]
    assert rejects(checks.check_rule_areas, RuleSet(D, P, 1, broken))
    assert rejects(checks.check_rule_areas, RuleSet(D, P, 1, {}))


@case
def counts_reject_dropped_child():
    patch, rules = level(2)
    order = sorted(rules.rules)
    want = checks.expected_counts([rules, rules], order, "G")
    checks.check_counts(patch.tiles, want[1], "level 2")
    assert rejects(checks.check_counts, patch.tiles[1:], want[1], "level 2")
    assert rejects(checks.check_counts, [], {}, "empty")


@case
def flip_check_rejects_moved_corner():
    patch, _ = level(2)
    sites = find_flippable(patch)
    assert sites, "no flip site in the test patch"
    site = sites[0]
    old = checks.records(site.old)
    new = checks.records(site.new)
    checks.check_flip(D, old, new)
    f = field_for_order(D)
    name, r, t = new[0]
    assert rejects(checks.check_flip, D, old, [(name, r, t + f.one), new[1]])
    name, r, t = new[1]
    assert rejects(checks.check_flip, D, old, [new[0], (name, (r + 1) % f.n, t)])
    assert rejects(checks.check_flip, D, old, old[:1] + new[:1])


@case
def edge_words_reject_wrong_word():
    words = derive_edge_words(derive_rules(D, P, 1))
    checks.check_edge_words(D, P, 1, words)
    assert rejects(checks.check_edge_words, D, P, -1, words)
    letter = sorted(words, key=lambda l: (l.cls, l.orient))[-1]
    broken = dict(words)
    broken[letter] = words[letter][:-1]
    assert rejects(checks.check_edge_words, D, P, 1, broken)
    assert rejects(checks.check_edge_words, D, P, 1, {})


@case
def spectral_checks_reject_wrong_values():
    rules = derive_rules(D, P, 1)
    lam = tile_frequencies(rules)[0]
    checks.check_perron(rules, lam)
    assert rejects(checks.check_perron, rules, lam * (1 + 1e-6))
    rows = pisot_table(D)
    checks.check_pisot_table(D, rows)
    flipped = [dict(r) for r in rows]
    flipped[0]["pisot"] = not flipped[0]["pisot"]
    assert rejects(checks.check_pisot_table, D, flipped)
    assert rejects(checks.check_pisot_table, D, rows[1:])
    assert rejects(checks.check_iota, D, P + 1, rules.iota)


@case
def area_check_rejects_missing_tile():
    iota = derive_rules(D, P, 1).iota
    patch, _ = level(2)
    want = checks.prototile_area(D, "G") * iota * iota * iota * iota
    checks.check_area(D, patch.tiles, want)
    assert rejects(checks.check_area, D, patch.tiles[1:], want)
    assert rejects(checks.check_area, D, [], want)


@case
def defect_controls_are_real_t_junctions():
    controls = defect_controls()
    for patch, edge, point in controls[:40]:
        check_control(patch, edge, point)
    patch, edge, point = controls[0]
    a, b = edge
    assert rejects(check_control, patch, (b, a), point)


def main():
    bad = 0
    for fn in CASES:
        try:
            fn()
        except (AssertionError, CheckError) as exc:
            bad += 1
            print(f"FAIL {fn.__name__}: {exc!r}")
        else:
            print(f"ok   {fn.__name__}")
    print(f"selftest: {len(CASES) - bad} of {len(CASES)} passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
