#!/usr/bin/env python3
"""Derive substitution rules from the arrangement geometry and print them.

For a chosen (d, p, sign) this prints every rule as a child multiset,
the induced edge-letter substitution, and the substitution matrix row
sums, then renders the dissection of each prototile.
"""

import argparse
import os
from collections import Counter

from deltiling.substitution import Patch, derive_edge_words, derive_rules
from deltiling.svg import render_patch


def word_str(word):
    sym = {1: "+", 0: "0", -1: "-"}
    return " ".join(f"W{l.cls}^{sym[l.orient]}" for l in word)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=14)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--sign", type=int, default=1, choices=(1, -1))
    ap.add_argument("--out", default="output")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    rules = derive_rules(args.d, args.p, args.sign)
    print(f"substitution for d={args.d}, p={args.p}, "
          f"sign={'+' if args.sign > 0 else '-'} "
          f"(iota = {abs(rules.iota.cvalue()):.6f})")
    for name in sorted(rules.rules):
        if name.endswith("t"):
            continue  # mirrors carry the mirrored content
        counted = Counter(child for child, _ in rules.rules[name])
        body = " ".join(f"{c}^{n}" if n > 1 else c
                        for c, n in sorted(counted.items()))
        print(f"  Phi({name}) = {body}")
    print("edge words:")
    for letter, word in sorted(derive_edge_words(rules).items(),
                               key=lambda kv: (kv[0].cls, kv[0].orient)):
        print(f"  phi(W{letter.cls}^{letter.orient:+d}) = {word_str(word)}")

    for name in sorted(rules.rules):
        if name.endswith("t"):
            continue
        path = os.path.join(args.out, f"rule_{args.d}_{args.p}_{name}.svg")
        render_patch(Patch.single(args.d, name).inflate(rules), path,
                     decorations=True, labels=True)
    print(f"dissection drawings -> {args.out}/rule_{args.d}_{args.p}_*.svg")


if __name__ == "__main__":
    main()
