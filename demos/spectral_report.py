#!/usr/bin/env python3
"""Number-theoretic and spectral survey of the inflation factors.

For each d up to a bound: classify every inflation factor as Pisot or
not (with certified conjugate moduli), and for one substitution per d
report the Perron eigenvalue and the limiting tile frequencies.
"""

import argparse

from deltiling.analysis import pisot_table, tile_frequencies, top_frequencies
from deltiling.substitution import derive_rules


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dmax", type=int, default=14)
    args = ap.parse_args()

    for d in range(5, args.dmax + 1):
        print(f"d = {d}")
        for row in pisot_table(d):
            mark = "PISOT" if row["pisot"] else "-"
            print(f"  iota_{{{d},{row['p']}}} = {row['value']:.6f}  "
                  f"deg {row['degree']}  {mark:5}  {row['reason']}")
        p = max(2, d // 4)
        try:
            lam, freq = tile_frequencies(derive_rules(d, p, 1))
        except ValueError:
            print(f"  matrix for p={p} is not primitive (kappa variants "
                  "cycle); frequencies undefined")
            continue
        shown = ", ".join(f"{name} {value:.4f}"
                          for name, value in top_frequencies(freq))
        print(f"  p={p}: lambda = {lam:.6f} = iota^2; "
              f"top frequencies {shown}")


if __name__ == "__main__":
    main()
