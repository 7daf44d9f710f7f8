#!/usr/bin/env python3
"""Tabulate closed-form torus Alexander polynomials on the coprime grid
and cross-check the l = 2 column against the deformed integers."""

import argparse
from math import gcd

from pqcalc import alexander_torus, torus2_counterexamples
from pqcalc.cli import _int_arg
from pqcalc.laurent import _require_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=_int_arg, default=7,
                    help="largest torus parameter (default 7)")
    args = ap.parse_args()
    try:
        _require_int("--bound", args.bound, 2)
    except ValueError as exc:
        ap.error(str(exc))

    for n in range(2, args.bound + 1):
        for l in range(n + 1, args.bound + 1):
            if gcd(n, l) != 1:
                continue
            print(f"D({n},{l}) = {alexander_torus(n, l)}")

    print()
    top = 2 * args.bound
    agree = torus2_counterexamples(top)[0] is None
    print(f"l = 2 column equals the alexander-fermionic integers up to "
          f"n = {top}: {agree}")


if __name__ == "__main__":
    main()
