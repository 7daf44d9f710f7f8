#!/usr/bin/env python3
"""Tabulate closed-form torus Alexander polynomials on the coprime grid
and cross-check the l = 2 column against the deformed integers.

The whole table is priced before its first row: a table whose values
would take more walk steps and terms than the work budget is refused,
with nothing on stdout.
"""

import argparse
from math import gcd

from pqcalc import alexander_torus, torus2_counterexamples
from pqcalc.cli import _int_arg
from pqcalc.laurent import _require_budget, _require_int
from pqcalc.torus import _product_form, _work


def table_pairs(bound):
    """The coprime pairs 2 <= n < l <= bound, in row order, once the sum
    of their values' walk steps and terms, each priced as
    ``alexander_torus`` prices it, is within the work budget.  The sum
    stops at the first pair that takes it past the budget."""
    pairs, work = [], 0
    for n in range(2, bound + 1):
        for l in range(n + 1, bound + 1):
            if gcd(n, l) != 1:
                continue
            m, g, _c, r, s = _product_form(n, l)
            work += _work(m, g, r, s)
            _require_budget(work, "walk steps and terms", "the table up to --bound {}", bound)
            pairs.append((n, l))
    return pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=_int_arg, default=7,
                    help="largest torus parameter (default 7)")
    args = ap.parse_args()
    try:
        _require_int("--bound", args.bound, 2)
        pairs = table_pairs(args.bound)
    except ValueError as exc:
        ap.error(str(exc))

    for n, l in pairs:
        print(f"D({n},{l}) = {alexander_torus(n, l)}")

    print()
    top = 2 * args.bound
    agree = torus2_counterexamples(top)[0] is None
    print(f"l = 2 column equals the alexander-fermionic integers up to "
          f"n = {top}: {agree}")


if __name__ == "__main__":
    main()
