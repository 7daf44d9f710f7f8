#!/usr/bin/env python3
"""Print the deformed integers [0]..[max_n] for every built-in family.

Handy for eyeballing how the six parameter choices shape the same
recurrence; the homfly rows are the alexander rows times a power of p.
"""

import argparse

from pqcalc import Family, number_sequence


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8, help="largest n (default 8)")
    args = ap.parse_args()
    if args.max_n < 1:
        ap.error("--max-n must be at least 1")

    for family in Family:
        print(f"== {family.value}")
        for n, value in enumerate(number_sequence(family, args.max_n)):
            print(f"  [{n:2d}]  {value}")
        print()


if __name__ == "__main__":
    main()
