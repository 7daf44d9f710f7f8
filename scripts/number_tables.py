#!/usr/bin/env python3
"""Print the deformed integers [0]..[max_n] for every built-in family.

Handy for eyeballing how the six parameter choices shape the same
recurrence; the homfly rows are the alexander rows times a power of p.
Each row is printed as the recurrence stream makes it.
"""

import argparse
from itertools import islice

from pqcalc import Family, recurrence_numbers


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8, help="largest n (default 8)")
    args = ap.parse_args()
    if args.max_n < 1:
        ap.error("--max-n must be at least 1")

    for family in Family:
        print(f"== {family.value}")
        for n, value in enumerate(islice(recurrence_numbers(family), args.max_n + 1)):
            print(f"  [{n:2d}]  {value}")
        print()


if __name__ == "__main__":
    main()
