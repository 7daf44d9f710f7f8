#!/usr/bin/env python3
"""Print the deformed integers [0]..[max_n] for every built-in family.

Handy for eyeballing how the six parameter choices shape the same
recurrence; the homfly rows are the alexander rows times a power of p.
Each family's rows come from ``number_sequence``, whose meter refuses a
table past the work budget before its header is printed.
"""

import argparse

from pqcalc import Family, number_sequence
from pqcalc.cli import _int_arg
from pqcalc.laurent import _require_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=_int_arg, default=8, help="largest n (default 8)")
    args = ap.parse_args()
    try:
        _require_int("--max-n", args.max_n, 1, counts=True)
    except ValueError as exc:
        ap.error(str(exc))

    for family in Family:
        try:
            rows = number_sequence(family, args.max_n)
        except ValueError as exc:
            ap.error(str(exc))
        print(f"== {family.value}")
        for n, value in enumerate(rows):
            print(f"  [{n:2d}]  {value}")
        print()


if __name__ == "__main__":
    main()
