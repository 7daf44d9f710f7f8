"""The A/B summary of ``scripts/ab_pairs.py``, on canned runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def canned(parent, change):
    return [({"pass_s": p, "rate": 1 / p}, {"pass_s": c, "rate": 1 / c})
            for p, c in zip(parent, change)]


def test_a_clear_gain_holds_in_either_direction():
    parent = [0.100, 0.101, 0.099, 0.102, 0.100, 0.098, 0.101, 0.100, 0.099, 0.100]
    change = [p - 0.006 for p in parent]
    change[3] = 0.103  # one loss of ten is allowed
    rows = ab_pairs.summarize(canned(parent, change), END_TO_END)
    assert [row["metric"] for row in rows] == ["pass_s", "rate"]
    lower, higher = rows
    assert lower["parent_median"] == pytest.approx(0.100)
    assert lower["change_median"] == pytest.approx(0.094)
    assert lower["ratio"] == pytest.approx(0.94, abs=1e-3)
    assert lower["wins"] == higher["wins"] == 9
    assert lower["pairs"] == 10
    # quantiles(n=4) of the parent's runs: 0.099 and 0.101
    assert lower["parent_iqr"] == pytest.approx(0.002)
    assert lower["gain"] and higher["gain"]
    assert higher["ratio"] > 1


def test_ties_count_for_neither_side():
    parent = [0.1] * 10
    rows = ab_pairs.summarize(canned(parent, list(parent)), END_TO_END)
    assert [(row["wins"], row["ratio"], row["parent_iqr"], row["gain"]) for row in rows] == [
        (0, 1.0, 0.0, False), (0, 1.0, 0.0, False)
    ]


@pytest.mark.parametrize(
    "parent, change, why",
    [
        ([0.10] * 9, [0.09] * 9, "fewer than ten pairs"),
        ([0.10] * 10, [0.09] * 8 + [0.11] * 2, "wins in only 8 of 10 pairs"),
        ([0.090, 0.095, 0.100, 0.105, 0.110] * 2,
         [0.089, 0.094, 0.099, 0.104, 0.109] * 2, "a difference inside the parent's IQR"),
    ],
)
def test_no_gain_without_every_condition(parent, change, why):
    (row, _) = ab_pairs.summarize(canned(parent, change), END_TO_END)
    assert row["change_median"] < row["parent_median"]
    assert not row["gain"], why
