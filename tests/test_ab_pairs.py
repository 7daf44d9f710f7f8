"""The A/B summary of ``scripts/ab_pairs.py``, on canned runs; no benchmark runs."""

import importlib.util
import json
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


def canned(parent, change, failed=(0, 0), attempted=(100, 100)):
    # runs of the two sides; each run attempts ``attempted`` operations and
    # fails ``failed`` of them, (parent, change)
    return [({"pass_s": p, "rate": 1 / p, "failed": failed[0], "attempted": attempted[0]},
             {"pass_s": c, "rate": 1 / c, "failed": failed[1], "attempted": attempted[1]})
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


CLEAR_GAIN = ([0.100, 0.101, 0.099, 0.102, 0.100, 0.098, 0.101, 0.100, 0.099, 0.100],
              [0.094, 0.095, 0.093, 0.096, 0.094, 0.092, 0.095, 0.094, 0.093, 0.094])


def test_failures_sum_each_side():
    pairs = canned(*CLEAR_GAIN, failed=(1, 2), attempted=(40, 30))
    assert ab_pairs.failures(pairs) == {"parent": (10, 400), "change": (20, 300)}


@pytest.mark.parametrize(
    "failed, attempted, gain",
    [
        ((0, 0), (100, 100), True),
        # a larger failed share on the change's side refuses the gain
        ((0, 1), (100, 100), False),
        ((1, 2), (100, 100), False),
        ((1, 1), (100, 90), False),
        # an equal or smaller share does not
        ((1, 1), (100, 100), True),
        ((2, 1), (100, 100), True),
        ((1, 1), (90, 100), True),
    ],
)
def test_no_gain_where_the_change_fails_a_larger_share(failed, attempted, gain):
    rows = ab_pairs.summarize(canned(*CLEAR_GAIN, failed, attempted), END_TO_END)
    assert [row["gain"] for row in rows] == [gain, gain]
    assert [row["wins"] for row in rows] == [10, 10]


WIDE = [0.05, 0.06, 0.08, 0.10, 0.10, 0.10, 0.12, 0.14, 0.15, 0.10]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        # a gain, and no change, are within the bound
        (CLEAR_GAIN[0], CLEAR_GAIN[1], "within bound"),
        (CLEAR_GAIN[0], CLEAR_GAIN[0], "within bound"),
        # 20% worse is within a bound of 0.25, 40% worse is not
        ([0.100] * 10, [0.120] * 10, "within bound"),
        ([0.100] * 10, [0.140] * 10, "worse than bound"),
        # the parent's IQR is 0.05 around a median of 0.1, wider than
        # 0.25 times it: its runs could not show a change of 25% either way
        (WIDE, [0.100] * 10, "unresolved"),
        (WIDE, [0.200] * 10, "unresolved"),
        # unless every change run beats every parent run
        (WIDE, [0.040] * 10, "within bound"),
    ],
)
def test_one_verdict_per_metric_against_its_bound(parent, change, verdict):
    (lower, higher) = ab_pairs.summarize(canned(parent, change), END_TO_END)
    assert lower["bound"] == 0.25
    assert lower["verdict"] == verdict
    if parent is WIDE:
        assert lower["parent_iqr"] == pytest.approx(0.05)
    if verdict != "unresolved":
        # pass_s and its reciprocal, read in the other direction, agree
        # wherever the spread resolves the bound
        assert higher["verdict"] == verdict


def test_every_run_of_every_pair_has_the_one_seed(tmp_path, monkeypatch, capsys):
    # two checkouts with the same stub benchmark; _run records each call
    # in place of running it
    sides = {}
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text("raise SystemExit(2)\n")
        (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
        sides[checkout.resolve()] = side
    calls = []

    def record(checkout, workload, seed, seconds):
        calls.append((sides[checkout], workload, seed, seconds))
        return {"metrics": {"pass_s": {"value": 0.1}, "rate": {"value": 10.0}},
                "failed": 0, "attempted": 1}

    monkeypatch.setattr(ab_pairs, "_run", record)
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                          "verify", "--pairs", "10", "--seconds", "2", "--seed", "7"]) == 0
    assert "verify: 10 pairs of 2 s runs" in capsys.readouterr().out
    assert len(calls) == 20
    assert {call[1:] for call in calls} == {("verify", 7, 2.0)}
    # the parent runs first in even pairs, the change in odd ones
    assert [calls[2 * i][0] for i in range(10)] == ["parent", "change"] * 5
    assert [calls[2 * i + 1][0] for i in range(10)] == ["change", "parent"] * 5
