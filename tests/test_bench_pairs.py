"""The claim and regression rules of tools/bench_pairs.py."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
from bench_pairs import compare, failed_share  # noqa: E402

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_wins_and_a_gap_wider_than_the_parent_iqr_meet_the_claim():
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    verdict = compare(PARENT, change, lower_is_better=True, bound=0.25)
    assert verdict["change_better_pairs"] == 9
    assert verdict["claim_met"] and not verdict["regression"]


def test_eight_wins_do_not():
    change = [p - 0.1 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert not compare(PARENT, change, lower_is_better=True, bound=0.25)["claim_met"]


def test_a_gap_inside_the_parent_iqr_does_not():
    change = [p - 0.005 for p in PARENT]
    verdict = compare(PARENT, change, lower_is_better=True, bound=0.25)
    assert verdict["change_better_pairs"] == 10
    assert verdict["parent_iqr"] > 0.005 and not verdict["claim_met"]


def test_ties_count_for_neither_side():
    assert compare(PARENT, PARENT, lower_is_better=True, bound=None)["change_better_pairs"] == 0


@pytest.mark.parametrize("lower_is_better, factor", [(True, 1.3), (False, 0.7)])
def test_a_median_worse_than_the_bound_is_a_regression(lower_is_better, factor):
    change = [p * factor for p in PARENT]
    verdict = compare(PARENT, change, lower_is_better=lower_is_better, bound=0.25)
    assert verdict["regression"] and verdict["change_better_pairs"] == 0
    assert verdict["median_change_vs_parent"] == pytest.approx(factor - 1.0)


def test_a_parent_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    parent = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.0, 1.15, 0.95]
    change = [p * 1.05 for p in parent]
    verdict = compare(parent, change, lower_is_better=True, bound=0.1)
    assert verdict["parent_iqr"] / verdict["parent_q1_median_q3"][1] > 0.1
    assert verdict["regression"] == "unresolved"


def test_a_wide_parent_spread_is_resolved_when_every_change_run_wins():
    parent = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.0, 1.15, 0.95]
    change = [0.7] * 10
    assert compare(parent, change, lower_is_better=True, bound=0.1)["regression"] is False


def test_more_failed_operations_forfeit_the_claim():
    change = [p - 0.1 for p in PARENT]
    assert compare(PARENT, change, lower_is_better=True, bound=0.25, failed_shares=(0.0, 0.0))["claim_met"]
    verdict = compare(PARENT, change, lower_is_better=True, bound=0.25, failed_shares=(0.01, 0.02))
    assert not verdict["claim_met"]


def test_failed_share_pools_the_runs():
    runs = [{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 0}]
    assert failed_share(runs) == 0.025
    assert failed_share([]) == 0.0
