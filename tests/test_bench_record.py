"""The benchmark's verdict code in tools/bench_record.py: the per-metric
comparison of two commits' runs and the Markdown table built from it."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _metric(name, better, bound=0.25):
    return {"name": name, "unit": "u", "better": better, "bound": bound}


def _pairs(name, rev, head):
    """One run summary per side and pair, holding metric ``name``."""
    return [
        {side: {"metrics": {name: {"value": v}}} for side, v in (("rev", r), ("head", h))}
        for r, h in zip(rev, head, strict=True)
    ]


def _compared(better, rev, head, bound=0.25):
    metric = _metric("x", better, bound)
    return bench_record.compare([metric], _pairs("x", rev, head))["x"], metric


def _verdict(better, rev, head, bound=0.25):
    """The verdict and ratio cells of the one table row for these runs."""
    m, metric = _compared(better, rev, head, bound)
    against = {"pairs": len(rev), "workloads": [{"workload": "w", "metrics": {"x": m}}]}
    header, rule, row = bench_record.markdown_rows(against, [metric])
    assert header.startswith("| workload | metric |") and rule.startswith("| ---")
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[:2] == ["w", "x (u)"]
    return cells[5], cells[3]


def test_compare_summarises_each_side_and_counts_wins():
    m, _ = _compared("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 3.0, 3.5, 4.0])
    assert m["rev"] == {
        "median": 3.0, "quartiles": [2.0, 4.0], "values": [1.0, 2.0, 3.0, 4.0, 5.0]
    }
    assert m["head"]["median"] == 3.0
    # lower is better: pairs 1, 4 and 5 are HEAD wins, pair 3 is a tie
    assert m["head_wins"] == 3
    assert m["median_ratio"] == 1.0
    assert (m["unit"], m["better"]) == ("u", "lower")


def test_compare_direction_and_ties():
    rev, head = [10.0, 10.0, 10.0], [12.0, 10.0, 8.0]
    # a tie counts for neither side in either direction
    assert _compared("higher", rev, head)[0]["head_wins"] == 1
    assert _compared("lower", rev, head)[0]["head_wins"] == 1
    assert _compared("higher", rev, rev)[0]["head_wins"] == 0


def test_compare_ratio_is_none_when_the_parent_median_is_zero():
    m, _ = _compared("higher", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert m["median_ratio"] is None
    m, _ = _compared("lower", [2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert m["median_ratio"] == 0.5


def test_over_bound_in_each_direction():
    # lower is better: a median 30% above the parent's is over a 25% bound
    assert bench_record.over_bound(_compared("lower", [10.0] * 3, [13.0] * 3)[0], 0.25)
    assert not bench_record.over_bound(_compared("lower", [10.0] * 3, [12.0] * 3)[0], 0.25)
    assert not bench_record.over_bound(_compared("lower", [10.0] * 3, [5.0] * 3)[0], 0.25)
    # higher is better: a median 30% below the parent's is over the bound
    assert bench_record.over_bound(_compared("higher", [10.0] * 3, [7.0] * 3)[0], 0.25)
    assert not bench_record.over_bound(_compared("higher", [10.0] * 3, [8.0] * 3)[0], 0.25)
    assert not bench_record.over_bound(_compared("higher", [10.0] * 3, [20.0] * 3)[0], 0.25)


def test_rev_spread():
    m, _ = _compared("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [1.0] * 5)
    assert bench_record.rev_spread(m) == pytest.approx(2.0 / 3.0)
    # a zero median: no spread if the quartiles agree, else an infinite one
    assert bench_record.rev_spread(_compared("higher", [0.0] * 3, [1.0] * 3)[0]) == 0.0
    m, _ = _compared("higher", [-1.0, 0.0, 0.0, 1.0, 2.0], [1.0] * 5)
    assert bench_record.rev_spread(m) == float("inf")


def test_head_dominates_in_each_direction():
    rev, head = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    assert bench_record.head_dominates(_compared("higher", rev, head)[0])
    assert not bench_record.head_dominates(_compared("lower", rev, head)[0])
    assert bench_record.head_dominates(_compared("lower", head, rev)[0])
    # one tie between the best parent run and the worst change run is not
    # domination
    assert not bench_record.head_dominates(_compared("higher", [1.0, 3.0], [3.0, 4.0])[0])


def test_markdown_verdicts():
    # within the bound, and worse by more than the bound, on tight runs
    assert _verdict("lower", [10.0, 10.1, 10.2], [11.0, 11.1, 11.2]) == ("25%: ok", "1.099")
    verdict, ratio = _verdict("lower", [10.0, 10.1, 10.2], [14.0, 14.1, 14.2])
    assert verdict == "**worse by over 25%**" and ratio == "1.396"
    verdict, _ = _verdict("higher", [10.0, 10.1, 10.2], [7.0, 7.1, 7.2])
    assert verdict == "**worse by over 25%**"
    assert _verdict("higher", [10.0, 10.1, 10.2], [9.0, 9.1, 9.2])[0] == "25%: ok"


def test_markdown_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # the parent's quartiles lie 100% of its median apart, so even a change
    # that is far worse is reported as unresolved, not as worse
    rev = [5.0, 5.0, 10.0, 15.0, 15.0]
    verdict, _ = _verdict("lower", rev, [20.0, 20.0, 20.0, 20.0, 20.0])
    assert verdict == "**unresolved**: REV spread 100% > 25%"
    verdict, _ = _verdict("lower", rev, [9.0, 9.0, 9.0, 12.0, 12.0])
    assert verdict.startswith("**unresolved**")


def test_markdown_ok_when_every_change_run_is_better_despite_a_wide_spread():
    rev = [5.0, 5.0, 10.0, 15.0, 15.0]
    assert _verdict("lower", rev, [1.0, 1.0, 2.0, 4.0, 4.9]) == (
        "25%: ok, every HEAD run better",
        "0.200",
    )
    assert _verdict("higher", rev, [16.0, 17.0, 18.0, 19.0, 20.0])[0] == (
        "25%: ok, every HEAD run better"
    )


def test_markdown_ratio_is_na_when_the_parent_median_is_zero():
    verdict, ratio = _verdict("higher", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert (verdict, ratio) == ("25%: ok", "n/a")


def test_markdown_ties_count_for_neither_side():
    m, metric = _compared("lower", [1.0, 2.0, 3.0], [1.0, 2.0, 2.5])
    against = {"pairs": 3, "workloads": [{"workload": "w", "metrics": {"x": m}}]}
    row = bench_record.markdown_rows(against, [metric])[2]
    assert "| 1/3 |" in row


_REV = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


def _gain_cell(better, rev, head):
    """The gain-rule cell of the one table row for these runs."""
    m, metric = _compared(better, rev, head)
    against = {"pairs": len(rev), "workloads": [{"workload": "w", "metrics": {"x": m}}]}
    header, _, row = bench_record.markdown_rows(against, [metric])
    assert header.endswith("| gain rule |")
    return row.strip("|").split("|")[-1].strip()


def test_gain_rule_met_with_nine_wins_and_a_gain_past_the_parent_spread():
    # the parent's quartiles lie 0.45 apart; HEAD is 2 lower in every pair
    # but the last, which it loses, or in the higher direction 2 higher
    head = [v - 2.0 for v in _REV[:-1]] + [11.0]
    assert _gain_cell("lower", _REV, head) == "met"
    assert _gain_cell("higher", _REV, [v + 2.0 for v in _REV[:-1]] + [10.0]) == "met"
    # a tie counts for neither side, so nine wins and a tie still meet it
    assert _gain_cell("lower", _REV, head[:-1] + [_REV[-1]]) == "met"


def test_gain_rule_not_met_with_eight_wins_or_a_gain_within_the_spread():
    # eight wins and two ties of ten
    head = [v - 2.0 for v in _REV[:8]] + _REV[8:]
    assert _gain_cell("lower", _REV, head) == "not met"
    # ten wins, but the medians differ by 0.1, within the 0.45 spread
    assert _gain_cell("lower", _REV, [v - 0.1 for v in _REV]) == "not met"
    # ten wins in the other direction are ten losses
    assert _gain_cell("higher", _REV, [v - 2.0 for v in _REV]) == "not met"


def test_pairs_default_to_ten():
    # the fewest pairs at which the gain rule allows one loss
    assert bench_record.arguments().parse_args(["out.json"]).pairs == 10
