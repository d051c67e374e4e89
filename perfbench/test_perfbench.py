"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import csv
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import summary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from synth import RawLogSpec, expected_curriculum, expected_curves, write_raw_log  # noqa: E402


def brute_force_curves(raw_path, boundaries_path):
    """Latest record at or before each phase end, scanned row by row."""
    doc = json.loads(Path(boundaries_path).read_text())
    starts = [s for s, _ in doc["boundaries"]]
    records = {}
    with open(raw_path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.setdefault(row["algorithm"], []).append(
                (int(row["global_step"]), row["task"], float(row["metric"]))
            )
    rows = []
    for algo, recs in records.items():
        last_step = max(s for s, _, _ in recs)
        ends = [s - 1 for s in starts[1:]] + [last_step]
        table = []
        for end in ends:
            latest = {}
            for step, task, value in recs:
                if step <= end:
                    latest[task] = value
            table.append([latest[t] for t in doc["tasks"]])
        for j in range(len(doc["tasks"])):
            col = [row[j] for row in table]
            lo, hi = min(col), max(col)
            for row in table:
                row[j] = (row[j] - lo) / (hi - lo)
        for l, row in enumerate(table):
            rows += [(algo, l, t, v) for t, v in zip(doc["tasks"], row)]
    return rows


@pytest.mark.parametrize("log_every", [10, 7])
def test_ingest_oracle_matches_brute_force_and_program(tmp_path, log_every):
    from latentperf import cli

    spec = RawLogSpec(n_tasks=3, n_algos=2, phases=6, phase_len=50, log_every=log_every)
    raw, bounds = tmp_path / "raw.csv", tmp_path / "b.json"
    truth = write_raw_log(raw, bounds, spec, seed=5)
    expected = expected_curves(truth)
    assert sum(1 for _ in open(raw)) == spec.rows + 1
    assert expected == brute_force_curves(raw, bounds)

    out, cur = tmp_path / "curves.csv", tmp_path / "cur.json"
    code = cli.main([
        "ingest", "--raw", str(raw), "--boundaries", str(bounds),
        "--out", str(out), "--curriculum-out", str(cur),
    ])
    assert code == 0
    assert workloads.compare_curves(out, expected) == []
    assert json.loads(cur.read_text()) == expected_curriculum(truth)


def test_synthesis_is_deterministic_per_seed(tmp_path):
    spec = RawLogSpec(n_tasks=2, n_algos=1, phases=3, phase_len=20, log_every=5)
    paths = [(tmp_path / f"r{i}.csv", tmp_path / f"b{i}.json") for i in range(3)]
    for (raw, b), seed in zip(paths, (1, 1, 2)):
        write_raw_log(raw, b, spec, seed)
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][0].read_bytes() != paths[2][0].read_bytes()


def test_compare_curves_flags_extra_missing_and_changed_rows(tmp_path):
    path = tmp_path / "c.csv"
    want = [("a", 0, "t", 0.5), ("a", 1, "t", 1.0)]

    def write(rows):
        path.write_text(
            "algorithm,step,task,performance\n"
            + "".join(f"{a},{s},{t},{v!r}\n" for a, s, t, v in rows)
        )
        return workloads.compare_curves(path, want)

    assert write(want) == []
    assert write(want + [("a", 2, "t", 0.0)])
    assert write(want[:1])
    assert write([want[0], ("a", 1, "t", 0.9999999999999999)])


def test_summary_median_quartiles_and_tail():
    xs = [float(x) for x in range(1, 40)]
    s = summary.summarize(reversed(xs))
    assert s["n"] == 39 and s["median"] == 20.0
    q = statistics.quantiles(xs, n=4)
    assert (s["q1"], s["q3"]) == (q[0], q[2])
    assert s["tail_pct"] is None and s["tail"] is None

    assert summary.summarize([3.0]) == {
        "n": 1, "median": 3.0, "q1": 3.0, "q3": 3.0, "tail_pct": None, "tail": None,
    }
    # the tail is the highest percentile with at least ten samples above it
    for n, pct, tail in (
        (40, 75.0, 30), (100, 90.0, 90), (199, 90.0, 180), (200, 95.0, 190),
        (1000, 99.0, 990), (10000, 99.9, 9990),
    ):
        s = summary.summarize(range(1, n + 1))
        assert (s["tail_pct"], s["tail"]) == (pct, tail)
    with pytest.raises(ValueError):
        summary.summarize([])


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("parent", 0.0, 10.0),
        S("a", 1.0, 3.0, parent=0),
        S("b", 2.0, 5.0, parent=0),  # overlaps a
        S("c", 7.0, 8.0, parent=0),
        S("d", 9.0, 12.0, parent=0),  # runs past its parent
        S("grandchild", 7.2, 7.8, parent=3),
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert tracing.self_time(spans, 3) == pytest.approx(0.4)
    assert tracing.self_time(spans, 5) == pytest.approx(0.6)


def test_total_time_counts_recursive_calls_once():
    S = tracing.Span
    spans = [S("f", 0.0, 4.0), S("f", 1.0, 2.0, parent=0), S("f", 5.0, 6.0)]
    assert tracing.total_time(spans, "f") == pytest.approx(5.0)
    assert tracing.counts(spans) == {"f": 3}


def test_traced_sees_calls_where_callers_look_them_up(tmp_path):
    from latentperf import cli, scenarios

    original = cli.generate_scenario
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.generate_scenario is not original
        code = cli.main([
            "generate", "--tasks", "2", "--algos", "1", "--length", "3",
            "--out", str(tmp_path),
        ])
    assert code == 0
    assert cli.generate_scenario is original and scenarios.generate is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main"
    for name in ("scenarios.generate", "model.simulate_all", "dataio.write_curves"):
        assert name in names
    by_name = {s.name: s for s in tracer.spans}
    assert tracer.spans[by_name["scenarios.generate"].parent].name == "cli.main"
    assert tracer.spans[by_name["model.simulate_all"].parent].name == "scenarios.generate"
    assert by_name["dataio.write_curves"].attrs["rows"] == 6


TABLE = """| parameter | mse | threshold | ok |
| --- | --- | --- | --- |
| transfer | 0.3270 | 0.24 | no |
| difficulty | 0.1280 | 0.08 | no |
| gamma | 0.0300 | 0.04 | yes |
| h | 0.0890 | 0.02 | no |
| lambda | 0.1930 | 0.05 | no |
{skipped}
FAIL ({ok}/{total} trials)
"""
BOUNDS = {"transfer": 0.24, "difficulty": 0.08, "gamma": 0.04, "h": 0.02, "lambda": 0.05}


def test_recover_table_parser_accepts_the_gate_and_rejects_damage():
    good = workloads.parse_recover_table(TABLE.format(skipped="", ok=20, total=20), BOUNDS)
    assert good["errors"] == [] and good["verdict"] == "FAIL"
    assert good["mse"]["h"] == 0.089

    skipped = "skipped 2 diverged trial(s) of 20"
    t = workloads.parse_recover_table(TABLE.format(skipped=skipped, ok=18, total=20), BOUNDS)
    assert t["errors"] == [] and t["succeeded"] == 18

    bad = [
        TABLE.format(skipped="", ok=18, total=20),  # diverged trials not reported
        TABLE.format(skipped="", ok=20, total=20).replace("| gamma | 0.0300 |", "| gamma | oops |"),
        TABLE.format(skipped="", ok=20, total=20).replace("FAIL", "PASS"),
        TABLE.format(skipped="", ok=20, total=20).replace("0.0300 | 0.04 | yes", "0.0500 | 0.04 | yes"),
        "Traceback (most recent call last):\n",
    ]
    for text in bad:
        assert workloads.parse_recover_table(text, BOUNDS)["errors"], text


def test_metric_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
