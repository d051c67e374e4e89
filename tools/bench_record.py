"""Record the benchmark's figures for every workload in one BENCH_*.json.

Run from a clean checkout's root, naming the file to write:

    python3 tools/bench_record.py BENCH_<n>.json [--against REV [--pairs N]]

The environment it records names the commit, not uncommitted edits, so
it exits nonzero before running anything if a tracked file is modified.

For each workload that BENCHMARK.json declares, it runs the benchmark
command from that file (``perfbench/run.py``) as a subprocess with
``--seed 0`` and the file's run length (``--seconds 30``), once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics).  It keeps the last stdout line of each run, which is the run's
JSON summary, and writes them together with the ``env:`` line of the
first run.  This takes about four minutes.

``--against REV`` also compares HEAD with commit REV.  REV's files are
exported with ``git archive`` into a temporary directory, which is removed
however the run ends.  For each workload it then runs ``--trace 0`` N
times on each side (default 10), in pairs with seeds 1..N; the odd pairs
run REV first and the even pairs HEAD first, so drift over time does not
favour one side.  Under ``against`` it writes every pair's summaries and,
per end-to-end metric, each side's values, median and quartiles, the
number of pairs in which HEAD is better than REV (ties count for
neither) and ``median_ratio``, HEAD's median over REV's (null when REV's
median is 0).  Each pair adds about 70 seconds per workload.  After
writing the file it prints one Markdown table row per workload and
end-to-end metric: REV's median → HEAD's median, ``median_ratio``,
HEAD's wins out of the pairs and the metric's ``bound`` from
BENCHMARK.json, marked where HEAD's median is worse than REV's by more
than that bound (relative to REV's median, in the metric's ``better``
direction).  A metric is marked unresolved instead when REV's own runs
spread wider than the bound (the distance between REV's quartiles,
relative to its median), as the pairs then cannot tell a change within
the bound from noise, unless every HEAD run is better than every REV run.
The row's last cell says whether HEAD meets the gain rule, which a claimed
speed-up must meet: HEAD wins at least nine tenths of the pairs (ties
count for neither), and its median is better than REV's by more than the
distance between REV's quartiles.  The default of ten pairs is the
fewest at which the rule allows one lost pair.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run(command, workload: str, trace: int, seconds: float,
        seed: int = SEED, cwd: Path = ROOT) -> tuple[dict, dict]:
    """One benchmark run in checkout ``cwd``: its environment and its JSON
    summary."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[len("env: "):]) for l in lines if l.startswith("env: "))
    return env, json.loads(lines[-1])


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile] of ``values``."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "quartiles": [q1, q3], "values": values}


def compare(end_to_end, pairs) -> dict:
    """Per end-to-end metric: each side's values, median and quartiles,
    HEAD's win count and the ratio of HEAD's median to REV's."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in ("rev", "head")
        }
        sides = {side: side_summary(v) for side, v in values.items()}
        rev_median = sides["rev"]["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "head_wins": sum(
                sign * (h - r) > 0 for r, h in zip(values["rev"], values["head"])
            ),
            "median_ratio": sides["head"]["median"] / rev_median if rev_median else None,
        }
    return out


def against(bench, rev: str, pairs: int) -> dict:
    """Alternating ``--trace 0`` pairs of commit ``rev`` and HEAD."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    workloads = []
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(tmp, filter="data")
        checkouts = {"rev": Path(tmp), "head": ROOT}
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for seed in range(1, pairs + 1):
                order = ("rev", "head") if seed % 2 else ("head", "rev")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"{workload} --seed {seed} {side}", file=sys.stderr, flush=True)
                    _, pair[side] = run(bench["command"], workload, 0,
                                        bench["run_seconds"], seed, checkouts[side])
                runs.append(pair)
            workloads.append({
                "workload": workload,
                "metrics": compare(bench["end_to_end"], runs),
                "pairs": runs,
            })
    return {"rev": sha, "pairs": pairs, "workloads": workloads}


def over_bound(m: dict, bound: float) -> bool:
    """Whether HEAD's median is worse than REV's by more than ``bound``
    times REV's median, in the metric's ``better`` direction."""
    sign = 1 if m["better"] == "higher" else -1
    rev = m["rev"]["median"]
    return sign * (rev - m["head"]["median"]) > bound * abs(rev)


def rev_spread(m: dict) -> float:
    """The distance between REV's quartiles relative to REV's median."""
    q1, q3 = m["rev"]["quartiles"]
    median = m["rev"]["median"]
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def head_dominates(m: dict) -> bool:
    """Whether every HEAD run is better than every REV run."""
    rev, head = m["rev"]["values"], m["head"]["values"]
    if m["better"] == "higher":
        return min(head) > max(rev)
    return max(head) < min(rev)


def meets_gain_rule(m: dict, pairs: int) -> bool:
    """Whether HEAD wins at least nine tenths of ``pairs`` and its median is
    better than REV's by more than the distance between REV's quartiles."""
    sign = 1 if m["better"] == "higher" else -1
    q1, q3 = m["rev"]["quartiles"]
    gain = sign * (m["head"]["median"] - m["rev"]["median"])
    return 10 * m["head_wins"] >= 9 * pairs and gain > q3 - q1


def markdown_rows(against: dict, end_to_end) -> list[str]:
    """The comparison as Markdown table rows, header included; ``end_to_end``
    is BENCHMARK.json's list, which holds each metric's bound."""
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    rows = ["| workload | metric | REV → HEAD median | ratio | HEAD wins | bound "
            "| gain rule |",
            "| --- | --- | --- | --- | --- | --- | --- |"]
    for w in against["workloads"]:
        for name, m in w["metrics"].items():
            ratio = "n/a" if m["median_ratio"] is None else f"{m['median_ratio']:.3f}"
            medians = f"{m['rev']['median']:.4g} → {m['head']['median']:.4g}"
            limit = bounds[name]
            spread = rev_spread(m)
            if head_dominates(m):
                verdict = f"{limit:.0%}: ok, every HEAD run better"
            elif spread > limit:
                verdict = f"**unresolved**: REV spread {spread:.0%} > {limit:.0%}"
            elif over_bound(m, limit):
                verdict = f"**worse by over {limit:.0%}**"
            else:
                verdict = f"{limit:.0%}: ok"
            rows.append(
                f"| {w['workload']} | {name} ({m['unit']}) | {medians} | {ratio} "
                f"| {m['head_wins']}/{against['pairs']} | {verdict} "
                f"| {'met' if meets_gain_rule(m, against['pairs']) else 'not met'} |"
            )
    return rows


def arguments() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the BENCH_*.json file to write")
    parser.add_argument("--against", metavar="REV",
                        help="also compare HEAD with this commit in alternating pairs")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload for --against (default 10)")
    return parser


def main(argv=None) -> int:
    parser = arguments()
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    if dirty:
        sys.exit(f"uncommitted changes; commit them first:\n{dirty}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    environment, runs = None, []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            print(f"{workload} --trace {trace}", file=sys.stderr, flush=True)
            env, summary = run(bench["command"], workload, trace, seconds)
            environment = environment or env
            runs.append({"workload": workload, "trace": trace, "summary": summary})
    record = {
        "environment": environment,
        "command": bench["command"],
        "seed": SEED,
        "seconds": seconds,
        "runs": runs,
    }
    if args.against:
        record["against"] = against(bench, args.against, args.pairs)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.against:
        print("\n".join(markdown_rows(record["against"], bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
