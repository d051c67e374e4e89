"""Record the benchmark's figures for every workload in one BENCH_*.json.

Run from a clean checkout's root, naming the file to write:

    python3 tools/bench_record.py BENCH_<n>.json

The environment it records names the commit, not uncommitted edits, so
it exits nonzero before running anything if a tracked file is modified.

For each workload that BENCHMARK.json declares, it runs the benchmark
command from that file (``perfbench/run.py``) as a subprocess with
``--seed 0`` and the file's run length (``--seconds 30``), once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1`` (per-layer
metrics).  It keeps the last stdout line of each run, which is the run's
JSON summary, and writes them together with the ``env:`` line of the
first run.  This takes about four minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run(command, workload: str, trace: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its environment and its JSON summary."""
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[len("env: "):]) for l in lines if l.startswith("env: "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
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
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
