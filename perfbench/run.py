"""latentperf benchmark: one workload, measured end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload recover-gate --seed 1 --seconds 30 --trace 0

Workloads are ``recover-gate``, ``fit-large`` and ``ingest-dense`` (see
workloads.py for what each stresses and why).  The seed fixes every input;
confirm a claimed gain on a seed that was not used while the change was
written.

Each run is one fresh single-threaded Python process.  BLAS and OpenMP pools
are capped at one thread before numpy loads, and the CLI runs in-process
through ``latentperf.cli.main(argv)`` with no worker pool.  Import time is
the one exception: a module imports once per process, so ``setup_s`` is the
median over short-lived interpreters started one after another, each timing
``import latentperf, latentperf.cli``.

``--trace 0`` repeats the workload's command until ``--seconds`` is used up
(at least twice), checks every output, and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced commands, requires their
outputs to be byte-identical, probes the core functions at the workload's
problem size, and prints the per-layer metrics.  The last stdout line is
one JSON object; the lines before it repeat the figures for people, and a
copy with the environment and the spans goes to .perfbench/results/.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Must happen before anything imports numpy.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import tracing
from summary import describe, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 7
MIN_COMMANDS = 2
# Stop starting commands once the next one would end past this, so a run
# exits well inside three minutes even when the program gets much slower.
HARD_LIMIT_S = 140.0
PROBE_BUDGET_S = 2.0
# Lengths of the two probe fits whose time difference gives one step.
PROBE_FIT_STEPS = (1, 11)
PROBE_METRICS = (
    "estimator.gradient.call_us",
    "estimator.gradient.phase_us",
    "estimator.loss.call_us",
    "estimator.fit.step_overhead_us",
    "model.simulate_all.call_us",
    "model.simulate_all.phase_us",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "op/s",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "estimator.fit_s": "s",
    "estimator.fit.calls": "count",
    "estimator.fit.steps": "count",
    "estimator.fit.step_us": "us",
    "estimator.fit.step_overhead_us": "us",
    "estimator.fit.diverged": "count",
    "estimator.fit.still_descending": "count",
    "estimator.gradient.call_us": "us",
    "estimator.gradient.phase_us": "us",
    "estimator.loss.call_us": "us",
    "estimator.recovery_experiment_s": "s",
    "estimator.parameter_recovery_errors_s": "s",
    "estimator.recovery_mse_max_ratio": "ratio",
    "estimator.fit_mse": "mse",
    "model.simulate_all_s": "s",
    "model.simulate_all.calls": "count",
    "model.simulate_all.call_us": "us",
    "model.simulate_all.phase_us": "us",
    "scenarios.generate_s": "s",
    "scenarios.generate.calls": "count",
    "dataio.parse_raw_log_s": "s",
    "dataio.parse_raw_log.rows_per_s": "1/s",
    "dataio.downsample_to_boundaries_s": "s",
    "dataio.downsample_to_boundaries.calls": "count",
    "dataio.normalize_minmax_s": "s",
    "dataio.load_dataset_s": "s",
    "dataio.write_curves_s": "s",
    "dataio.write_curves.rows": "count",
    "dataio.write_params_s": "s",
    "reporting.tables_s": "s",
    "trace.overhead_ratio": "ratio",
}

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import latentperf, latentperf.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


class TraceMismatch(RuntimeError):
    """The traced call structure is not the one the workload expects."""


@dataclass
class Outcome:
    k: int
    traced: bool
    wall: float
    cpu: float
    code: object
    digest: str
    errors: list = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    values: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def import_seconds() -> float:
    """Time ``import latentperf, latentperf.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing latentperf failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def digest(code, stdout: str, files) -> str:
    h = hashlib.sha256(f"{code!r}\0{stdout}\0".encode())
    for i, path in enumerate(files):
        h.update(f"{i}\0".encode())
        try:
            h.update(path.read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_command(wl, k: int, reference: Outcome | None, tracer=None) -> Outcome:
    """Run command k in-process, time it, and check its outputs."""
    from latentperf import cli

    argv = wl.argv(k)
    out, err = io.StringIO(), io.StringIO()
    crash = None
    gc.collect()
    with tracing.traced(tracer) if tracer is not None else nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, crash = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    files = wl.output_files(k)
    o = Outcome(k, tracer is not None, wall, cpu, code, digest(code, out.getvalue(), files))
    if tracer is not None:
        o.spans = tracer.spans
    if reference is not None and crash is None and o.digest == reference.digest:
        # same bytes as a checked command, so the same verdict
        o.errors, o.values = list(reference.errors), reference.values
        o.attempted, o.failed = reference.attempted, reference.failed
    else:
        if crash is not None:
            o.errors = [f"traceback in {argv[0]}: {crash.strip().splitlines()[-1]}"]
            sys.stderr.write(crash)
        else:
            o.errors, extra_attempted, o.failed, o.values = wl.check(
                k, code, out.getvalue()
            )
            o.attempted += extra_attempted
            if reference is not None:
                o.errors.append(
                    f"output of command {k} differs from command {reference.k}"
                )
        if o.errors:
            o.failed += 1
            if err.getvalue():
                o.errors.append("stderr: " + err.getvalue().strip()[:500])
    for path in files:
        if path.exists():
            path.unlink()
    return o


def measure(wl, seconds: float, trace: bool) -> list[Outcome]:
    """Run commands (pairs of untraced and traced ones with ``trace``)
    until the next would end past ``seconds``."""
    outcomes: list[Outcome] = []
    reference = None
    start = time.perf_counter()
    rounds = 0
    while True:
        o = run_command(wl, len(outcomes), reference)
        outcomes.append(o)
        reference = reference or o
        if trace:
            t = run_command(wl, len(outcomes), reference, tracing.Tracer())
            check_span_counts(wl, t)
            outcomes.append(t)
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        min_rounds = 1 if trace else MIN_COMMANDS
        if elapsed + per_round > HARD_LIMIT_S:
            break
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
    return outcomes


def check_span_counts(wl, o: Outcome) -> None:
    if o.errors:
        return  # a failed command is already counted; its spans may be partial
    got = tracing.counts(o.spans)
    for name, want in wl.expected_spans(o.values).items():
        if got.get(name, 0) != want:
            raise TraceMismatch(
                f"{wl.name}: expected {want} {name} span(s) per command, got "
                f"{got.get(name, 0)}; the benchmark's tracing no longer matches "
                "the program and must be updated"
            )


def run_probes(spec) -> dict:
    """Per-call times of the core functions at one problem size.

    The cost of one fit step is the time difference between fits of
    ``PROBE_FIT_STEPS`` that differ only in length, which cancels the fit's
    fixed set-up and final evaluation.  Every function is timed once per
    round, so all estimates come from the same stretch of time and the
    difference between a step and a gradient call is not swamped by the
    machine's speed drifting between them.
    """
    from latentperf import (
        FitConfig, ScenarioSpec, fit, generate, gradient, loss, simulate_all,
    )

    n, p, m, noise, seed = spec
    params, curriculum, observed = generate(
        ScenarioSpec(n_tasks=n, n_algos=p, curriculum_len=m, seed=seed, noise_std=noise)
    )
    short, long = (FitConfig(steps=k, seed=seed) for k in PROBE_FIT_STEPS)

    def seconds(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    rounds = []
    stop = time.perf_counter() + PROBE_BUDGET_S
    while len(rounds) < 3 or (time.perf_counter() < stop and len(rounds) < 200):
        g = seconds(lambda: gradient(params, curriculum, observed))
        step = (
            seconds(lambda: fit(curriculum, observed, long))
            - seconds(lambda: fit(curriculum, observed, short))
        ) / (long.steps - short.steps)
        rounds.append({
            "estimator.gradient.call_us": g,
            "estimator.loss.call_us": seconds(lambda: loss(params, curriculum, observed)),
            "model.simulate_all.call_us": seconds(lambda: simulate_all(params, curriculum)),
            "estimator.fit.step_overhead_us": step - g,
        })
    out = {k: 1e6 * statistics.median(r[k] for r in rounds) for k in rounds[0]}
    out["estimator.gradient.phase_us"] = out["estimator.gradient.call_us"] / m
    out["model.simulate_all.phase_us"] = out["model.simulate_all.call_us"] / m
    return out


def layer_metrics(o: Outcome) -> dict:
    """Per-layer figures for one traced command."""
    spans = o.spans
    n = tracing.counts(spans)

    def busy(name):
        return tracing.total_time(spans, name)

    fits = [s for s in spans if s.name == "estimator.fit"]
    steps = sum(s.attrs.get("steps", 0) for s in fits)
    parse_s = busy("dataio.parse_raw_log")
    rows = sum(s.attrs.get("rows", 0) for s in spans if s.name == "dataio.parse_raw_log")
    return {
        "cli.self_s": sum(
            tracing.self_time(spans, i) for i, s in enumerate(spans) if s.name == "cli.main"
        ),
        "estimator.fit_s": busy("estimator.fit"),
        "estimator.fit.calls": n.get("estimator.fit", 0),
        "estimator.fit.steps": steps,
        "estimator.fit.step_us": 1e6 * busy("estimator.fit") / steps if steps else 0.0,
        "estimator.fit.diverged": sum(
            1 for s in fits if s.attrs.get("error") == "DivergenceError"
        ),
        "estimator.fit.still_descending": sum(
            1 for s in fits if s.attrs.get("still_descending")
        ),
        "estimator.recovery_experiment_s": busy("estimator.recovery_experiment"),
        "estimator.parameter_recovery_errors_s": busy("estimator.parameter_recovery_errors"),
        "estimator.recovery_mse_max_ratio": o.values.get("recover_mse_max_ratio", 0.0),
        "estimator.fit_mse": o.values.get("fit_mse", 0.0),
        "model.simulate_all_s": busy("model.simulate_all"),
        "model.simulate_all.calls": n.get("model.simulate_all", 0),
        "scenarios.generate_s": busy("scenarios.generate"),
        "scenarios.generate.calls": n.get("scenarios.generate", 0),
        "dataio.parse_raw_log_s": parse_s,
        "dataio.parse_raw_log.rows_per_s": rows / parse_s if parse_s else 0.0,
        "dataio.downsample_to_boundaries_s": busy("dataio.downsample_to_boundaries"),
        "dataio.downsample_to_boundaries.calls": n.get("dataio.downsample_to_boundaries", 0),
        "dataio.normalize_minmax_s": busy("dataio.normalize_minmax"),
        "dataio.load_dataset_s": busy("dataio.load_dataset"),
        "dataio.write_curves_s": busy("dataio.write_curves"),
        "dataio.write_curves.rows": sum(
            s.attrs.get("rows", 0) for s in spans if s.name == "dataio.write_curves"
        ),
        "dataio.write_params_s": busy("dataio.write_params"),
        "reporting.tables_s": sum(
            busy(f"reporting.{t}_table") for t in ("property", "transfer", "difficulty")
        ),
    }


def per_layer(wl, outcomes: list[Outcome]) -> dict:
    traced = [o for o in outcomes if o.traced and not o.errors]
    plain = [o for o in outcomes if not o.traced and not o.errors]
    if not traced or not plain:
        return {}
    rows = [layer_metrics(o) for o in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    spec = wl.probe_spec()
    out.update(run_probes(spec) if spec is not None else dict.fromkeys(PROBE_METRICS, 0.0))
    out["trace.overhead_ratio"] = (
        statistics.median(o.wall for o in traced) / statistics.median(o.wall for o in plain)
        - 1.0
    )
    return out


def end_to_end(wl, outcomes: list[Outcome], setup: list[float]) -> dict:
    ok = [o for o in outcomes if not o.errors]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    timed = ok or outcomes
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(o.wall for o in timed),
        "cpu_s": statistics.median(o.cpu for o in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": statistics.median(wl.work / o.wall for o in timed),
        "ok_share": 1.0 - failed / attempted,
    }


def report_lines(wl, outcomes, metrics, setup, trace: bool) -> list[str]:
    lines = []
    if not trace:
        lines.append(describe("setup_s", "s", summarize(setup)))
        lines.append(describe("wall_s", "s", summarize([o.wall for o in outcomes])))
        lines.append(describe("cpu_s", "s", summarize([o.cpu for o in outcomes])))
        lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
        lines.append(
            f"{wl.throughput_name} (ops_per_s): {metrics['ops_per_s']:.6g} "
            f"{wl.work_unit}/s, {wl.work} per command"
        )
        lines.append(f"failed_share: {1.0 - metrics['ok_share']:.6g}")
        for key in ("recover_mse_max_ratio", "fit_mse"):
            vals = [o.values[key] for o in outcomes if key in o.values]
            if vals:
                lines.append(f"{key}: {statistics.median(vals)!r}")
    else:
        for name, value in metrics.items():
            lines.append(f"{name}: {value:.6g} {PER_LAYER_UNITS[name]}")
    for o in outcomes:
        for e in o.errors:
            lines.append(f"FAILED command {o.k}{' (traced)' if o.traced else ''}: {e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "latentperf" / "cli.py").is_file():
        print(f"error: no latentperf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = [import_seconds() for _ in range(SETUP_SAMPLES)]

    workdir = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        t0 = time.perf_counter()
        inputs = wl.prepare()
        inputs["synth_s"] = time.perf_counter() - t0
        try:
            outcomes = measure(wl, args.seconds, bool(args.trace))
        except TraceMismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(wl, outcomes)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(wl, outcomes, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(not o.errors for o in outcomes)
    if correct and set(metrics) != set(units):
        raise AssertionError(f"metric names drifted: {sorted(set(metrics) ^ set(units))}")
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"inputs: workload={wl.name} seed={args.seed} {json.dumps(inputs, sort_keys=True)}")
    for line in report_lines(wl, outcomes, metrics, setup, bool(args.trace)):
        print(line)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "inputs": inputs,
        "setup_samples_s": setup,
        "commands": [
            {
                "k": o.k,
                "traced": o.traced,
                "wall_s": o.wall,
                "cpu_s": o.cpu,
                "exit_code": o.code,
                "errors": o.errors,
                "values": o.values,
                "spans": [
                    {
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "attrs": s.attrs,
                    }
                    for s in o.spans
                ],
            }
            for o in outcomes
        ],
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
