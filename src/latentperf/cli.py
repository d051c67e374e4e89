"""Command-line interface.

Subcommands cover the full workflow: generate or simulate synthetic
curves, ingest raw training logs, fit parameters, sanity-check recovery,
and render comparison reports.  Exit codes: 0 success, 1 a threshold
check failed, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataio, reporting
from .errors import (
    DivergenceError,
    NormalizationError,
    ParseError,
    ValidationError,
)
from .estimator import (
    RECOVERY_THRESHOLDS,
    FitConfig,
    fit_with_restarts,
    recovery_experiment,
)
from .model import TaskSet, simulate_all
from .scenarios import ScenarioSpec, generate as generate_scenario


def _check_outputs(outputs, inputs) -> None:
    """Refuse (exit 2) an output path that is a directory or lies below an
    existing file, two output paths that resolve to one file, or one that
    resolves to an input path; commands call this before reading."""
    taken = {Path(path).resolve() for path in inputs}
    for path in outputs:
        for parent in Path(path).parents:
            if parent.exists() and not parent.is_dir():
                raise ValidationError(f"{path}: {parent} exists and is not a directory")
        if Path(path).is_dir():
            raise ValidationError(f"{path} is a directory, not a file")
        if (resolved := Path(path).resolve()) in taken:
            raise ValidationError(
                f"{path} would be overwritten: outputs must name different "
                "files, none of them an input"
            )
        taken.add(resolved)


def _make_parents(outputs) -> None:
    """Create the missing directories above ``outputs``; commands call this
    after reading their inputs."""
    for path in outputs:
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _cmd_simulate(args) -> int:
    _check_outputs([args.out], [args.params, args.curriculum])
    p_tasks, params = dataio.parse_params(args.params)
    c_tasks, curriculum = dataio.parse_curriculum(args.curriculum)
    if p_tasks.names != c_tasks.names:
        raise ValidationError(
            "params and curriculum disagree on tasks: "
            f"{list(p_tasks.names)} vs {list(c_tasks.names)}"
        )
    curves = simulate_all(params, curriculum)
    _make_parents([args.out])
    dataio.write_curves(args.out, p_tasks, curves)
    return 0


def _cmd_generate(args) -> int:
    spec = ScenarioSpec(
        n_tasks=args.tasks,
        n_algos=args.algos,
        curriculum_len=args.length,
        seed=args.seed,
        noise_std=args.noise,
    )
    files = [Path(args.out) / f for f in ("params.json", "curriculum.json", "curves.csv")]
    _check_outputs(files, [])
    params, curriculum, data = generate_scenario(spec)
    taskset = TaskSet(names=tuple(f"task{j + 1}" for j in range(spec.n_tasks)))
    _make_parents(files)
    params_out, curriculum_out, curves_out = files
    dataio.write_params(params_out, taskset, params)
    dataio.write_curriculum(curriculum_out, taskset, curriculum)
    dataio.write_curves(curves_out, taskset, data)
    return 0


def _cmd_fit(args) -> int:
    out = Path(args.out)
    files = [out / f for f in ("estimates.json", "predicted.csv", "report.md", "metrics.json")]
    _check_outputs(files, [args.data, args.curriculum])
    taskset, curriculum, observed = dataio.load_dataset(args.data, args.curriculum)
    config = FitConfig(steps=args.steps, learning_rate=args.lr, seed=args.seed)
    callback = None
    if args.progress:
        def callback(step, value, feasible):
            print(f"{step},{value!r}")
    result = fit_with_restarts(
        curriculum, observed, config, restarts=args.restarts, callback=callback
    )
    curves = simulate_all(result.params, curriculum)
    _make_parents(files)
    estimates, predicted, report, metrics = files
    dataio.write_params(estimates, taskset, result.params)
    dataio.write_curves(predicted, taskset, curves)
    tables = [
        reporting.property_table(result.params.algorithms),
        reporting.transfer_table(result.params, taskset),
        reporting.difficulty_table(result.params, taskset),
    ]
    report.write_text("\n".join(t.markdown() for t in tables), encoding="utf-8")
    losses = {
        "mse_total": result.loss_total,
        "mse_per_algorithm": result.loss_per_algorithm,
    }
    metrics.write_text(json.dumps(losses, indent=2) + "\n", encoding="utf-8")
    print(f"total MSE: {result.loss_total!r}")
    return 0


def _cmd_ingest(args) -> int:
    outputs = [path for path in (args.out, args.curriculum_out) if path]
    _check_outputs(outputs, [args.raw, args.boundaries])
    taskset, curriculum, logs = dataio.parse_raw_log(args.raw, args.boundaries)
    matrices = []
    for log in logs:
        mat = dataio.downsample_to_boundaries(log)
        if args.normalize == "minmax":
            mat = dataio.normalize_minmax(mat, task_names=taskset.names)
        matrices.append(mat)
    _make_parents(outputs)
    dataio.write_curves(args.out, taskset, matrices)
    if args.curriculum_out:
        dataio.write_curriculum(args.curriculum_out, taskset, curriculum)
    return 0


def _cmd_recover_check(args) -> int:
    if args.jobs < 1:
        raise ValidationError("jobs must be at least 1")
    config = FitConfig(steps=args.steps, learning_rate=args.lr)
    result = recovery_experiment(
        n_tasks=args.tasks,
        n_algos=args.algos,
        curriculum_len=args.length,
        trials=args.trials,
        config=config,
        seed=args.seed,
    )
    if result.n_succeeded == 0:
        print("error: every recovery trial diverged", file=sys.stderr)
        return 3
    print("| parameter | mse | threshold | ok |")
    print("| --- | --- | --- | --- |")
    all_ok = True
    for key, bound in RECOVERY_THRESHOLDS.items():
        mse = result.mse[key]
        ok = mse <= bound
        all_ok = all_ok and ok
        print(f"| {key} | {mse:.4f} | {bound} | {'yes' if ok else 'no'} |")
    if result.failures:
        print(f"\nskipped {len(result.failures)} diverged trial(s) "
              f"of {result.trials}")
    print(f"\n{'PASS' if all_ok else 'FAIL'} "
          f"({result.n_succeeded}/{result.trials} trials)")
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    out = Path(args.out)
    json_out = out.with_suffix(".json")
    _check_outputs([out, json_out], args.estimates)
    if len(args.estimates) != len(args.labels):
        raise ValidationError(
            f"{len(args.estimates)} estimate files but {len(args.labels)} labels"
        )
    estimates = {}
    for label, path in zip(args.labels, args.estimates):
        if label in estimates:
            raise ValidationError(f"duplicate label {label!r}")
        _, params = dataio.parse_params(path)
        estimates[label] = params.algorithms
    table = reporting.comparison_table(estimates, args.param)
    _make_parents([out, json_out])
    out.write_text(table.markdown(), encoding="utf-8")
    json_out.write_text(table.to_json(), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentperf",
        description="Latent-parameter modeling of lifelong learning curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll the forward model out to a curves CSV")
    p.add_argument("--params", required=True, help="params JSON file")
    p.add_argument("--curriculum", required=True, help="curriculum JSON file")
    p.add_argument("--out", required=True, help="output curves CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="sample a synthetic scenario bundle")
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument("--algos", type=int, default=3)
    p.add_argument("--length", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="estimate parameters from observed curves")
    p.add_argument("--data", required=True, help="curves CSV file")
    p.add_argument("--curriculum", required=True, help="curriculum JSON file")
    p.add_argument("--steps", type=int, default=FitConfig.steps)
    p.add_argument("--lr", type=float, default=FitConfig.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--progress", action="store_true",
                   help="stream 'step,loss' lines while optimizing")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ingest", help="downsample a raw training log for fitting")
    p.add_argument("--raw", required=True, help="raw metrics CSV")
    p.add_argument("--boundaries", required=True, help="phase boundaries JSON")
    p.add_argument("--normalize", choices=("minmax", "none"), default="minmax")
    p.add_argument("--out", required=True,
                   help="output curves CSV; may not be an input")
    p.add_argument("--curriculum-out", default=None,
                   help="also write the curriculum implied by the boundaries; "
                        "may not be --out or an input")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("recover-check",
                       help="synthetic ground-truth recovery sanity check")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=5)
    p.add_argument("--algos", type=int, default=3)
    p.add_argument("--length", type=int, default=9)
    p.add_argument("--steps", type=int, default=FitConfig.steps)
    p.add_argument("--lr", type=float, default=FitConfig.learning_rate)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_recover_check)

    p = sub.add_parser("report", help="compare estimates across datasets")
    p.add_argument("--estimates", nargs="+", required=True,
                   help="params JSON files, one per dataset")
    p.add_argument("--labels", nargs="+", required=True,
                   help="dataset labels, same order as --estimates")
    p.add_argument("--param", choices=reporting.COMPARISON_PARAMETERS, required=True)
    p.add_argument("--out", required=True,
                   help="output Markdown file; the JSON table goes next to it "
                        "with the suffix .json; neither may be an input")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, NormalizationError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
