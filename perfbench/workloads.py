"""The three workloads: their inputs, commands, output checks and probes.

Why these three:

* ``recover-gate`` runs ``latentperf recover-check`` at its defaults, the
  acceptance gate users run: 20 tiny independent fits (5 tasks x 3
  algorithms x 9 phases, 1000 Adam steps each) with no file I/O, so numpy
  dispatch and the optimizer step dominate.  Batching across problems
  shows here.
* ``fit-large`` fits one wide problem (50 x 10 x 200) for a fixed 100
  steps.  The per-phase adjoint loop dominates and batching across problems
  cannot help, so it is the workload that bypasses that optimisation.  It
  also reads a 100k-row curves CSV and writes predictions and a report.
  The step count is kept low so that a run holds about ten fits, whose
  median is steadier than that of three longer ones.
* ``ingest-dense`` downsamples an 800k-row raw log (20 tasks x 4
  algorithms x 100 phases of 1000 steps, every task logged every 10 steps).
  Only the file layer runs, and it is the one workload where memory
  matters.

Each workload derives all its inputs from the seed it is given; the program
sees only the generated files and arguments.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from synth import CURVES_HEADER, RawLogSpec, expected_curriculum, expected_curves, write_raw_log

RECOVER_TRIALS = 20


class Workload:
    name = ""
    # work units per command, what a unit is, and the name its rate goes
    # by in the human-readable report (the JSON calls it ops_per_s)
    work = 0
    work_unit = ""
    throughput_name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> dict:
        """Write this seed's inputs; return the input sizes."""
        raise NotImplementedError

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def output_files(self, k: int) -> list[Path]:
        return []

    def check(self, k, code, stdout) -> tuple[list[str], int, int, dict]:
        """Check command k's outputs.

        Returns (errors, extra operations attempted, extra failed, values),
        where the extra operations are units inside the command that can
        fail on their own, such as recovery trials.
        """
        raise NotImplementedError

    def expected_spans(self, values) -> dict[str, int]:
        """Calls per traced command.  A mismatch means the program's call
        structure changed under the benchmark, and the traced run stops
        instead of reporting layers that no longer run as zeros."""
        raise NotImplementedError

    def probe_spec(self):
        """(n_tasks, n_algos, phases, noise, seed) for layer probes, or None."""
        return None


class RecoverGate(Workload):
    name = "recover-gate"
    work = RECOVER_TRIALS
    work_unit = "trial"
    throughput_name = "trials_per_s"
    n_tasks, n_algos, phases, steps = 5, 3, 9, 1000

    @property
    def recover_seed(self) -> int:
        # disjoint trial seeds for different benchmark seeds
        return (self.seed * RECOVER_TRIALS) % 2**64

    def prepare(self) -> dict:
        return {
            "size": f"{self.n_tasks}x{self.n_algos}x{self.phases}",
            "trials": RECOVER_TRIALS,
            "steps": self.steps,
            "recover_seed": self.recover_seed,
        }

    def argv(self, k):
        return [
            "recover-check",
            "--trials", str(RECOVER_TRIALS),
            "--seed", str(self.recover_seed),
            "--tasks", str(self.n_tasks),
            "--algos", str(self.n_algos),
            "--length", str(self.phases),
            "--steps", str(self.steps),
            "--jobs", "1",
        ]

    def check(self, k, code, stdout):
        from latentperf.estimator import RECOVERY_THRESHOLDS

        table = parse_recover_table(stdout, RECOVERY_THRESHOLDS)
        errors = list(table["errors"])
        # Exit 1 with a well-formed FAIL table is the gate's documented
        # answer while a group misses its bound, not a failed operation.
        want = 0 if table.get("verdict") == "PASS" else 1
        if code != want:
            errors.append(f"exit code {code}, expected {want} for the printed verdict")
        if "total" in table and table["total"] != RECOVER_TRIALS:
            errors.append(f"{table['total']} trials reported, expected {RECOVER_TRIALS}")
        if errors:
            return errors, RECOVER_TRIALS, 0, {}
        diverged = RECOVER_TRIALS - table["succeeded"]
        values = {
            "recover_mse_max_ratio": max(
                table["mse"][key] / bound for key, bound in RECOVERY_THRESHOLDS.items()
            ),
            "diverged": diverged,
        }
        return errors, RECOVER_TRIALS, diverged, values

    def expected_spans(self, values):
        ok = RECOVER_TRIALS - values.get("diverged", 0)
        return {
            "cli.main": 1,
            "estimator.recovery_experiment": 1,
            "scenarios.generate": RECOVER_TRIALS,
            "estimator.fit": RECOVER_TRIALS,
            "estimator.parameter_recovery_errors": ok,
        }

    def probe_spec(self):
        return self.n_tasks, self.n_algos, self.phases, 0.0, self.recover_seed


_ROW = re.compile(r"^\| (\w+) \| (\S+) \| (\S+) \| (yes|no) \|$")
_VERDICT = re.compile(r"^(PASS|FAIL) \((\d+)/(\d+) trials\)$")
_SKIPPED = re.compile(r"^skipped (\d+) diverged trial\(s\) of (\d+)$")


def parse_recover_table(stdout: str, thresholds: dict) -> dict:
    """Parse and cross-check ``recover-check`` output.

    The result holds ``errors`` (empty when the output is well formed and
    self-consistent), ``mse`` per group, ``verdict``, ``succeeded`` and
    ``total``.
    """
    out = {"errors": [], "mse": {}}
    errors = out["errors"]
    lines = [l for l in stdout.splitlines() if l.strip()]
    if lines[:2] != ["| parameter | mse | threshold | ok |", "| --- | --- | --- | --- |"]:
        errors.append("missing table header")
        return out
    keys = list(thresholds)
    body = lines[2 : 2 + len(keys)]
    all_ok = True
    for key, line in zip(keys, body + [""] * (len(keys) - len(body))):
        m = _ROW.match(line)
        if m is None or m.group(1) != key:
            errors.append(f"malformed table row for {key}: {line!r}")
            continue
        try:
            mse, bound = float(m.group(2)), float(m.group(3))
        except ValueError:
            errors.append(f"non-numeric table row for {key}: {line!r}")
            continue
        if not math.isfinite(mse) or bound != thresholds[key]:
            errors.append(f"bad mse or threshold for {key}: {line!r}")
            continue
        ok = m.group(4) == "yes"
        # the printed mse is rounded to 4 decimals; only a clear miss or
        # pass can contradict the flag
        if (ok and mse > bound + 5e-5) or (not ok and mse < bound - 5e-5):
            errors.append(f"ok flag contradicts mse for {key}: {line!r}")
        all_ok = all_ok and ok
        out["mse"][key] = mse
    rest = lines[2 + len(keys) :]
    skipped = 0
    if rest and _SKIPPED.match(rest[0]):
        skipped = int(_SKIPPED.match(rest[0]).group(1))
        rest = rest[1:]
    m = _VERDICT.match(rest[0]) if len(rest) == 1 else None
    if m is None:
        errors.append(f"malformed verdict lines: {rest!r}")
        return out
    out["verdict"], out["succeeded"], out["total"] = m.group(1), int(m.group(2)), int(m.group(3))
    if (out["verdict"] == "PASS") != all_ok:
        errors.append("verdict contradicts the table")
    if skipped != out["total"] - out["succeeded"]:
        errors.append("skipped count contradicts the verdict line")
    return out


class FitLarge(Workload):
    name = "fit-large"
    work_unit = "Adam step"
    throughput_name = "fit_steps_per_s"
    n_tasks, n_algos, phases, noise, steps = 50, 10, 200, 0.05, 100
    work = steps

    @property
    def data(self) -> Path:
        return self.workdir / "scenario"

    def out(self, k) -> Path:
        return self.workdir / f"est{k}"

    def prepare(self) -> dict:
        from latentperf import cli

        code = cli.main([
            "generate",
            "--tasks", str(self.n_tasks),
            "--algos", str(self.n_algos),
            "--length", str(self.phases),
            "--seed", str(self.seed),
            "--noise", repr(self.noise),
            "--out", str(self.data),
        ])
        if code != 0:
            raise RuntimeError(f"latentperf generate exited {code}")
        rows = self.n_tasks * self.n_algos * self.phases
        return {
            "size": f"{self.n_tasks}x{self.n_algos}x{self.phases}",
            "rows": rows,
            "steps": self.steps,
            "noise": self.noise,
        }

    def argv(self, k):
        return [
            "fit",
            "--data", str(self.data / "curves.csv"),
            "--curriculum", str(self.data / "curriculum.json"),
            "--steps", str(self.steps),
            "--seed", str(self.seed),
            "--out", str(self.out(k)),
        ]

    def output_files(self, k):
        return [
            self.out(k) / name
            for name in ("estimates.json", "predicted.csv", "metrics.json", "report.md")
        ]

    def check(self, k, code, stdout):
        errors = []
        if code != 0:
            return [f"exit code {code}"], 0, 0, {}
        try:
            metrics = json.loads((self.out(k) / "metrics.json").read_text(encoding="utf-8"))
            mse = metrics["mse_total"]
            per_algo = metrics["mse_per_algorithm"]
            report = (self.out(k) / "report.md").read_text(encoding="utf-8")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"fit outputs unreadable: {exc}"], 0, 0, {}
        if stdout != f"total MSE: {mse!r}\n":
            errors.append("printed MSE differs from metrics.json")
        if not (isinstance(mse, float) and math.isfinite(mse)):
            errors.append(f"mse_total {mse!r} is not finite")
        if len(per_algo) != self.n_algos or not all(
            isinstance(v, float) and math.isfinite(v) for v in per_algo.values()
        ):
            errors.append("mse_per_algorithm malformed")
        if report.count("| --- |") < 3:
            errors.append("report.md lacks its three tables")
        errors += check_predicted(self.out(k), self.data / "curriculum.json")
        return errors, 0, 0, ({"fit_mse": mse} if not errors else {})

    def expected_spans(self, values):
        return {
            "cli.main": 1,
            "dataio.load_dataset": 1,
            "estimator.fit_with_restarts": 1,
            "estimator.fit": 1,
            "model.simulate_all": 1,
            "dataio.write_params": 1,
            "dataio.write_curves": 1,
            "reporting.property_table": 1,
            "reporting.transfer_table": 1,
            "reporting.difficulty_table": 1,
        }

    def probe_spec(self):
        return self.n_tasks, self.n_algos, self.phases, self.noise, self.seed


def check_predicted(out: Path, curriculum_path: Path) -> list[str]:
    """predicted.csv must equal simulate_all of the written estimates."""
    from latentperf import dataio
    from latentperf.model import simulate_all

    try:
        taskset, params = dataio.parse_params(out / "estimates.json")
        _, curriculum = dataio.parse_curriculum(curriculum_path)
    except Exception as exc:  # any parse failure is a failed output check
        return [f"estimates.json unreadable: {type(exc).__name__}: {exc}"]
    expected = [
        (mat.algorithm, l, taskset.names[j], float(mat.values[j, l]))
        for mat in simulate_all(params, curriculum)
        for l in range(mat.n_steps)
        for j in range(taskset.n)
    ]
    return compare_curves(out / "predicted.csv", expected)


def compare_curves(path: Path, expected) -> list[str]:
    """Compare a curves CSV row by row with exact expected values."""
    if not path.is_file():
        return [f"{path.name} is missing"]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CURVES_HEADER:
            return [f"{path.name}: bad header"]
        n = 0
        for n, (want, row) in enumerate(zip(expected, reader), start=1):
            try:
                got = (row[0], int(row[1]), row[2], float(row[3]))
            except (IndexError, ValueError):
                return [f"{path.name}: malformed row {n}: {row!r}"]
            if len(row) != 4 or got != want:
                return [f"{path.name}: row {n} is {row!r}, expected {want!r}"]
        extra = sum(1 for _ in reader)
    if n != len(expected) or extra:
        return [f"{path.name}: {n + extra} rows, expected {len(expected)}"]
    return []


class IngestDense(Workload):
    name = "ingest-dense"
    work_unit = "raw row"
    throughput_name = "ingest_rows_per_s"
    spec = RawLogSpec()
    work = spec.rows

    def prepare(self) -> dict:
        self.raw = self.workdir / "raw_metrics.csv"
        self.boundaries = self.workdir / "boundaries.json"
        self.truth = write_raw_log(self.raw, self.boundaries, self.spec, self.seed)
        s = self.spec
        return {
            "size": f"{s.n_tasks}x{s.n_algos}x{s.phases}",
            "rows": s.rows,
            "phase_len": s.phase_len,
            "log_every": s.log_every,
        }

    def _curves(self, k) -> Path:
        return self.workdir / f"curves{k}.csv"

    def _curriculum(self, k) -> Path:
        return self.workdir / f"curriculum{k}.json"

    def argv(self, k):
        return [
            "ingest",
            "--raw", str(self.raw),
            "--boundaries", str(self.boundaries),
            "--normalize", "minmax",
            "--out", str(self._curves(k)),
            "--curriculum-out", str(self._curriculum(k)),
        ]

    def output_files(self, k):
        return [self._curves(k), self._curriculum(k)]

    def check(self, k, code, stdout):
        if code != 0:
            return [f"exit code {code}"], 0, 0, {}
        errors = compare_curves(self._curves(k), expected_curves(self.truth))
        try:
            doc = json.loads(self._curriculum(k).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            doc = f"unreadable: {exc}"
        if doc != expected_curriculum(self.truth):
            errors.append("curriculum-out differs from the synthesised curriculum")
        if stdout:
            errors.append(f"unexpected output {stdout[:200]!r}")
        return errors, 0, 0, {}

    def expected_spans(self, values):
        return {
            "cli.main": 1,
            "dataio.parse_raw_log": 1,
            "dataio.downsample_to_boundaries": self.spec.n_algos,
            "dataio.normalize_minmax": self.spec.n_algos,
            "dataio.write_curves": 1,
            "dataio.write_curriculum": 1,
        }


WORKLOADS = {w.name: w for w in (RecoverGate, FitLarge, IngestDense)}
