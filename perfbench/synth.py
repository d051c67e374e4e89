"""Seeded synthesis of a dense raw training log, and its ingest oracle.

The log imitates a lifelong-learning run in which every task is evaluated
every ``log_every`` steps.  Each metric stream is a Gaussian random walk,
written with six decimals.  Because the synthesiser knows which record is
the last one at or before each phase end, it can state the exact output
``latentperf ingest --normalize minmax`` must produce without running any
of the program's code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

RAW_HEADER = "algorithm,global_step,task,metric"
CURVES_HEADER = ("algorithm", "step", "task", "performance")

# Substream tag so the log shares no random numbers with the program's
# own scenario streams at the same seed.
_LOG_STREAM = 0x10C


@dataclass(frozen=True)
class RawLogSpec:
    n_tasks: int = 20
    n_algos: int = 4
    phases: int = 100
    phase_len: int = 1000
    log_every: int = 10

    @property
    def rows(self) -> int:
        return self.n_algos * self.n_log_steps * self.n_tasks

    @property
    def n_log_steps(self) -> int:
        return -(-self.phases * self.phase_len // self.log_every)


@dataclass(frozen=True)
class RawLogTruth:
    """What the synthesiser wrote that the oracle needs."""

    tasks: tuple[str, ...]
    algos: tuple[str, ...]
    curriculum: tuple[str, ...]
    # phase_end[a][l][j]: metric of task j logged last at or before the end
    # of phase l, for algorithm a, exactly as written.
    phase_end: tuple


def write_raw_log(raw_path, boundaries_path, spec: RawLogSpec, seed: int) -> RawLogTruth:
    """Write the raw metrics CSV and boundaries JSON for ``seed``."""
    rng = np.random.default_rng([seed, _LOG_STREAM])
    tasks = tuple(f"task{j + 1:02d}" for j in range(spec.n_tasks))
    algos = tuple(f"learner{a + 1}" for a in range(spec.n_algos))
    curriculum = tuple(tasks[i] for i in rng.integers(0, spec.n_tasks, spec.phases))
    steps = [k * spec.log_every for k in range(spec.n_log_steps)]
    # index of the last log step at or before each phase's final step
    ends = [
        ((l + 1) * spec.phase_len - 1) // spec.log_every for l in range(spec.phases)
    ]
    phase_end = []
    with open(raw_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(RAW_HEADER + "\n")
        for algo in algos:
            walk = np.cumsum(
                rng.normal(0.0, 0.01, size=(len(steps), spec.n_tasks)), axis=0
            )
            text = [[f"{v:.6f}" for v in row] for row in walk.tolist()]
            fh.write(
                "".join(
                    f"{algo},{step},{task},{value}\n"
                    for step, row in zip(steps, text)
                    for task, value in zip(tasks, row)
                )
            )
            phase_end.append(tuple(tuple(float(v) for v in text[k]) for k in ends))
    with open(boundaries_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "tasks": list(tasks),
                "boundaries": [
                    [l * spec.phase_len, curriculum[l]] for l in range(spec.phases)
                ],
            },
            fh,
        )
    return RawLogTruth(tasks, algos, curriculum, tuple(phase_end))


def expected_curves(truth: RawLogTruth) -> list[tuple[str, int, str, float]]:
    """Rows of the min-max normalised curves CSV ingest must write."""
    rows = []
    n = len(truth.tasks)
    for algo, table in zip(truth.algos, truth.phase_end):
        lo = [min(row[j] for row in table) for j in range(n)]
        hi = [max(row[j] for row in table) for j in range(n)]
        for l, row in enumerate(table):
            for j, task in enumerate(truth.tasks):
                rows.append((algo, l, task, (row[j] - lo[j]) / (hi[j] - lo[j])))
    return rows


def expected_curriculum(truth: RawLogTruth) -> dict:
    return {"tasks": list(truth.tasks), "curriculum": list(truth.curriculum)}
