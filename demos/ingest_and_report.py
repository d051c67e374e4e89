"""
From raw training logs to a fitted report
=========================================

End-to-end pipeline: dense per-step logs are downsampled at curriculum
phase ends, normalized, fitted, and rendered as Markdown tables and an
SVG curve grid. The raw logs are fabricated here so the demo is
self-contained; artifacts land in demos/out/.
"""

import csv
import json
import pathlib

import numpy as np

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    ScenarioParams,
    TaskProperties,
    TaskSet,
    FitConfig,
    downsample_to_boundaries,
    fit_with_restarts,
    normalize_minmax,
    parse_raw_log,
    plot_curves,
    property_table,
    simulate_all,
    transfer_table,
    write_curves,
)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# ---------------------------------------------------------------------------
# fabricate raw logs from a known scenario

tasks = TaskSet(names=("reach", "grasp", "stack"))
truth = ScenarioParams(
    tasks=TaskProperties(
        transfer=[[1.0, 0.5, 0.1], [0.2, 1.0, 0.4], [-0.1, 0.3, 1.0]],
        difficulty=[0.2, 0.4, 0.6],
    ),
    algorithms=(
        AlgorithmProperties("greedy", 0.8, 0.4, 0.3),
        AlgorithmProperties("sticky", 0.3, 0.95, 0.2),
    ),
)
curriculum = Curriculum(entries=[0, 1, 2, 1], n_tasks=3)
curves = simulate_all(truth, curriculum)

# Each phase is 1000 environment steps; the logged reward ramps linearly
# from the previous phase-end value to the current one and sits on an
# arbitrary 0..100 scale (ingestion has to undo that).
phase_len = 1000
rows = []
for mat in curves:
    for j, task in enumerate(tasks.names):
        prev = 0.0
        for l in range(curriculum.m):
            target = mat.values[j, l]
            for local in range(0, phase_len, 200):
                frac = (local + 200) / phase_len
                reward = prev + (target - prev) * frac
                rows.append(
                    (mat.algorithm, l * phase_len + local, task, 50 + 50 * reward)
                )
            prev = target

raw_csv = out / "raw_metrics.csv"
with open(raw_csv, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(("algorithm", "global_step", "task", "metric"))
    writer.writerows(rows)

boundaries = out / "boundaries.json"
boundaries.write_text(json.dumps({
    "tasks": list(tasks.names),
    "boundaries": [[l * phase_len, tasks.names[t]]
                   for l, t in enumerate(curriculum.entries)],
}))
print(f"wrote {len(rows)} raw records to {raw_csv}")

# ---------------------------------------------------------------------------
# ingest: downsample at phase ends, normalize to [0, 1]

taskset, cur, logs = parse_raw_log(raw_csv, boundaries)
# each log carries its task names and phase boundaries, so downsampling
# needs nothing else: rows follow the task set, columns the curriculum
observed = [
    normalize_minmax(downsample_to_boundaries(log), task_names=taskset.names)
    for log in logs
]
write_curves(out / "curves.csv", taskset, observed)
print(f"curriculum from boundaries: {[taskset.names[t] for t in cur.entries]}")

# ---------------------------------------------------------------------------
# fit and report

# 4 normalized columns leave the loss surface bumpy, so take the best
# of a few random inits instead of trusting one.
result = fit_with_restarts(cur, observed, FitConfig(seed=11), restarts=5)
print(f"fit loss (best of 5 restarts): {result.loss_total:.3e}")

report = [
    property_table(result.params.algorithms).markdown(),
    transfer_table(result.params, taskset).markdown(),
]
(out / "report.md").write_text("\n".join(report))

predicted = simulate_all(result.params, cur)
svg = plot_curves(observed, predicted, cur, taskset=taskset)
(out / "curves.svg").write_text(svg)
print(f"report.md and curves.svg written to {out}")

# Four observations per task pin down the curves but not the latent
# parameters behind them: the sticky algorithm still comes out with the
# higher retention, while the exact values stay uncertain.
est = result.params.algorithms
print("\nestimated retention (truth 0.40, 0.95):",
      np.round([a.experience_retention for a in est], 2))
