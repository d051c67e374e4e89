"""Regenerate the golden reporting outputs under tests/goldens.

Run from the repository root after any intentional rendering change:

    python3 tools/make_goldens.py

The acceptance suite rebuilds the same outputs and compares them against
these files byte for byte, so regenerate them only when the new
rendering is the intended one.
"""

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    comparison_table,
    difficulty_table,
    parse_curves,
    parse_params,
    plot_curves,
    property_table,
    simulate_all,
    transfer_table,
)

ROOT = __file__.rsplit("/", 2)[0]
DATA = f"{ROOT}/tests/data"
OUT = f"{ROOT}/tests/goldens"

MNIST_GAMMA = {
    "EWC_online": 0.96,
    "EWC": 0.86,
    "MAS": 0.32,
    "L2": 0.74,
    "Naive_Rehearsal_Low": 1.02,
    "Naive_Rehearsal_High": 0.92,
    "NormalNN": 0.99,
    "SI": 0.85,
}
CIFAR_GAMMA = {
    "EWC_online": 0.35,
    "EWC": 0.60,
    "MAS": 0.33,
    "L2": 0.12,
    "Naive_Rehearsal_Low": 0.57,
    "Naive_Rehearsal_High": 0.58,
    "NormalNN": 0.52,
    "SI": 0.39,
}


def build() -> dict[str, str]:
    """Render every golden artifact and return {filename: content}."""
    taskset, params = parse_params(f"{DATA}/atari_estimates.json")
    out = {}

    def table(stem, t):
        out[f"{stem}.md"] = t.markdown()
        out[f"{stem}.json"] = t.to_json()

    table("property", property_table(params.algorithms))
    table("transfer", transfer_table(params, taskset))
    table("difficulty", difficulty_table(params, taskset))
    estimates = {
        "MNIST": [AlgorithmProperties(n, g, 0.5, 0.5) for n, g in MNIST_GAMMA.items()],
        "CIFAR100": [
            AlgorithmProperties(n, g, 0.5, 0.5) for n, g in CIFAR_GAMMA.items()
        ],
    }
    table("comparison", comparison_table(estimates, "gamma"))

    # curve plot: the first two fixture algorithms observed, with a fitted-
    # looking prediction (same model, slightly easier tasks) and two gaps
    _, observed = parse_curves(f"{DATA}/atari_curves.csv", taskset=taskset)
    observed = observed[:2]
    mask = observed[0].mask.copy()
    mask[0, 2] = False
    mask[4, 3] = False
    observed[0] = PerformanceMatrix(
        algorithm=observed[0].algorithm, values=observed[0].values, mask=mask
    )
    cur = Curriculum(entries=range(6), n_tasks=6)
    softer = ScenarioParams(
        tasks=TaskProperties(
            transfer=params.tasks.transfer,
            difficulty=params.tasks.difficulty + 0.05,
        ),
        algorithms=params.algorithms[:2],
    )
    predicted = [
        PerformanceMatrix(algorithm=m.algorithm, values=(m.values + 1.0) / 2.0)
        for m in simulate_all(softer, cur)
    ]
    out["curves.svg"] = plot_curves(observed, predicted, cur, taskset=taskset)
    return out


def main():
    for name, text in build().items():
        with open(f"{OUT}/{name}", "w", encoding="utf-8") as fh:
            fh.write(text)
    print("goldens written to", OUT)


if __name__ == "__main__":
    main()
