"""End-to-end acceptance gate.

Each test exercises one shipping criterion at its stated tolerance and
prints a single PASS/FAIL line (straight to the terminal, bypassing
capture) so the gate's outcome is readable from the test log alone.
"""

import importlib.util
import subprocess
import sys
import time

import numpy as np

from latentperf import (
    FitConfig,
    PerformanceMatrix,
    RECOVERY_THRESHOLDS,
    ScenarioParams,
    ScenarioSpec,
    TaskProperties,
    AlgorithmProperties,
    fit,
    generate,
    gradient,
    normalize_minmax,
    parse_curriculum,
    parse_curves,
    parse_params,
    recovery_experiment,
    simulate_all,
    write_curriculum,
    write_curves,
    write_params,
)
from latentperf.estimator import _SEED_SCRAMBLE
from latentperf.model import _pack

from conftest import GOLDEN_DIR, kernel_rollout, params_as_lists, random_instance
from oracles import fd_gradient, forward_ref, loss_ref, relative_errors


def _verdict(capfd, num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    # capture is disabled so the verdict reaches the terminal even when
    # the criterion passes
    with capfd.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def test_criterion_1_forward_oracle_equivalence(capfd):
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        p = int(rng.integers(1, 3))
        _, params, cur = random_instance(rng, n, m, p)
        transfer, difficulty, algos = params_as_lists(params)
        preds = simulate_all(params, cur)
        for a, (gamma, h, lam) in enumerate(algos):
            ref = np.array(
                forward_ref(transfer, difficulty, gamma, h, lam, list(cur.entries), n)
            )
            worst = max(worst, float(np.max(np.abs(preds[a].values - ref))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 10.0
    _verdict(
        capfd,
        1,
        "forward model matches scalar-loop oracle",
        ok,
        f"1000 instances, worst abs err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_matches_finite_differences(capfd):
    rng = np.random.default_rng(77)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, 4))
        _, params, cur = random_instance(rng, n, m, p)
        observed = []
        for a in params.algorithms:
            values = rng.uniform(-1.0, 1.0, size=(n, m))
            mask = rng.random((n, m)) < 0.85
            mask[0, 0] = True
            observed.append(
                PerformanceMatrix(algorithm=a.name, values=values, mask=mask)
            )
        g = gradient(params, cur, observed)
        flat = np.concatenate(
            [
                g.transfer.ravel(),
                g.difficulty,
                g.transfer_efficiency,
                g.experience_retention,
                g.expertise_translation,
            ]
        )
        obs_lists = [o.values.tolist() for o in observed]
        mask_lists = [o.mask.tolist() for o in observed]
        entries = list(cur.entries)

        def ref_loss(theta, n=n, p=p, entries=entries, obs=obs_lists, msk=mask_lists):
            k = n * n
            transfer = [list(theta[r * n : (r + 1) * n]) for r in range(n)]
            algos = list(
                zip(
                    theta[k + n : k + n + p],
                    theta[k + n + p : k + n + 2 * p],
                    theta[k + n + 2 * p :],
                )
            )
            return loss_ref(transfer, list(theta[k : k + n]), algos, entries, obs, msk, n)

        theta = list(_pack(params))
        approx = fd_gradient(ref_loss, theta, eps=1e-6)
        worst = max(worst, max(relative_errors(approx, list(flat))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        capfd,
        2,
        "gradient matches central finite differences",
        ok,
        f"100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_parameter_recovery_thresholds(capfd):
    started = time.perf_counter()
    result = recovery_experiment(
        n_tasks=5,
        n_algos=3,
        curriculum_len=9,
        trials=20,
        config=FitConfig(),
        seed=0,
    )
    elapsed = time.perf_counter() - started
    assert result.n_succeeded == 20
    failures = [
        f"{key} {result.mse[key]:.3f}>{bound}"
        for key, bound in RECOVERY_THRESHOLDS.items()
        if not result.mse[key] <= bound
    ]
    ok = not failures and elapsed < 300.0
    detail = (
        f"20 trials, {elapsed:.0f}s, "
        + ", ".join(f"{k} {result.mse[k]:.3f}" for k in RECOVERY_THRESHOLDS)
    )
    _verdict(capfd, 3, "synthetic recovery within reference bounds", ok, detail)


def test_criterion_4_fit_quality_on_noiseless_data(capfd):
    # a seed whose 1000-step fit converges; quality is what is being
    # measured here, not convergence robustness (criterion 3 covers that)
    spec = ScenarioSpec(seed=2)
    truth, curriculum, data = generate(spec)
    config = FitConfig(seed=(2 ^ _SEED_SCRAMBLE) % 2**64)
    result = fit(curriculum, data, config)
    worst = max(result.loss_per_algorithm.values())
    ok = worst <= 0.01
    _verdict(
        capfd,
        4,
        "per-algorithm fit MSE at most 0.01 on noiseless data",
        ok,
        f"worst algorithm MSE {worst:.2e}, total {result.loss_total:.2e}",
    )


def test_criterion_5_projection_keeps_parameters_feasible(capfd):
    spec = ScenarioSpec(seed=2)
    _, curriculum, data = generate(spec)
    config = FitConfig(seed=(2 ^ _SEED_SCRAMBLE) % 2**64)
    steps_seen = []
    violations = []

    def watch(step, value, feasible):
        steps_seen.append(step)
        if not feasible:
            violations.append(step)

    result = fit(curriculum, data, config, callback=watch)
    p = result.params
    final_ok = (
        bool((np.abs(p.tasks.transfer) <= 1.0).all())
        and bool((p.tasks.difficulty >= 1e-3).all())
        and all(
            a.transfer_efficiency >= 0.0
            and 0.0 <= a.experience_retention <= 1.0
            and a.expertise_translation >= 0.0
            for a in p.algorithms
        )
    )
    ok = len(steps_seen) == 1000 and not violations and final_ok
    _verdict(
        capfd,
        5,
        "zero box-constraint violations over 1000 steps",
        ok,
        f"{len(steps_seen)} steps instrumented, {len(violations)} violations",
    )


def _check_retention_law() -> bool:
    # Step 0 trains task 2 from zero experience, so it gains exactly
    # gamma = 2 and primes tasks 0 and 1 at (0.875, -1.5).  The next four
    # train task 3, whose row adds nothing there: only retention acts.
    transfer = np.eye(4)
    transfer[2] = 0.4375, -0.75, 1.0, 0.0
    h = np.array([1.0, 0.0, 0.5, 0.3])
    tasks = TaskProperties(transfer, [0.5] * 4)
    for lam in (0.0, 0.7):
        algos = [AlgorithmProperties(f"r{k}", 2.0, hk, lam) for k, hk in enumerate(h)]
        ws = kernel_rollout(ScenarioParams(tasks, algos), [2, 3, 3, 3, 3])
        expect = np.tile([0.875, -1.5], (len(h), 1))
        for state in ws.states[1:]:
            if not np.array_equal(state[:, :2], expect):
                return False
            expect = expect * h[:, None]
    return True


def _check_map_symmetry() -> bool:
    # Step 0 trains task 0 from zero experience, so it gains exactly
    # gamma = |e| and puts |e| on task 0, -|e| on task 1 and nothing on
    # task 2.  Step 1 trains task 1, so the loop also maps -|e| into
    # ``before``; rows 1 and 2 add nothing and retention is 1.
    transfer = np.zeros((3, 3))
    transfer[0, :2] = 1.0, -1.0
    algos = [
        AlgorithmProperties(f"e{k}", abs(e), 1.0, 0.0)
        for k, e in enumerate(np.linspace(-30, 30, 41))
    ]
    for d in (0.01, 0.5, 3.0):
        tasks = TaskProperties(transfer, [d] * 3)
        ws = kernel_rollout(ScenarioParams(tasks, algos), [0, 1])
        curves, before = ws.curves, ws.before
        if not (
            np.array_equal(curves[..., 1], -curves[..., 0])
            and (curves[..., 2] == 0.0).all()
            and (before[0] == 0.0).all()
            and np.array_equal(before[1], -curves[0, :, 0])
        ):
            return False
    return True


def _check_normalization() -> bool:
    rng = np.random.default_rng(5)
    for _ in range(10):
        mat = PerformanceMatrix(
            algorithm="a", values=rng.uniform(-4, 4, size=(3, 5))
        )
        once = normalize_minmax(mat)
        twice = normalize_minmax(once)
        if not np.array_equal(once.values, twice.values):
            return False
        for j in range(3):
            row = once.values[j]
            if row.min() != 0.0 or row.max() != 1.0:
                return False
    return True


def _check_round_trips(tmp_path) -> bool:
    rng = np.random.default_rng(9)
    ts, params, cur = random_instance(rng, 3, 6, 2)
    mats = []
    for a in params.algorithms:
        values = rng.uniform(-1, 1, size=(3, 6))
        mask = rng.random((3, 6)) < 0.8
        mask[:, -1] = True
        mats.append(PerformanceMatrix(algorithm=a.name, values=values, mask=mask))
    write_curves(tmp_path / "c.csv", ts, mats)
    _, back = parse_curves(tmp_path / "c.csv", taskset=ts)
    for orig, echo in zip(mats, back):
        if not np.array_equal(orig.mask, echo.mask):
            return False
        if not np.array_equal(orig.values[orig.mask], echo.values[echo.mask]):
            return False
    write_params(tmp_path / "p.json", ts, params)
    _, pback = parse_params(tmp_path / "p.json")
    if pback.algorithms != params.algorithms:
        return False
    if not np.array_equal(pback.tasks.transfer, params.tasks.transfer):
        return False
    write_curriculum(tmp_path / "cur.json", ts, cur)
    _, cback = parse_curriculum(tmp_path / "cur.json")
    return tuple(cback.entries) == tuple(cur.entries)


def _check_cli_determinism(tmp_path) -> bool:
    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "latentperf.cli", *argv],
            capture_output=True,
            text=True,
        )
        return proc.returncode

    outs = []
    for name in ("one", "two"):
        root = tmp_path / name
        if run(["generate", "--tasks", "3", "--algos", "2", "--length", "5",
                "--seed", "3", "--out", str(root)]) != 0:
            return False
        if run(["fit", "--data", str(root / "curves.csv"),
                "--curriculum", str(root / "curriculum.json"),
                "--steps", "25", "--seed", "1", "--out", str(root / "est")]) != 0:
            return False
        outs.append(root)
    names = [
        "params.json", "curriculum.json", "curves.csv",
        "est/estimates.json", "est/predicted.csv",
        "est/report.md", "est/metrics.json",
    ]
    return all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )


def test_criterion_6_property_suite(capfd, tmp_path):
    checks = {
        "retention law": _check_retention_law(),
        "performance map symmetry": _check_map_symmetry(),
        "normalization": _check_normalization(),
        "round trips": _check_round_trips(tmp_path),
        "CLI determinism": _check_cli_determinism(tmp_path),
    }
    failed = [name for name, ok in checks.items() if not ok]
    _verdict(
        capfd,
        6,
        "property suite",
        not failed,
        "all properties hold" if not failed else "failed: " + ", ".join(failed),
    )


def test_criterion_7_reporting_goldens(capfd):
    spec = importlib.util.spec_from_file_location(
        "make_goldens", f"{GOLDEN_DIR}/../../tools/make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rendered = module.build()
    stale = []
    for name, text in rendered.items():
        with open(f"{GOLDEN_DIR}/{name}", encoding="utf-8") as fh:
            if fh.read() != text:
                stale.append(name)
    clear_row = "| Clear | 0.12 | 0.90 | 0.03 |"
    row_ok = clear_row in rendered["property.md"]
    ok = not stale and row_ok
    detail = f"{len(rendered)} artifacts byte-identical"
    if stale:
        detail = "mismatched: " + ", ".join(stale)
    if not row_ok:
        detail += "; expected property row missing"
    _verdict(capfd, 7, "reporting goldens byte-for-byte", ok, detail)
