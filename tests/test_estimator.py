import tracemalloc

import numpy as np
import pytest

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    DivergenceError,
    FitConfig,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    ValidationError,
    fit,
    fit_with_restarts,
    gradient,
    loss,
    parameter_recovery_errors,
    recovery_experiment,
    simulate_all,
)
from latentperf import estimator, model
from latentperf.estimator import _pack
from latentperf.model import D_MIN, _param_arrays, _params_from_arrays
from latentperf.scenarios import ScenarioSpec, generate

from conftest import params_as_lists, random_instance
from oracles import fd_gradient, gradient_tangent_ref, loss_ref, relative_errors


def _random_observed(rng, params, cur, masked=True):
    """Random target curves in [-1, 1] with a mostly-true mask."""
    n, m = params.n, cur.m
    mats = []
    for a in params.algorithms:
        values = rng.uniform(-1.0, 1.0, size=(n, m))
        mask = rng.random((n, m)) < 0.85 if masked else None
        mats.append(PerformanceMatrix(algorithm=a.name, values=values, mask=mask))
    if masked and not any(mat.mask.any() for mat in mats):
        mats[0] = PerformanceMatrix(algorithm=mats[0].algorithm, values=mats[0].values)
    return mats


def _flat_loss_fn(n, p, entries, observed_lists, mask_lists):
    """Loss as a plain function of the packed parameter vector, built on
    the loop oracle only."""

    def f(theta):
        k = n * n
        transfer = [list(theta[r * n : (r + 1) * n]) for r in range(n)]
        difficulty = list(theta[k : k + n])
        gamma = theta[k + n : k + n + p]
        h = theta[k + n + p : k + n + 2 * p]
        lam = theta[k + n + 2 * p :]
        algos = list(zip(gamma, h, lam))
        return loss_ref(
            transfer, difficulty, algos, entries, observed_lists, mask_lists, n
        )

    return f


def _pack_gradient(g):
    return np.concatenate(
        [
            g.transfer.ravel(),
            g.difficulty,
            g.transfer_efficiency,
            g.experience_retention,
            g.expertise_translation,
        ]
    )


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_at_perfect_fit(rng):
    _, params, cur = random_instance(rng, 3, 6, 2)
    observed = simulate_all(params, cur)
    assert loss(params, cur, observed) == 0.0


def test_loss_single_entry():
    tasks = TaskProperties(transfer=np.zeros((1, 1)), difficulty=[1.0])
    params = ScenarioParams(
        tasks=tasks, algorithms=[AlgorithmProperties("a", 0.0, 0.5, 0.0)]
    )
    cur = Curriculum(entries=[0], n_tasks=1)
    # prediction is 0 (no transfer), observation 0.5
    observed = [PerformanceMatrix(algorithm="a", values=np.array([[0.5]]))]
    assert loss(params, cur, observed) == 0.25


def test_loss_matches_bruteforce_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        p = int(rng.integers(1, 4))
        _, params, cur = random_instance(rng, n, m, p)
        observed = _random_observed(rng, params, cur)
        transfer, difficulty, algos = params_as_lists(params)
        expect = loss_ref(
            transfer,
            difficulty,
            algos,
            list(cur.entries),
            [o.values.tolist() for o in observed],
            [o.mask.tolist() for o in observed],
            n,
        )
        got = loss(params, cur, observed)
        assert got == pytest.approx(expect, rel=1e-12)


def test_loss_ignores_masked_entries(rng):
    _, params, cur = random_instance(rng, 2, 5, 1)
    observed = simulate_all(params, cur)
    # corrupt one entry but mask it out: loss must stay zero
    values = observed[0].values.copy()
    mask = np.ones_like(values, dtype=bool)
    values[1, 3] = -0.9
    mask[1, 3] = False
    corrupted = [
        PerformanceMatrix(algorithm=observed[0].algorithm, values=values, mask=mask)
    ]
    assert loss(params, cur, corrupted) == 0.0


def test_loss_shape_mismatch_raises(rng):
    _, params, cur = random_instance(rng, 2, 5, 1)
    bad = [PerformanceMatrix(algorithm="a", values=np.zeros((2, 4)))]
    with pytest.raises(ValidationError):
        loss(params, cur, bad)
    with pytest.raises(ValidationError):
        loss(params, cur, [])
    unobserved = PerformanceMatrix(
        algorithm="a", values=np.zeros((2, 5)), mask=np.zeros((2, 5), dtype=bool)
    )
    with pytest.raises(ValidationError, match="no masked-true entries"):
        loss(params, cur, [unobserved])


# ---------------------------------------------------------------------------
# gradient


def test_gradient_zero_at_perfect_fit(rng):
    _, params, cur = random_instance(rng, 3, 5, 2)
    observed = simulate_all(params, cur)
    g = _pack_gradient(gradient(params, cur, observed))
    assert (g == 0.0).all()


def test_gradient_gamma_dead_with_zero_transfer(rng):
    tasks = TaskProperties(transfer=np.zeros((3, 3)), difficulty=[0.4, 0.6, 0.8])
    params = ScenarioParams(
        tasks=tasks,
        algorithms=[AlgorithmProperties("a", 0.3, 0.5, 0.2)],
    )
    cur = Curriculum(entries=[0, 1, 2, 1], n_tasks=3)
    observed = _random_observed(rng, params, cur, masked=False)
    g = gradient(params, cur, observed)
    assert (g.transfer_efficiency == 0.0).all()
    assert (g.expertise_translation == 0.0).all()


def _worst_fd_error(params, cur, observed, eps=1e-6):
    """Largest relative error of ``gradient`` against central differences
    of the loop-oracle loss."""
    g = _pack_gradient(gradient(params, cur, observed))
    f = _flat_loss_fn(
        params.n,
        params.p,
        list(cur.entries),
        [o.values.tolist() for o in observed],
        [o.mask.tolist() for o in observed],
    )
    theta = list(_pack(_param_arrays(params)))
    approx = fd_gradient(f, theta, eps=eps)
    return max(relative_errors(approx, list(g)))


def _random_shape(rng):
    return int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 4))


def test_gradient_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(20):
        _, params, cur = random_instance(rng, *_random_shape(rng))
        observed = _random_observed(rng, params, cur)
        worst = max(worst, _worst_fd_error(params, cur, observed))
    assert worst < 1e-4


def test_gradient_matches_tangent_oracle(rng):
    for _ in range(20):
        n, m, p = (int(rng.integers(1, hi)) for hi in (6, 12, 4))
        _, params, cur = random_instance(rng, n, m, p)
        observed = _random_observed(rng, params, cur)
        g = _pack_gradient(gradient(params, cur, observed))
        transfer, difficulty, algos = params_as_lists(params)
        ref = gradient_tangent_ref(
            transfer,
            difficulty,
            algos,
            list(cur.entries),
            [o.values.tolist() for o in observed],
            [o.mask.tolist() for o in observed],
            n,
        )
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(g))


def test_gradient_matches_finite_differences_at_min_difficulty(rng):
    worst = 0.0
    for _ in range(20):
        _, params, cur = random_instance(rng, *_random_shape(rng))
        n = params.n
        difficulty = params.tasks.difficulty.copy()
        difficulty[rng.random(n) < 0.5] = D_MIN
        difficulty[0] = D_MIN
        params = ScenarioParams(
            tasks=TaskProperties(transfer=params.tasks.transfer, difficulty=difficulty),
            algorithms=params.algorithms,
        )
        # Targets near the model's own curves keep the loss, and with it the
        # rounding error of each difference, small; the step is 10x smaller
        # than above because the curvature grows like 1/difficulty.
        observed = [
            PerformanceMatrix(
                algorithm=o.algorithm,
                values=o.values + rng.normal(0.0, 0.1, size=o.values.shape),
            )
            for o in simulate_all(params, cur)
        ]
        worst = max(worst, _worst_fd_error(params, cur, observed, eps=1e-7))
    assert worst < 1e-4


def test_gradient_matches_finite_differences_at_saturated_experience(rng):
    worst = 0.0
    saturated = 0
    for _ in range(20):
        _, params, cur = random_instance(rng, *_random_shape(rng))
        # Large efficiency, full retention and nonnegative transfer drive
        # experience/difficulty far into the flat tails of the sigmoid.
        params = ScenarioParams(
            tasks=TaskProperties(
                transfer=np.abs(params.tasks.transfer),
                difficulty=params.tasks.difficulty,
            ),
            algorithms=[
                AlgorithmProperties(
                    a.name, 20.0 + 10.0 * a.transfer_efficiency, 1.0,
                    a.expertise_translation,
                )
                for a in params.algorithms
            ],
        )
        observed = _random_observed(rng, params, cur)
        saturated += sum((o.values == 1.0).sum() for o in simulate_all(params, cur))
        worst = max(worst, _worst_fd_error(params, cur, observed))
    assert saturated > 0
    assert worst < 1e-4


def test_gradient_results_do_not_share_buffers(rng):
    _, params_a, cur = random_instance(rng, 4, 7, 2)
    _, params_b, _ = random_instance(rng, 4, 7, 2)
    observed = _random_observed(rng, params_a, cur)
    first = gradient(params_a, cur, observed)
    kept = _pack_gradient(first).copy()
    gradient(params_b, cur, observed)
    np.testing.assert_array_equal(_pack_gradient(first), kept)


def test_problem_workspace_leaves_no_stale_state(rng):
    # One workspace runs forward-only losses interleaved with losses plus
    # gradients; each must be bitwise what a fresh workspace gives, so no
    # evaluation reads a buffer left over from the one before (the
    # rollout's trajectory, keep, transfer rows and difficulties, the
    # adjoint's inject, records and ebar, the gradient groups).  b shares a's
    # gamma and lambda and differs in retention, transfer and difficulty,
    # the inputs of those buffers.
    _, params_a, cur = random_instance(rng, 4, 9, 3)
    names = params_a.algorithm_names()
    transfer, difficulty, gamma, retention, translation = _param_arrays(params_a)
    params_b = _params_from_arrays(
        np.clip(transfer + rng.uniform(-0.5, 0.5, transfer.shape), -1.0, 1.0),
        difficulty + rng.uniform(0.1, 1.0, difficulty.shape),
        gamma,
        1.0 - retention,
        translation,
        names,
    )
    _, params_c, _ = random_instance(rng, 4, 9, 3)
    observed = _random_observed(rng, params_a, cur)
    shared = estimator._Problem(cur, observed)
    sequence = [
        ("loss_and_grad", params_a),
        ("loss", params_b),
        ("loss_and_grad", params_b),
        ("loss", params_a),
        ("loss", params_c),
        ("loss_and_grad", params_a),
        ("loss_and_grad", params_c),
        ("loss", params_b),
    ]
    for method, params in sequence:
        arrays = _param_arrays(params)
        fresh = estimator._Problem(cur, observed)
        value = getattr(shared, method)(arrays)
        assert value == getattr(fresh, method)(arrays)
        np.testing.assert_array_equal(shared.rollout.curves, fresh.rollout.curves)
        np.testing.assert_array_equal(shared.resid, fresh.resid)
        if method == "loss_and_grad":
            np.testing.assert_array_equal(shared.grad, fresh.grad)
            np.testing.assert_array_equal(shared.adjoint.ebars, fresh.adjoint.ebars)
        assert (shared.rollout.states[0] == 0.0).all()


def test_kernel_loops_read_contiguous_same_shape_operands(rng):
    # numpy's fast path: every 2-D operand a per-step ufunc call reads or
    # writes is a C-contiguous (p, n) array, as a broadcast or strided
    # operand costs about twice as much per call.  The forward's outer
    # product gain[:, None] * transfer[i] is the one exception.
    _, params, cur = random_instance(rng, 4, 9, 3)
    n, p = params.n, params.p
    problem = estimator._Problem(cur, _random_observed(rng, params, cur))
    problem.loss_and_grad(_param_arrays(params))
    ws, adj = problem.rollout, problem.adjoint

    def fast(a):
        return a.shape == (p, n) and a.flags.c_contiguous

    assert len(ws.phases) == len(adj.phases) == cur.m
    for inj, ebar_l, row, *_ in adj.phases:
        assert fast(row)
        assert fast(ebar_l)
        assert fast(inj)
    for prev, nxt, _, d, trained, _, _, gain_col, row in ws.phases:
        assert fast(prev) and fast(nxt)
        assert d.shape == trained.shape == (p,) and d.flags.c_contiguous
        assert gain_col.shape == (p, 1) and row.shape == (n,)
    assert fast(ws.keep) and fast(ws.scratch) and fast(adj.ebar)
    # the map's 0.5 is folded into the divisor: every step divides by the
    # trained task's doubled difficulty, repeated once per algorithm
    difficulty2 = 2.0 * params.tasks.difficulty
    for k in range(p):
        np.testing.assert_array_equal(ws.row_difficulty[:, k], difficulty2[ws.entries])


def _textbook_loss_and_grad(params, cur, obs, mask):
    """Curves, loss and gradient groups by an allocating numpy evaluation
    of the textbook form: performance tanh(0.5 * (e / d)), feedback
    lambda * (0.5 * (1 - before**2)) / d[i] and the trained task's
    difficulty term -sum(dgain * feedback * (e / d)).  The reductions are
    the kernel's, so the two agree bit for bit."""
    transfer, d, gamma, h, lam = _param_arrays(params)
    entries = np.array(cur.entries)
    m, p, n = obs.shape
    states = np.zeros((m + 1, p, n))
    trained = np.empty((m, p))
    before = np.empty((m, p))
    gains = np.empty((m, p))
    for l, i in enumerate(entries):
        trained[l] = states[l][:, i] / d[i]
        before[l] = np.tanh(0.5 * trained[l])
        gains[l] = gamma + before[l] * lam
        states[l + 1] = states[l] * h[:, None] + gains[l][:, None] * transfer[i]
    curves = np.tanh(0.5 * (states[1:] / d))
    resid = np.where(mask, curves - obs, 0.0)
    value = np.add.reduce(resid * resid, axis=None)

    inject = resid * (1.0 - curves * curves) / d
    feedback = lam * (0.5 * (1.0 - before * before)) / d[entries][:, None]
    ebars = np.empty((m, p, n))
    dgains = np.empty((m, p))
    ebar = np.zeros((p, n))
    for l in reversed(range(m)):
        i = entries[l]
        ebars[l] = ebar + inject[l]
        dgains[l] = (ebars[l] * transfer[i]).sum(axis=1)
        ebar = ebars[l] * h[:, None]
        ebar[:, i] += dgains[l] * feedback[l]

    g_transfer = np.zeros((n, n))
    np.add.at(g_transfer, entries, np.einsum("lpn,lp->ln", ebars, gains))
    g_difficulty = -np.einsum("lpn,lpn->n", inject, states[1:]) / d
    np.add.at(g_difficulty, entries, -(dgains * feedback * trained).sum(axis=1))
    groups = (
        g_transfer,
        g_difficulty,
        dgains.sum(axis=0),
        np.einsum("lpn,lpn->p", ebars, states[:-1]),
        (dgains * before).sum(axis=0),
    )
    return curves, value, groups


@pytest.mark.parametrize(
    "n, p, m, count",
    [(5, 3, 9, 20), (20, 6, 60, 3), (1, 1, 1, 5), (1, 4, 6, 5), (4, 1, 1, 5), (3, 2, 1, 5)],
)
def test_kernel_matches_textbook_form_bitwise(rng, n, p, m, count):
    # The kernel divides by 2 * d where the textbook form halves e / d;
    # scaling by two is exact, so curves, loss and every gradient group
    # must be bitwise those of the textbook evaluation, also at one task,
    # one algorithm or one step.
    for _ in range(count):
        _, params, cur = random_instance(rng, n, m, p)
        problem = estimator._Problem(cur, _random_observed(rng, params, cur))
        value = problem.loss_and_grad(_param_arrays(params))
        curves, expected, groups = _textbook_loss_and_grad(
            params, cur, problem.obs, problem.mask
        )
        np.testing.assert_array_equal(problem.rollout.curves, curves)
        assert value == expected
        for got, want in zip(problem.grad_groups, groups, strict=True):
            np.testing.assert_array_equal(got, want)


def test_problem_buffers_have_one_step_major_layout(rng):
    # Every (steps, algorithms, tasks) array a problem, its rollout or its
    # adjoint holds is C-contiguous with the step axis first; no buffer
    # keeps a second, algorithm-major copy of the same numbers.
    _, params, cur = random_instance(rng, 4, 9, 3)
    n, p, m = params.n, params.p, cur.m
    problem = estimator._Problem(cur, _random_observed(rng, params, cur))
    problem.loss_and_grad(_param_arrays(params))
    buffers = {
        name: value
        for owner in (problem, problem.rollout, problem.adjoint)
        for name, value in vars(owner).items()
        if isinstance(value, np.ndarray) and value.ndim == 3
    }
    expected = {"obs", "unobserved", "resid", "inject", "ebars", "states", "curves", "rows_p"}
    assert expected <= set(buffers)
    for name, a in buffers.items():
        assert a.shape == ((m + 1, p, n) if name == "states" else (m, p, n)), name
        assert a.flags.c_contiguous, name


def test_loss_and_grad_allocates_less_than_one_step_major_array(rng):
    # Buffers are kept where they pay: every (steps, algorithms, tasks)
    # array an evaluation writes is preallocated, while the (m, p) records
    # and the per-group vectors are plain expressions.  After a warm-up,
    # one loss plus gradient therefore peaks below one such array.  At this
    # size it is several times numpy's 8,192-element iterator buffer, so
    # an (m, p, n) temporary cannot hide inside that buffer's allocation.
    _, params, cur = random_instance(rng, 20, 400, 6)
    problem = estimator._Problem(cur, _random_observed(rng, params, cur))
    arrays = _param_arrays(params)
    problem.loss_and_grad(arrays)  # warm-up
    tracemalloc.start()
    try:
        problem.loss_and_grad(arrays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.obs.nbytes > 5 * 8192 * problem.obs.itemsize
    assert peak < problem.obs.nbytes


# ---------------------------------------------------------------------------
# fit


def _small_problem(rng, n=3, m=6, p=2):
    _, params, cur = random_instance(rng, n, m, p)
    return params, cur, simulate_all(params, cur)


def _unit_diagonal(params):
    """The same parameters with the transfer diagonal set to 1, the only
    diagonal the estimator searches."""
    transfer = params.tasks.transfer.copy()
    np.fill_diagonal(transfer, 1.0)
    return ScenarioParams(
        tasks=TaskProperties(transfer=transfer, difficulty=params.tasks.difficulty),
        algorithms=params.algorithms,
    )


def test_fit_init_at_truth_stays_put(rng):
    truth, cur, _ = _small_problem(rng)
    truth = _unit_diagonal(truth)
    observed = simulate_all(truth, cur)
    result = fit(cur, observed, FitConfig(steps=50), init_params=truth)
    assert result.loss_total == 0.0
    np.testing.assert_array_equal(result.params.tasks.transfer, truth.tasks.transfer)
    np.testing.assert_array_equal(
        result.params.tasks.difficulty, truth.tasks.difficulty
    )
    for a, b in zip(result.params.algorithms, truth.algorithms):
        assert a == b
    assert (result.loss_trace == 0.0).all()
    errs = parameter_recovery_errors(truth, result.params)
    assert all(v == 0.0 for v in errs.values())


def test_fit_pins_transfer_diagonal_at_one(rng):
    truth, cur, observed = _small_problem(rng)
    assert (np.diag(truth.tasks.transfer) != 1.0).all()
    results = [
        fit(cur, observed, FitConfig(steps=30, seed=2)),
        fit(cur, observed, FitConfig(steps=30), init_params=truth),
    ]
    for result in results:
        assert (np.diag(result.params.tasks.transfer) == 1.0).all()


def test_fit_deterministic(rng):
    _, cur, observed = _small_problem(rng)
    cfg = FitConfig(steps=40, seed=7)
    r1 = fit(cur, observed, cfg)
    r2 = fit(cur, observed, cfg)
    np.testing.assert_array_equal(r1.params.tasks.transfer, r2.params.tasks.transfer)
    np.testing.assert_array_equal(
        r1.params.tasks.difficulty, r2.params.tasks.difficulty
    )
    assert r1.params.algorithms == r2.params.algorithms
    assert r1.loss_total == r2.loss_total
    np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)


def test_fit_runs_one_rollout_per_evaluation(rng, monkeypatch):
    # A fit of S steps evaluates the loss and its gradient at S + 1 points
    # and runs no other rollout: its curves are the caller's simulate_all.
    # generate adds one rollout, and no adjoint, per recovery trial.
    _, cur, observed = _small_problem(rng)
    forward, backward, calls, backward_calls = (
        model._forward_curves, model._backward, [], []
    )

    def counting(*args):
        calls.append(1)
        return forward(*args)

    def counting_backward(*args):
        backward_calls.append(1)
        return backward(*args)

    for module in (model, estimator):
        monkeypatch.setattr(module, "_forward_curves", counting)
        monkeypatch.setattr(module, "_backward", counting_backward)
    cfg, restarts, trials = FitConfig(steps=4), 3, 2
    fit(cur, observed, cfg)
    assert len(calls) == cfg.steps + 1
    assert len(backward_calls) == cfg.steps + 1
    calls.clear()
    backward_calls.clear()
    fit_with_restarts(cur, observed, cfg, restarts)
    assert len(calls) == restarts * (cfg.steps + 1)
    assert len(backward_calls) == restarts * (cfg.steps + 1)
    calls.clear()
    backward_calls.clear()
    result = recovery_experiment(trials=trials, config=cfg)
    assert result.n_succeeded == trials
    assert len(calls) == trials * (cfg.steps + 2)
    assert len(backward_calls) == trials * (cfg.steps + 1)


def test_fit_matches_allocating_reference(rng):
    # fit reuses one workspace and updates Adam in place; a loop that calls
    # the public loss and gradient afresh every step and allocates every
    # temporary must reach bitwise the same trace and parameters.
    truth, cur, _ = _small_problem(rng, n=4, m=9, p=3)
    observed = _random_observed(rng, truth, cur)
    names = [o.algorithm for o in observed]
    config = FitConfig(steps=25, learning_rate=0.05)
    result = fit(cur, observed, config, init_params=truth)

    n, p = truth.n, truth.p
    b1, b2, eps = estimator._BETA1, estimator._BETA2, estimator._EPSILON
    lo, hi = estimator._bounds(n, p)
    scale = 1.0 / sum(int(o.mask.sum()) for o in observed)
    theta = np.clip(_pack(_param_arrays(truth)), lo, hi)
    moment1 = moment2 = np.zeros_like(theta)
    for t in range(1, config.steps + 1):
        params = _params_from_arrays(*estimator._unpack(theta, n, p), names)
        assert result.loss_trace[t - 1] == loss(params, cur, observed) * scale
        g = np.where(lo < hi, _pack_gradient(gradient(params, cur, observed)), 0.0)
        moment1 = b1 * moment1 + (1.0 - b1) * g
        moment2 = b2 * moment2 + (1.0 - b2) * (g * g)
        m_hat = moment1 / (1.0 - b1**t)
        v_hat = moment2 / (1.0 - b2**t)
        step = config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        theta = np.clip(theta - step, lo, hi)
    np.testing.assert_array_equal(_pack(_param_arrays(result.params)), theta)
    # the final losses are those of the last point, evaluated like the rest
    final = loss(result.params, cur, observed) * scale
    assert result.loss_trace[-1] == final
    assert result.loss_total == final
    predicted = simulate_all(result.params, cur)
    for o, pred in zip(observed, predicted, strict=True):
        resid = np.where(o.mask, pred.values - o.values, 0.0)
        mse = np.sum(resid * resid) / max(int(o.mask.sum()), 1)
        assert result.loss_per_algorithm[o.algorithm] == pytest.approx(mse, rel=1e-13)


def test_fit_trace_and_losses(rng):
    _, cur, observed = _small_problem(rng)
    result = fit(cur, observed, FitConfig(steps=30, seed=3))
    assert result.loss_trace.shape == (31,)
    assert np.isfinite(result.loss_trace).all()
    assert result.loss_total >= 0.0
    assert set(result.loss_per_algorithm) == {o.algorithm for o in observed}
    # final loss should not exceed the starting loss on these easy instances
    assert result.loss_trace[-1] <= result.loss_trace[0]


def test_fit_steps_zero_returns_projected_init(rng):
    _, cur, observed = _small_problem(rng)
    result = fit(cur, observed, FitConfig(steps=0, seed=5))
    assert result.loss_trace.shape == (1,)
    assert result.loss_total == result.loss_trace[0]


def test_fit_callback_reports_feasible_steps(rng):
    _, cur, observed = _small_problem(rng)
    seen = []
    result = fit(
        cur,
        observed,
        FitConfig(steps=25, seed=1),
        callback=lambda t, value, ok: seen.append((t, value, ok)),
    )
    assert [t for t, _, _ in seen] == list(range(1, 26))
    assert all(ok for _, _, ok in seen)
    assert all(np.isfinite(v) for _, v, _ in seen)
    # each reported loss is the trace's entry for the point it was taken at
    assert all(v == result.loss_trace[t - 1] for t, v, _ in seen)


def test_fit_result_params_feasible(rng):
    _, cur, observed = _small_problem(rng)
    result = fit(cur, observed, FitConfig(steps=60, seed=11))
    p = result.params
    assert (np.abs(p.tasks.transfer) <= 1.0).all()
    assert (p.tasks.difficulty >= 1e-3).all()
    for a in p.algorithms:
        assert a.transfer_efficiency >= 0.0
        assert 0.0 <= a.experience_retention <= 1.0
        assert a.expertise_translation >= 0.0


def test_fit_divergence_reports_step_and_parameter():
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    params = ScenarioParams(
        tasks=tasks, algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)]
    )
    cur = Curriculum(entries=[0, 1], n_tasks=2)
    observed = [
        PerformanceMatrix(algorithm="a", values=np.full((2, 2), 1e308))
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            fit(cur, observed, FitConfig(steps=5), init_params=params)
    assert info.value.step == 0
    assert "after 0 optimizer steps" in str(info.value)


def test_fit_divergence_reports_loss_not_pinned_diagonal():
    # An infinite loss also makes the pinned diagonal's gradient non-finite;
    # the report names the loss, not a parameter the fit never moves.
    for seed in range(1, 6):
        _, cur, data = generate(ScenarioSpec(seed=seed))
        huge = [
            PerformanceMatrix(o.algorithm, np.full_like(o.values, 1e308)) for o in data
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                fit(cur, huge, FitConfig(steps=5))
        assert str(info.value) == "non-finite loss after 0 optimizer steps"


def test_fit_divergence_names_overflowing_parameter():
    # A huge step overflows a parameter with no upper bound while the
    # gradient there is still finite.
    _, cur, observed = generate(ScenarioSpec())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            fit(cur, observed, FitConfig(steps=5, learning_rate=1e308))
    assert info.value.step >= 1
    assert info.value.parameter.startswith(("difficulty[", "gamma(", "lambda("))


def test_fit_duplicate_algorithm_names_rejected(rng):
    _, cur, observed = _small_problem(rng)
    dup = [
        PerformanceMatrix(algorithm="same", values=o.values) for o in observed
    ]
    with pytest.raises(ValidationError):
        fit(cur, dup, FitConfig(steps=1))


def test_component_name_follows_packed_layout():
    for n, p in ((1, 1), (2, 3), (3, 2)):
        names = [f"algo{a}" for a in range(p)]
        flat = np.arange(n * n + n + 3 * p)
        transfer, difficulty, *per_algorithm = estimator._unpack(flat, n, p)
        expected = {}
        for (i, j), k in np.ndenumerate(transfer):
            expected[k] = f"transfer[{i},{j}]"
        for j, k in enumerate(difficulty):
            expected[k] = f"difficulty[{j}]"
        for label, group in zip(("gamma", "h", "lambda"), per_algorithm):
            for a, k in enumerate(group):
                expected[k] = f"{label}({names[a]})"
        assert sorted(expected) == list(flat)
        for k in flat:
            assert estimator._component_name(int(k), n, p, names) == expected[k]


def test_fit_init_params_must_match_inputs(rng):
    _, cur, observed = _small_problem(rng, n=3, p=2)
    wrong_n = random_instance(rng, 2, cur.m, 2)[1]
    wrong_p = random_instance(rng, 3, cur.m, 1)[1]
    for init in (wrong_n, wrong_p):
        with pytest.raises(
            ValidationError,
            match="parameter set covers (2 tasks, curriculum has 3"
            "|1 algorithms, observed data has 2)",
        ):
            fit(cur, observed, FitConfig(steps=1), init_params=init)


# Every entry point that pairs a parameter set with observed curves, called
# as (params, curriculum, observed).
_PAIRING_SITES = {
    "loss": loss,
    "gradient": gradient,
    "fit(init_params=...)": lambda params, cur, observed: fit(
        cur, observed, FitConfig(steps=1), init_params=params
    ),
}


@pytest.mark.parametrize(
    "n, p, message",
    [
        (3, 1, "parameter set covers 1 algorithms, observed data has 2"),
        (3, 3, "parameter set covers 3 algorithms, observed data has 2"),
        (4, 2, "parameter set covers 4 tasks, curriculum has 3"),
    ],
    ids=["one algorithm fewer", "one algorithm more", "another task count"],
)
@pytest.mark.parametrize("site", sorted(_PAIRING_SITES))
def test_params_must_pair_with_observed_by_count(rng, site, n, p, message):
    # params pair with the observed matrices by position, so the counts are
    # all there is to check; unchecked, a short parameter set broadcasts
    # over the observed matrices and gives a number
    _, cur, observed = _small_problem(rng, n=3, p=2)
    params = random_instance(rng, n, cur.m, p)[1]
    with pytest.raises(ValidationError) as info:
        _PAIRING_SITES[site](params, cur, observed)
    assert str(info.value) == message


@pytest.mark.parametrize("site", ["loss", "gradient"])
def test_loss_and_gradient_refuse_duplicate_observed_names(rng, site):
    params, cur, observed = _small_problem(rng)
    dup = [PerformanceMatrix(algorithm="same", values=o.values) for o in observed]
    with pytest.raises(ValidationError, match="observed algorithm names must be unique"):
        _PAIRING_SITES[site](params, cur, dup)


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(steps=-1)
    # one real-number rule: a string, None, a bool or an integer beyond a
    # float's range is refused like an infinity
    for lr in (0.0, float("inf"), float("nan"), "0.1", None, True, 10**400):
        with pytest.raises(ValidationError, match="^learning_rate must be positive"):
            FitConfig(learning_rate=lr)
    FitConfig(learning_rate=np.float32(0.5))
    FitConfig(learning_rate=np.int64(1))
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="unsigned 64-bit"):
            FitConfig(seed=seed)


@pytest.mark.parametrize("field", ["steps", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_fit_config_refuses_non_integer_counts(field, value):
    # unchecked, a float reaches numpy and fails there with a TypeError
    with pytest.raises(ValidationError, match=f"^{field} must"):
        FitConfig(**{field: value})


def test_fit_with_restarts_picks_best(rng):
    _, cur, observed = _small_problem(rng)
    cfg = FitConfig(steps=30, seed=0)
    single = fit(cur, observed, cfg)
    multi = fit_with_restarts(cur, observed, cfg, restarts=3)
    assert multi.loss_total <= single.loss_total
    # restarts=1 is exactly a plain fit
    same = fit_with_restarts(cur, observed, cfg, restarts=1)
    assert same.loss_total == single.loss_total
    with pytest.raises(ValidationError):
        fit_with_restarts(cur, observed, cfg, restarts=0)


@pytest.mark.parametrize("count", [2.5, True, 0, -1])
def test_restarts_and_trials_follow_the_integer_rule(rng, count):
    # a float or a bool is refused before any fit runs, like a count below 1
    _, cur, observed = _small_problem(rng)
    with pytest.raises(ValidationError, match="^restarts must be an integer, at least 1$"):
        fit_with_restarts(cur, observed, FitConfig(steps=1), restarts=count)
    with pytest.raises(ValidationError, match="^trials must be an integer, at least 1$"):
        recovery_experiment(trials=count, config=FitConfig(steps=1))


# ---------------------------------------------------------------------------
# recovery harness


def test_parameter_recovery_errors_zero_on_equal(rng):
    _, params, _ = random_instance(rng, 4, 5, 2)
    errs = parameter_recovery_errors(params, params)
    assert set(errs) == {"transfer", "difficulty", "gamma", "h", "lambda"}
    assert all(v == 0.0 for v in errs.values())


def test_parameter_recovery_errors_permutation_invariant(rng):
    _, truth, _ = random_instance(rng, 4, 5, 2)
    _, estimate, _ = random_instance(rng, 4, 5, 2)
    perm = np.array([2, 0, 3, 1])

    def permute(params):
        transfer = params.tasks.transfer[np.ix_(perm, perm)]
        difficulty = params.tasks.difficulty[perm]
        return ScenarioParams(
            tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
            algorithms=params.algorithms,
        )

    base = parameter_recovery_errors(truth, estimate)
    permuted = parameter_recovery_errors(permute(truth), permute(estimate))
    for key in base:
        assert permuted[key] == pytest.approx(base[key], rel=1e-12)


def test_parameter_recovery_errors_shape_mismatch(rng):
    _, a, _ = random_instance(rng, 3, 5, 2)
    _, b, _ = random_instance(rng, 4, 5, 2)
    with pytest.raises(ValidationError):
        parameter_recovery_errors(a, b)


def test_recovery_experiment_seeds_each_trial():
    # Trial t fits generate(seed + t) from the scrambled init seed, so each
    # entry of per_trial can be reproduced by hand.
    cfg = FitConfig(steps=25)
    result = recovery_experiment(
        n_tasks=3, n_algos=2, curriculum_len=6, trials=3, config=cfg, seed=11
    )
    assert result.trials == 3 and result.failures == ()
    for t, errs in enumerate(result.per_trial):
        spec = ScenarioSpec(n_tasks=3, n_algos=2, curriculum_len=6, seed=11 + t)
        truth, cur, data = generate(spec)
        init_seed = (11 + t) ^ estimator._SEED_SCRAMBLE
        by_hand = fit(cur, data, FitConfig(steps=25, seed=init_seed))
        assert errs == parameter_recovery_errors(truth, by_hand.params)


def test_recovery_experiment_every_trial_diverged():
    cfg = FitConfig(steps=5, learning_rate=1e308)
    result = recovery_experiment(trials=3, config=cfg, seed=0)
    assert result.n_succeeded == 0 and result.per_trial == ()
    assert [t for t, _ in result.failures] == [0, 1, 2]
    assert all(msg.startswith("non-finite ") for _, msg in result.failures)
    assert set(result.mse) == set(estimator.RECOVERY_THRESHOLDS)
    assert all(np.isnan(v) for v in result.mse.values())


def test_recovery_experiment_validates_counts():
    with pytest.raises(ValidationError):
        recovery_experiment(trials=0)
