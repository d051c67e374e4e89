"""Constrained parameter estimation from observed performance curves.

The objective is the summed squared error between simulated and observed
curves over all algorithms (masked entries excluded).  It is minimized
with Adam, projecting the parameters onto their boxes after every update:
off-diagonal transfer entries to [-1, 1], the transfer diagonal to 1,
difficulty to [D_MIN, inf), efficiency and translation to [0, inf),
retention to [0, 1].

The diagonal is pinned because the curves cannot determine it: scaling
(transfer, gamma, lambda) to (c*transfer, gamma/c, lambda/c), or one
transfer column together with that task's difficulty, leaves every
prediction unchanged.  A unit diagonal (training a task always helps
itself by the full gain) fixes the column of every trained task.  One
direction survives it: (difficulty, gamma, lambda) to
c*(difficulty, gamma, lambda) with transfer unchanged.

Gradients are exact: a hand-derived adjoint of the unrolled experience
recurrence, in two phases.  A backward loop carries only ebar, d(loss)/
d(experience), through the steps that are truly sequential, and records
it; each parameter group's gradient is then one reduction over those
records and the forward rollout's.  Tests check it against a forward-mode
oracle and central finite differences.

A fit sets up one ``_Problem`` per (curriculum, observed, mask), holding
every buffer the rollout and the adjoint write and their per-step views,
and allocates its Adam moments once.  Each optimizer step then runs as
ufuncs writing into those buffers, in the same operations and order as
the plain expressions, so results are bitwise those of an allocating
evaluation.  Every (steps, algorithms, tasks) array is stored step-major
and C-contiguous: the observed curves are stacked that way once, the
loops read and write those buffers directly, and the reductions sum over
them in that layout.  ``loss`` and ``gradient`` build one problem per
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DivergenceError, ValidationError
from .model import (
    D_MIN,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    _Rollout,
    _checked_arrays,
    _forward_curves,
    _param_arrays,
    _params_from_arrays,
    simulate_all,
)
from .scenarios import ScenarioSpec, generate

# Per-parameter-group mean-squared-error bounds the recovery check is held
# to (twice the errors the approach is known to reach on this setup).
RECOVERY_THRESHOLDS = {
    "transfer": 0.24,
    "difficulty": 0.08,
    "gamma": 0.04,
    "h": 0.02,
    "lambda": 0.05,
}
# The parameter groups in packed order; every per-group table uses it.
_GROUPS = tuple(RECOVERY_THRESHOLDS)

# Scrambling constant used to derive an initialization seed that cannot
# collide with the seed that sampled a synthetic ground truth.
_SEED_SCRAMBLE = 0x9E3779B97F4A7C15

# Adam's moment decay rates and denominator guard (Kingma & Ba's values).
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.  Defaults: 1000 Adam steps at learning rate 1e-2
    from seed 0.

    ``seed`` draws the starting point, every entry uniformly inside its
    box; the transfer diagonal is then pinned at 1.  Adam's moment rates
    and epsilon are the standard 0.9, 0.999 and 1e-8."""

    steps: int = 1000
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValidationError("steps must be nonnegative")
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a fit: estimated parameters, their predictions, and losses.

    ``loss_total`` and ``loss_per_algorithm`` are mean squared errors over
    masked entries (user-facing scale); ``loss_trace`` holds the same
    normalized loss before each optimizer step plus the final value, so it
    has steps+1 entries.
    """

    params: ScenarioParams
    predicted: tuple[PerformanceMatrix, ...]
    loss_total: float
    loss_per_algorithm: dict[str, float]
    loss_trace: np.ndarray


@dataclass(frozen=True, eq=False)
class ParamGradient:
    """Partial derivatives of the loss, shaped like ScenarioParams."""

    transfer: np.ndarray
    difficulty: np.ndarray
    transfer_efficiency: np.ndarray
    experience_retention: np.ndarray
    expertise_translation: np.ndarray


def _check_shapes(curriculum: Curriculum, observed) -> tuple[np.ndarray, np.ndarray]:
    """Stack observed matrices to step-major (m, p, n) values and mask
    arrays."""
    if len(observed) < 1:
        raise ValidationError("at least one observed matrix is required")
    n, m = curriculum.n_tasks, curriculum.m
    for o in observed:
        if o.values.shape != (n, m):
            raise ValidationError(
                f"observed matrix for {o.algorithm!r} has shape {o.values.shape}, "
                f"expected {(n, m)}"
            )
    obs = np.stack([o.values for o in observed]).transpose(2, 0, 1).copy()
    mask = np.stack([o.mask for o in observed]).transpose(2, 0, 1).copy()
    if not mask.any():
        raise ValidationError("observed data has no masked-true entries")
    return obs, mask


class _Problem:
    """One (curriculum, observed, mask) and every buffer that evaluating
    its loss and gradient writes, set up once.

    A fit evaluates the same problem at every optimizer step, so each
    evaluation refills these buffers through ufuncs with ``out=`` instead
    of allocating.  An evaluation writes every buffer in full before it
    reads it (states[0] alone is set once, to zero), in the order of the
    expression it evaluates; results are therefore bitwise the same
    whatever an earlier evaluation left behind.  Every (m, p, n) buffer
    is C-contiguous with the step axis first, like the rollout's, so each
    step's (p, n) slice is a contiguous operand of the backward loop.
    ``grad`` is the flat gradient laid out like ``_pack``, and
    ``grad_groups`` its ``_unpack`` views.
    """

    def __init__(self, curriculum: Curriculum, obs: np.ndarray, mask: np.ndarray):
        m, p, n = obs.shape
        self.rollout = _Rollout(n, p, curriculum.entries)
        self.obs = obs
        self.unobserved = ~mask
        self.resid = np.empty((m, p, n))
        # first the squared residuals, then what the output map adds to
        # ebar at step l
        self.inject = np.empty((m, p, n))
        # what one unit of dgain adds to the trained task's ebar through
        # its performance
        self.feedback = np.empty((m, p))
        # ebars[l] = d(loss)/d(states[l + 1]), dgains[l] = d(loss)/d(gain
        # at step l); ebar carries d(loss)/d(states[l]) between steps.
        self.ebars = np.empty((m, p, n))
        self.dgains = np.empty((m, p))
        self.ebar = np.empty((p, n))
        self.scratch = np.empty(p)
        self.per_row = np.empty((m, n))
        self.per_algo = np.empty((m, p))
        self.per_step = np.empty(m)
        self.grad = np.empty(n * n + n + 3 * p)
        self.grad_groups = _unpack(self.grad, n, p)

    @cached_property
    def phases(self):
        """Per step l, last step first: inject[l], ebars[l], transfer[i]
        per algorithm, dgains[l], feedback[l] and ebar[:, i].  Built on
        the first gradient, as ``loss`` never reads them."""
        columns = list(self.ebar.T)
        return list(
            zip(
                self.inject[::-1],
                self.ebars[::-1],
                self.rollout.rows_p[::-1],
                self.dgains[::-1],
                self.feedback[::-1],
                [columns[i] for i in self.rollout.entries[::-1]],
            )
        )

    def loss(self, arrays) -> float:
        """Rollout at the parameter groups ``arrays``; leaves the masked
        residuals in ``resid`` and returns their summed squares (the raw
        loss)."""
        pred = _forward_curves(self.rollout, *arrays)
        np.subtract(pred, self.obs, out=self.resid)
        np.copyto(self.resid, 0.0, where=self.unobserved)
        np.multiply(self.resid, self.resid, out=self.inject)
        return float(np.add.reduce(self.inject, axis=None))

    def loss_and_grad(self, arrays) -> float:
        """Forward rollout plus the two-phase adjoint (see the module
        docstring) at the parameter groups ``arrays``.

        Returns the raw summed-squares loss and leaves its gradient in
        ``grad``.  No BLAS call, so results are bitwise deterministic at any
        thread count.
        """
        _, difficulty, _, _, translation = arrays
        loss = self.loss(arrays)  # also fills the rollout's keep
        ws = self.rollout
        e, pred = ws.entries, ws.curves
        inject, feedback = self.inject, self.feedback
        # inject = resid * (1 - pred * pred) / difficulty
        np.multiply(pred, pred, out=inject)
        np.subtract(1.0, inject, out=inject)
        np.multiply(self.resid, inject, out=inject)
        np.divide(inject, difficulty, out=inject)
        # feedback = lambda * (0.5 * (1 - before * before)) / difficulty[e]
        np.multiply(ws.before, ws.before, out=feedback)
        np.subtract(1.0, feedback, out=feedback)
        np.multiply(feedback, 0.5, out=feedback)
        np.multiply(translation, feedback, out=feedback)
        np.divide(feedback, ws.row_difficulty, out=feedback)

        add, multiply, reduce = np.add, np.multiply, np.add.reduce
        ebar, keep, pn, scratch = self.ebar, ws.keep, ws.scratch, self.scratch
        ebar.fill(0.0)
        for inj, ebar_l, row, dgain, fb, trained_ebar in self.phases:
            add(ebar, inj, ebar_l)
            multiply(ebar_l, row, pn)
            reduce(pn, axis=1, out=dgain)
            multiply(ebar_l, keep, ebar)
            # at l = 0 this is d(loss)/d(states[0]), which nothing reads
            multiply(dgain, fb, scratch)
            add(trained_ebar, scratch, trained_ebar)

        g_transfer, g_difficulty, g_gamma, g_retention, g_translation = self.grad_groups
        dgains = self.dgains
        g_transfer.fill(0.0)
        np.einsum("lpn,lp->ln", self.ebars, ws.gains, out=self.per_row)
        np.add.at(g_transfer, e, self.per_row)
        np.einsum("lpn,lpn->n", inject, ws.states[1:], out=g_difficulty)
        np.negative(g_difficulty, out=g_difficulty)
        np.divide(g_difficulty, difficulty, out=g_difficulty)
        # before[l] also reads difficulty[e[l]], through the trained task's
        # experience before step l (zero at l = 0)
        per_algo, per_step = self.per_algo, self.per_step
        np.multiply(dgains, feedback, out=per_algo)
        np.multiply(per_algo, ws.trained, out=per_algo)
        np.add.reduce(per_algo, axis=1, out=per_step)
        np.negative(per_step, out=per_step)
        np.add.at(g_difficulty, e, per_step)
        np.add.reduce(dgains, axis=0, out=g_gamma)
        np.einsum("lpn,lpn->p", self.ebars, ws.states[:-1], out=g_retention)
        np.multiply(dgains, ws.before, out=per_algo)
        np.add.reduce(per_algo, axis=0, out=g_translation)
        return loss


def _problem(params: ScenarioParams, curriculum: Curriculum, observed):
    arrays = _checked_arrays(params, curriculum)
    return arrays, _Problem(curriculum, *_check_shapes(curriculum, observed))


def loss(params: ScenarioParams, curriculum: Curriculum, observed) -> float:
    """Summed squared error between simulated and observed curves (masked
    entries excluded)."""
    arrays, problem = _problem(params, curriculum, observed)
    return problem.loss(arrays)


def gradient(params: ScenarioParams, curriculum: Curriculum, observed) -> ParamGradient:
    """Exact derivatives of ``loss`` with respect to every parameter."""
    arrays, problem = _problem(params, curriculum, observed)
    problem.loss_and_grad(arrays)
    return ParamGradient(*problem.grad_groups)


def _pack(arrays) -> np.ndarray:
    transfer, difficulty, gamma, retention, translation = arrays
    return np.concatenate(
        [transfer.ravel(), difficulty, gamma, retention, translation]
    )


def _unpack(theta: np.ndarray, n: int, p: int):
    k = n * n
    return (
        theta[:k].reshape(n, n),
        theta[k : k + n],
        theta[k + n : k + n + p],
        theta[k + n + p : k + n + 2 * p],
        theta[k + n + 2 * p :],
    )


def _bounds(n: int, p: int):
    """Box of the packed parameter vector; lo == hi == 1 pins the transfer
    diagonal."""
    lo = np.concatenate(
        [np.full(n * n, -1.0), np.full(n, D_MIN), np.zeros(3 * p)]
    )
    hi = np.concatenate(
        [np.ones(n * n), np.full(n + p, np.inf), np.ones(p), np.full(p, np.inf)]
    )
    lo[: n * n : n + 1] = 1.0
    return lo, hi


def _component_name(flat_index: int, n: int, p: int, algo_names) -> str:
    k = n * n
    if flat_index < k:
        return f"transfer[{flat_index // n},{flat_index % n}]"
    flat_index -= k
    if flat_index < n:
        return f"difficulty[{flat_index}]"
    flat_index -= n
    group, a = divmod(flat_index, p)
    label = _GROUPS[2 + group]
    return f"{label}({algo_names[a]})"


def _first_nonfinite(x: np.ndarray) -> int | None:
    """Index of the first non-finite entry of ``x``, or None."""
    # A finite sum has only finite terms, so the scan runs only after an
    # overflow or a NaN.
    if math.isfinite(np.add.reduce(x)):
        return None
    bad = np.flatnonzero(~np.isfinite(x))
    return int(bad[0]) if bad.size else None


def _initial_theta(n: int, p: int, seed: int) -> np.ndarray:
    """Packed starting point drawn uniformly inside the box: transfer from
    [-1, 1], every other entry from [0, 1]."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.uniform(-1.0, 1.0, size=n * n), rng.uniform(0.0, 1.0, size=n + 3 * p)]
    )


def fit(
    curriculum: Curriculum,
    observed,
    config: FitConfig = FitConfig(),
    *,
    init_params: ScenarioParams | None = None,
    callback=None,
) -> FitResult:
    """Estimate latent parameters from observed curves.

    Runs ``config.steps`` Adam updates on the summed-squares objective,
    projecting onto the feasible boxes after every update.  Deterministic
    given (config, inputs).  ``init_params`` overrides the seeded random
    initialization.  ``callback(step, loss, feasible)`` is invoked once per
    update with the 1-based step index, the normalized loss at the point
    the update's gradient was taken, and whether the projected parameters
    satisfy every box constraint.

    Every algorithm shares one transfer matrix and difficulty vector.  Its
    diagonal is held at exactly 1, also when ``init_params`` has another
    diagonal (see the module docstring for why).  The final losses come
    from one more evaluation at the last parameters, and one closing
    ``simulate_all`` gives the predictions: the same kernel, so the same
    curves bit for bit.

    Raises DivergenceError if the loss, the gradient of a parameter the
    fit moves, or a parameter goes non-finite; the loss is checked first.
    """
    obs, mask = _check_shapes(curriculum, observed)
    n, p = curriculum.n_tasks, len(observed)
    names = [o.algorithm for o in observed]
    if len(set(names)) != len(names):
        raise ValidationError("observed algorithm names must be unique")

    if init_params is not None:
        if init_params.n != n or init_params.p != p:
            raise ValidationError("init_params shape does not match inputs")
        theta = _pack(_param_arrays(init_params))
    else:
        theta = _initial_theta(n, p, config.seed)

    lo, hi = _bounds(n, p)
    pinned = lo == hi
    theta = np.clip(theta, lo, hi)
    n_masked = int(np.sum(mask))
    scale = 1.0 / n_masked

    # Adam updates theta in place, so these views follow every step.
    problem, arrays = _Problem(curriculum, obs, mask), _unpack(theta, n, p)
    g = problem.grad
    moment1 = np.zeros_like(theta)
    moment2 = np.zeros_like(theta)
    step, denom = np.empty_like(theta), np.empty_like(theta)
    trace = np.empty(config.steps + 1)
    # Overflow is expected on the way to divergence; every non-finite value
    # in this block is checked and reported, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.steps + 1):
            value = problem.loss_and_grad(arrays)
            if not math.isfinite(value):
                raise DivergenceError(t - 1, "loss")
            # the pinned diagonal's gradient is never used, so never examined
            np.copyto(g, 0.0, where=pinned)
            bad = _first_nonfinite(g)
            if bad is not None:
                raise DivergenceError(
                    t - 1, "gradient of " + _component_name(bad, n, p, names)
                )
            trace[t - 1] = value * scale
            # moment1 = beta1 * moment1 + (1 - beta1) * g
            moment1 *= _BETA1
            np.multiply(g, 1.0 - _BETA1, out=step)
            moment1 += step
            # moment2 = beta2 * moment2 + (1 - beta2) * (g * g)
            moment2 *= _BETA2
            np.multiply(g, g, out=step)
            step *= 1.0 - _BETA2
            moment2 += step
            # step = lr * m_hat / (sqrt(v_hat) + epsilon), bias-corrected
            np.divide(moment2, 1.0 - _BETA2**t, out=denom)
            np.sqrt(denom, out=denom)
            denom += _EPSILON
            np.divide(moment1, 1.0 - _BETA1**t, out=step)
            step *= config.learning_rate
            step /= denom
            theta -= step
            theta.clip(lo, hi, out=theta)
            # a step can overflow a parameter that has no upper bound
            bad = _first_nonfinite(theta)
            if bad is not None:
                raise DivergenceError(t, _component_name(bad, n, p, names))
            if callback is not None:
                feasible = bool(np.all(theta >= lo) and np.all(theta <= hi))
                callback(t, float(trace[t - 1]), feasible)

        final_raw = problem.loss(arrays)
        if not math.isfinite(final_raw):
            raise DivergenceError(config.steps, "loss")
        squares = np.einsum("lpn,lpn->p", problem.resid, problem.resid)
        counts = np.maximum(mask.sum(axis=(0, 2)), 1)
        per_algo = {name: float(s / c) for name, s, c in zip(names, squares, counts)}
        # free the workspace before the closing rollout allocates its own
        del problem
        params = _params_from_arrays(*arrays, names)
        predicted = tuple(simulate_all(params, curriculum))
    trace[config.steps] = final_raw * scale
    return FitResult(
        params=params,
        predicted=predicted,
        loss_total=float(final_raw * scale),
        loss_per_algorithm=per_algo,
        loss_trace=trace,
    )


def fit_with_restarts(
    curriculum: Curriculum,
    observed,
    config: FitConfig = FitConfig(),
    restarts: int = 1,
    *,
    callback=None,
) -> FitResult:
    """Run ``restarts`` independent fits (seeds config.seed, config.seed+1,
    ...) and keep the lowest-loss result; ties go to the earliest run."""
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    best = None
    for r in range(restarts):
        cfg = replace(config, seed=(config.seed + r) % 2**64)
        result = fit(curriculum, observed, cfg, callback=callback)
        if best is None or result.loss_total < best.loss_total:
            best = result
    return best


def parameter_recovery_errors(
    truth: ScenarioParams, estimate: ScenarioParams
) -> dict[str, float]:
    """Mean squared error between two parameter sets, per parameter group.

    Algorithms are matched by position.  Invariant under any consistent
    relabeling (permutation) of tasks applied to both arguments.
    """
    if truth.n != estimate.n or truth.p != estimate.p:
        raise ValidationError("parameter sets have different shapes")
    ta, ea = _param_arrays(truth), _param_arrays(estimate)
    return {
        k: float(np.mean((ea[idx] - ta[idx]) ** 2)) for idx, k in enumerate(_GROUPS)
    }


@dataclass(frozen=True)
class RecoveryResult:
    """Aggregated synthetic-recovery errors.

    ``mse`` averages the per-trial parameter-group MSEs over successful
    trials; ``failures`` lists (trial index, message) for skipped trials.
    """

    mse: dict[str, float]
    per_trial: tuple[dict[str, float], ...]
    trials: int
    failures: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def n_succeeded(self) -> int:
        return len(self.per_trial)


def recovery_experiment(
    n_tasks: int = 5,
    n_algos: int = 3,
    curriculum_len: int = 9,
    trials: int = 20,
    config: FitConfig = FitConfig(),
    *,
    seed: int = 0,
) -> RecoveryResult:
    """Sample ground-truth scenarios, fit from scratch, and report how well
    each parameter group is recovered.

    ``seed`` lies in [0, 2**64); trial t uses seed ``(seed + t) % 2**64``
    for its ground truth and a scrambled function of it for the fit's
    random start, which never begins at the truth (a fit from the truth is
    ``fit(init_params=...)``).  Trials run one after another in this
    process.  A trial whose fit diverges is skipped and reported.
    """
    if min(n_tasks, n_algos, curriculum_len, trials) < 1:
        raise ValidationError("all experiment counts must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    per_trial, failures = [], []
    for t in range(trials):
        trial_seed = (seed + t) % 2**64
        spec = ScenarioSpec(
            n_tasks=n_tasks,
            n_algos=n_algos,
            curriculum_len=curriculum_len,
            seed=trial_seed,
        )
        truth, curriculum, data = generate(spec)
        # The fit's init seed is scrambled so it cannot start at the truth.
        cfg = replace(config, seed=(trial_seed ^ _SEED_SCRAMBLE) % 2**64)
        try:
            result = fit(curriculum, data, cfg)
        except DivergenceError as exc:
            failures.append((t, str(exc)))
            continue
        per_trial.append(parameter_recovery_errors(truth, result.params))

    if per_trial:
        mse = {k: float(np.mean([errs[k] for errs in per_trial])) for k in _GROUPS}
    else:
        mse = {k: float("nan") for k in _GROUPS}
    return RecoveryResult(
        mse=mse, per_trial=tuple(per_trial), trials=trials, failures=tuple(failures)
    )
