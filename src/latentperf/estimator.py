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

Gradients are exact: ``model._backward`` is the hand-derived adjoint of
the rollout, checked by tests against a forward-mode oracle and central
finite differences.  A fit of S steps builds one ``_Problem`` and
evaluates the loss and its gradient at S+1 points, the last of which
gives the final losses; ``loss`` and ``gradient`` build one per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceError, ValidationError
from .model import (
    D_MIN,
    Curriculum,
    ScenarioParams,
    _Adjoint,
    _Rollout,
    _backward,
    _forward_curves,
    _is_finite,
    _is_int,
    _param_arrays,
    _params_from_arrays,
    _same_tasks,
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
    """Optimizer settings.  ``seed`` draws the starting point: transfer
    entries uniformly from [-1, 1] and every other entry from [0, 1], then
    projected into the box.  Adam's moment rates and epsilon are the
    standard 0.9, 0.999 and 1e-8."""

    steps: int = 1000
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.steps) or self.steps < 0:
            raise ValidationError("steps must be a nonnegative integer")
        if not (_is_finite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a fit: estimated parameters and their losses.

    ``loss_total`` and ``loss_per_algorithm`` are mean squared errors over
    masked entries (user-facing scale); ``loss_trace`` holds the same
    normalized loss before each optimizer step plus the final value, so it
    has steps+1 entries.
    """

    params: ScenarioParams
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


class _Problem:
    """One curriculum with its observed curves, and the kernel buffers
    that evaluating its loss and gradient refills: ``rollout`` and its
    ``adjoint``.

    The observed matrices are checked against the curriculum and stacked
    step-major into ``obs`` and ``mask`` (m, p, n), algorithms in the
    order given; their names, ``names``, must be unique.  ``arrays`` alone
    pairs a parameter set with them, by position.  ``resid`` holds the
    last evaluation's masked residuals.  ``grad`` is the flat gradient
    laid out like ``_pack``, and ``grad_groups`` its ``_unpack`` views.
    """

    def __init__(self, curriculum: Curriculum, observed):
        if len(observed) < 1:
            raise ValidationError("at least one observed matrix is required")
        n, m, p = curriculum.n_tasks, curriculum.m, len(observed)
        self.names = [o.algorithm for o in observed]
        if len(set(self.names)) != p:
            raise ValidationError("observed algorithm names must be unique")
        for o in observed:
            if o.values.shape != (n, m):
                raise ValidationError(
                    f"observed matrix for {o.algorithm!r} has shape {o.values.shape}, "
                    f"expected {(n, m)}"
                )
        self.obs = np.stack([o.values for o in observed]).transpose(2, 0, 1).copy()
        self.mask = np.stack([o.mask for o in observed]).transpose(2, 0, 1).copy()
        if not self.mask.any():
            raise ValidationError("observed data has no masked-true entries")
        self.rollout = _Rollout(n, p, curriculum.entries)
        self.adjoint = _Adjoint(self.rollout)
        self.unobserved = ~self.mask
        self.resid = np.empty((m, p, n))
        self.grad = np.empty(n * n + n + 3 * p)
        self.grad_groups = _unpack(self.grad, n, p)

    def arrays(self, params: ScenarioParams):
        """``params`` as the parameter groups the evaluations take, paired
        with the observed matrices by position (names are not compared).
        Raises ValidationError unless the task and algorithm counts match."""
        _, p, n = self.obs.shape
        _same_tasks("parameter set", params.n, "curriculum", n)
        if params.p != p:
            raise ValidationError(
                f"parameter set covers {params.p} algorithms, observed data has {p}"
            )
        return _param_arrays(params)

    def loss(self, arrays) -> float:
        """Rollout at the parameter groups ``arrays``; leaves the masked
        residuals in ``resid`` and returns their summed squares (the raw
        loss)."""
        pred = _forward_curves(self.rollout, *arrays)
        np.subtract(pred, self.obs, out=self.resid)
        np.copyto(self.resid, 0.0, where=self.unobserved)
        # the squares borrow the adjoint's inject, which _backward
        # overwrites before it reads, so no (m, p, n) buffer is added
        squares = np.multiply(self.resid, self.resid, out=self.adjoint.inject)
        return float(np.add.reduce(squares, axis=None))

    def loss_and_grad(self, arrays) -> float:
        """Returns ``loss(arrays)`` and leaves its gradient in ``grad``."""
        _, difficulty, _, _, translation = arrays
        loss = self.loss(arrays)
        _backward(self.adjoint, self.resid, difficulty, translation, self.grad_groups)
        return loss


def loss(params: ScenarioParams, curriculum: Curriculum, observed) -> float:
    """Summed squared error between simulated and observed curves (masked
    entries excluded).  Algorithm k of ``params`` pairs with ``observed[k]``
    by position, names not compared; a task or algorithm count that does
    not match, or a repeated observed name, raises ValidationError."""
    problem = _Problem(curriculum, observed)
    return problem.loss(problem.arrays(params))


def gradient(params: ScenarioParams, curriculum: Curriculum, observed) -> ParamGradient:
    """Exact derivatives of ``loss`` with respect to every parameter; the
    inputs pair and are checked as for ``loss``."""
    problem = _Problem(curriculum, observed)
    problem.loss_and_grad(problem.arrays(params))
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
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.uniform(-1.0, 1.0, size=n * n), rng.uniform(0.0, 1.0, size=n + 3 * p)]
    )


def _descend(problem: _Problem, theta: np.ndarray, config: FitConfig, callback):
    """Projected Adam from the packed start ``theta``, updated in place.
    Leaves ``theta`` at the last of the ``config.steps + 1`` points it
    evaluates, ``problem.resid`` and ``problem.grad`` at that point, and
    returns the normalized loss at each."""
    _, p, n = problem.obs.shape
    lo, hi = _bounds(n, p)
    pinned = lo == hi
    theta.clip(lo, hi, out=theta)
    scale = 1.0 / int(np.sum(problem.mask))

    # Adam updates theta in place, so these views follow every step.
    arrays = _unpack(theta, n, p)
    g = problem.grad
    moment1 = moment2 = np.zeros_like(theta)
    trace = np.empty(config.steps + 1)
    # Overflow is expected on the way to divergence; every non-finite value
    # in this block is checked and reported, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.steps + 2):
            value = problem.loss_and_grad(arrays)
            if not math.isfinite(value):
                raise DivergenceError(t - 1, "loss")
            trace[t - 1] = value * scale
            if t > config.steps:
                return trace
            # the pinned diagonal's gradient is never used, so never examined
            np.copyto(g, 0.0, where=pinned)
            bad = _first_nonfinite(g)
            if bad is not None:
                raise DivergenceError(
                    t - 1, "gradient of " + _component_name(bad, n, p, problem.names)
                )
            moment1 = _BETA1 * moment1 + (1.0 - _BETA1) * g
            moment2 = _BETA2 * moment2 + (1.0 - _BETA2) * (g * g)
            m_hat, v_hat = moment1 / (1.0 - _BETA1**t), moment2 / (1.0 - _BETA2**t)
            theta -= config.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
            theta.clip(lo, hi, out=theta)
            # a step can overflow a parameter that has no upper bound
            bad = _first_nonfinite(theta)
            if bad is not None:
                raise DivergenceError(t, _component_name(bad, n, p, problem.names))
            if callback is not None:
                feasible = bool(np.all(theta >= lo) and np.all(theta <= hi))
                callback(t, float(trace[t - 1]), feasible)


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
    initialization; it pairs with ``observed`` by position, and count
    mismatches raise ValidationError.  ``callback(step, loss, feasible)``
    is invoked once per update with the 1-based step index, the normalized
    loss at the point the update's gradient was taken, and whether the
    projected parameters satisfy every box constraint.

    Every algorithm shares one transfer matrix and difficulty vector.  Its
    diagonal is held at exactly 1, also when ``init_params`` has another
    diagonal (see the module docstring for why).  The loss and its gradient
    are evaluated at steps+1 points, the last of which gives the final
    losses; their curves are ``simulate_all(result.params, curriculum)``.

    Raises DivergenceError if the loss, the gradient of a parameter the
    fit moves, or a parameter goes non-finite; the loss is checked first.
    """
    problem = _Problem(curriculum, observed)
    n, p, names = curriculum.n_tasks, len(observed), problem.names
    if init_params is not None:
        theta = _pack(problem.arrays(init_params))
    else:
        theta = _initial_theta(n, p, config.seed)
    trace = _descend(problem, theta, config, callback)
    squares = np.einsum("lpn,lpn->p", problem.resid, problem.resid)
    counts = np.maximum(problem.mask.sum(axis=(0, 2)), 1)
    per_algo = {name: float(s / c) for name, s, c in zip(names, squares, counts)}
    return FitResult(
        params=_params_from_arrays(*_unpack(theta, n, p), names),
        loss_total=float(trace[-1]),
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
    if not _is_int(restarts) or restarts < 1:
        raise ValidationError("restarts must be an integer, at least 1")
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
    if not _is_int(trials) or trials < 1:
        raise ValidationError("trials must be an integer, at least 1")
    base = ScenarioSpec(n_tasks, n_algos, curriculum_len, seed)
    per_trial, failures = [], []
    for t in range(trials):
        spec = replace(base, seed=(seed + t) % 2**64)
        truth, curriculum, data = generate(spec)
        cfg = replace(config, seed=spec.seed ^ _SEED_SCRAMBLE)
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
