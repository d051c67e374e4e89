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
finite differences.  ``loss``, ``gradient`` and ``fit`` take caller
input through one ``_Problem``, which bounds the observations and passes
params through ``model._checked_curves``, so ``loss`` is finite or raises.
A fit of S steps evaluates the loss and its gradient at S+1 points.
Adam moves one packed parameter vector, whose layout ``model.py`` owns
(``model._pack``); ``_Problem`` holds it as ``theta``, beside the
gradient packed the same way.
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
    _GROUPS,
    _Adjoint,
    _Rollout,
    _backward,
    _checked_curves,
    _component_name,
    _forward_curves,
    _is_finite,
    _is_int,
    _pack,
    _params_from_arrays,
    _same_tasks,
    _unpack,
)
from .scenarios import ScenarioSpec, generate

# Per-parameter-group mean-squared-error bounds the recovery check is held
# to (twice the errors the approach reaches on this setup), in _GROUPS order.
RECOVERY_THRESHOLDS = {
    "transfer": 0.24,
    "difficulty": 0.08,
    "gamma": 0.04,
    "h": 0.02,
    "lambda": 0.05,
}

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
    """One curriculum with its observed curves, the point its loss and
    gradient are evaluated at, and the kernel buffers that evaluating them
    refills: ``rollout`` and its ``adjoint``.

    The observed matrices are checked against the curriculum and stacked
    step-major into ``obs`` and ``mask`` (m, p, n), algorithms in the
    order given; their names, ``names``, must be unique.  ``theta`` is the
    packed point (``model._pack``) and ``groups`` its ``_unpack`` views;
    ``set_params`` alone writes a parameter set there, paired with the
    observed matrices by position.  ``resid`` holds the last evaluation's
    masked residuals, ``grad`` the gradient packed like ``theta`` and
    ``grad_groups`` its views.
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
        # Predictions lie in [-1, 1], so no squared error exceeds (|obs| + 1)^2,
        # and _squares sums in this order: its loss is finite if this sum is.
        # Scaling by 2^-511 is exact below 2^512 (one square from there on
        # overflows) and keeps the sum normal; 4 - 2^-51 is float max * 2^-1022.
        b = np.where(self.mask, np.abs(self.obs) + 1.0, 0.0) * 2.0**-511
        if b.max() >= 2.0 or np.add.reduce(b * b, axis=None) > 4.0 - 2.0**-51:
            raise ValidationError("observed values too large: squared errors overflow")
        self.rollout = _Rollout(n, p, curriculum.entries)
        self.adjoint = _Adjoint(self.rollout)
        self.unobserved = ~self.mask
        self.resid = np.empty((m, p, n))
        self.theta = np.empty(n * n + n + 3 * p)
        self.groups = _unpack(self.theta, n, p)
        self.grad = np.empty_like(self.theta)
        self.grad_groups = _unpack(self.grad, n, p)

    def set_params(self, params: ScenarioParams) -> float:
        """Write ``params`` into ``theta``, paired with the observed matrices by
        position (names not compared), and return the raw loss there through the
        door, ``model._checked_curves``; ValidationError unless counts match."""
        _, p, n = self.obs.shape
        _same_tasks("parameter set", params.n, "curriculum", n)
        if params.p != p:
            raise ValidationError(
                f"parameter set covers {params.p} algorithms, observed data has {p}"
            )
        self.theta[:] = _pack(params)
        return self._squares(_checked_curves(self.rollout, self.groups, params))

    def _squares(self, pred) -> float:
        """Leaves the masked residuals of ``pred`` in ``resid`` and returns
        their summed squares (the raw loss)."""
        np.subtract(pred, self.obs, out=self.resid)
        np.copyto(self.resid, 0.0, where=self.unobserved)
        # the squares borrow the adjoint's inject, which _backward
        # overwrites before it reads, so no (m, p, n) buffer is added
        squares = np.multiply(self.resid, self.resid, out=self.adjoint.inject)
        return float(np.add.reduce(squares, axis=None))

    def loss_and_grad(self) -> float:
        """The raw loss at ``theta``, unchecked like a fit's iterates; leaves
        the masked residuals in ``resid`` and their gradient in ``grad``."""
        loss = self._squares(_forward_curves(self.rollout, self.groups))
        _backward(self.adjoint, self.resid, self.groups, self.grad_groups)
        return loss


def loss(params: ScenarioParams, curriculum: Curriculum, observed) -> float:
    """Summed squared error between simulated and observed curves (masked
    entries excluded), always finite.  Algorithm k of ``params`` pairs with
    ``observed[k]`` by position, names not compared.  A task or algorithm
    count that does not match, a repeated observed name, params that
    overflow the rollout (as in ``simulate_all``) and observed values too
    large to square raise ValidationError."""
    return _Problem(curriculum, observed).set_params(params)


def gradient(params: ScenarioParams, curriculum: Curriculum, observed) -> ParamGradient:
    """Exact derivatives of ``loss`` with respect to every parameter; the
    inputs pair and are checked as for ``loss``.  Params whose rollout
    passes that check but whose adjoint overflows raise ValidationError
    naming the first derivative that is not finite."""
    problem = _Problem(curriculum, observed)
    problem.set_params(params)
    # params near a float's limit can overflow the adjoint; every entry is
    # checked below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        _backward(problem.adjoint, problem.resid, problem.groups, problem.grad_groups)
        bad = _first_nonfinite(problem.grad)
    if bad is not None:
        names = [a.name for a in params.algorithms]
        raise ValidationError(
            f"gradient of {_component_name(bad, params.n, params.p, names)} is not "
            "finite: the params overflow the adjoint"
        )
    return ParamGradient(*problem.grad_groups)


def _bounds(n: int, p: int):
    """Box of the packed parameter vector; lo == hi == 1 pins the transfer
    diagonal."""
    lo = np.repeat([-1.0, D_MIN, 0.0], [n * n, n, 3 * p])
    hi = np.repeat([1.0, np.inf, 1.0, np.inf], [n * n, n + p, p, p])
    lo[: n * n : n + 1] = 1.0
    return lo, hi


def _first_nonfinite(x: np.ndarray) -> int | None:
    """Index of the first non-finite entry of ``x``, or None."""
    # A finite sum has only finite terms, so the scan runs only after an
    # overflow or a NaN.
    if math.isfinite(np.add.reduce(x)):
        return None
    bad = np.flatnonzero(~np.isfinite(x))
    return int(bad[0]) if bad.size else None


def _descend(problem: _Problem, config: FitConfig, callback):
    """Projected Adam from ``problem.theta``, which it moves in place.
    Leaves ``theta`` at the last of the ``config.steps + 1`` points it
    evaluates, ``problem.resid`` and ``problem.grad`` at that point, and
    returns the normalized loss at each."""
    _, p, n = problem.obs.shape
    lo, hi = _bounds(n, p)
    pinned = lo == hi
    # Adam moves theta in place, so problem.groups follow every step.
    theta, g = problem.theta, problem.grad
    theta.clip(lo, hi, out=theta)
    scale = 1.0 / int(np.sum(problem.mask))

    moment1 = moment2 = np.zeros_like(theta)
    trace = np.empty(config.steps + 1)
    # Overflow is expected on the way to divergence; every non-finite value
    # in this block is checked and reported, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.steps + 2):
            value = problem.loss_and_grad()
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
    start; it and ``observed`` pair and are checked as for ``loss``.
    ``callback(step, loss, feasible)`` is invoked once per update with the
    1-based step index, the normalized loss at the point the update's
    gradient was taken, and whether the projected parameters satisfy every
    box constraint.

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
        problem.set_params(init_params)
    else:
        rng = np.random.default_rng(config.seed)
        problem.theta[: n * n] = rng.uniform(-1.0, 1.0, size=n * n)
        problem.theta[n * n :] = rng.uniform(0.0, 1.0, size=n + 3 * p)
    trace = _descend(problem, config, callback)
    squares = np.einsum("lpn,lpn->p", problem.resid, problem.resid)
    counts = np.maximum(problem.mask.sum(axis=(0, 2)), 1)
    per_algo = {name: float(s / c) for name, s, c in zip(names, squares, counts)}
    return FitResult(
        params=_params_from_arrays(*problem.groups, names),
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
    configs = (replace(config, seed=(config.seed + r) % 2**64) for r in range(restarts))
    results = (fit(curriculum, observed, cfg, callback=callback) for cfg in configs)
    # min keeps the first of equal keys, so ties go to the earliest run
    return min(results, key=lambda result: result.loss_total)


def parameter_recovery_errors(
    truth: ScenarioParams, estimate: ScenarioParams
) -> dict[str, float]:
    """Mean squared error between two parameter sets, per parameter group.

    Algorithms are matched by position.  Invariant under any consistent
    relabeling (permutation) of tasks applied to both arguments.
    """
    if truth.n != estimate.n or truth.p != estimate.p:
        raise ValidationError("parameter sets have different shapes")
    n, p = truth.n, truth.p
    pairs = zip(_GROUPS, _unpack(_pack(truth), n, p), _unpack(_pack(estimate), n, p))
    return {k: float(np.mean((e - t) ** 2)) for k, t, e in pairs}


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
