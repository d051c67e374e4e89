"""Domain types and the deterministic forward model.

A lifelong learner works through a curriculum of tasks.  Each task holds
a hidden *experience*, zero at the start.  Training task i updates every
task j as ``new[j] = old[j] * h + transfer[i, j] * gain``, where gain is
gamma + before * lambda and ``before`` is task i's performance before
the step.  Performance is 2 / (1 + exp(-e / d)) - 1 of experience e over
difficulty d, computed as tanh(0.5 * (e / d)), which cannot overflow; it
lies in [-1, 1] and is odd, increasing and zero at zero.  All public
functions here are pure: inputs are never mutated and equal inputs give
bitwise-equal outputs.

``simulate_all`` is the one implementation of both.  Its rollout,
``_forward_curves``, writes into a ``_Rollout``: buffers and per-step
views set up once per curriculum, so the estimator's thousand rollouts
per fit allocate nothing.  Every buffer is step-major, and its loop runs
on numpy's contiguous same-shape fast path wherever a value can be
repeated into a buffer first.  ``simulate_all`` builds one per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Difficulties below this bound would make the experience-to-performance
# division ill-conditioned; sampling, parsing, and projection all respect it.
D_MIN = 1e-3


@dataclass(frozen=True)
class TaskSet:
    """Ordered collection of distinct task names."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 1:
            raise ValidationError("a task set needs at least one task")
        if any(not isinstance(t, str) or not t for t in self.names):
            raise ValidationError("task names must be non-empty strings")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("task names must be unique")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown task {name!r}") from None


@dataclass(frozen=True)
class Curriculum:
    """Sequence of task indices trained at each step (0-based, length m)."""

    entries: tuple[int, ...]
    n_tasks: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if self.n_tasks < 1:
            raise ValidationError("n_tasks must be at least 1")
        if len(self.entries) < 1:
            raise ValidationError("a curriculum needs at least one entry")
        for e in self.entries:
            if not 0 <= e < self.n_tasks:
                raise ValidationError(
                    f"curriculum entry {e} out of range for {self.n_tasks} tasks"
                )

    @property
    def m(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class TaskProperties:
    """Shared task parameters: transfer matrix and per-task difficulty.

    ``transfer[i, j]`` scales how training task i changes experience on
    task j; entries lie in [-1, 1].  ``difficulty[j]`` divides experience
    inside the performance sigmoid and must be at least D_MIN.
    """

    transfer: np.ndarray
    difficulty: np.ndarray

    def __post_init__(self):
        a = np.array(self.transfer, dtype=np.float64)
        d = np.array(self.difficulty, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"transfer must be square, got shape {a.shape}")
        if d.ndim != 1 or d.shape[0] != a.shape[0]:
            raise ValidationError(
                f"difficulty shape {d.shape} does not match transfer {a.shape}"
            )
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(d)):
            raise ValidationError("task properties must be finite")
        if np.any(a < -1.0) or np.any(a > 1.0):
            raise ValidationError("transfer entries must lie in [-1, 1]")
        if np.any(d < D_MIN):
            raise ValidationError(f"difficulty entries must be at least {D_MIN}")
        a.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "transfer", a)
        object.__setattr__(self, "difficulty", d)

    @property
    def n(self) -> int:
        return self.difficulty.shape[0]


@dataclass(frozen=True)
class AlgorithmProperties:
    """Per-algorithm latent parameters.

    transfer_efficiency (>= 0): experience gained per training step.
    experience_retention (in [0, 1]): multiplicative per-step memory decay;
        1 retains everything, 0 forgets everything.
    expertise_translation (>= 0): converts current performance on the
        trained task into extra experience.
    """

    name: str
    transfer_efficiency: float
    experience_retention: float
    expertise_translation: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("algorithm name must be a non-empty string")
        g = float(self.transfer_efficiency)
        h = float(self.experience_retention)
        lam = float(self.expertise_translation)
        if not (math.isfinite(g) and math.isfinite(h) and math.isfinite(lam)):
            raise ValidationError("algorithm properties must be finite")
        if g < 0.0:
            raise ValidationError("transfer_efficiency must be nonnegative")
        if lam < 0.0:
            raise ValidationError("expertise_translation must be nonnegative")
        if not 0.0 <= h <= 1.0:
            raise ValidationError("experience_retention must lie in [0, 1]")
        object.__setattr__(self, "transfer_efficiency", g)
        object.__setattr__(self, "experience_retention", h)
        object.__setattr__(self, "expertise_translation", lam)


# The short name of each algorithm property (its params-file key and table
# header) and its AlgorithmProperties field, in packed order, which is also
# the field order.
ALGORITHM_FIELDS = {
    "gamma": "transfer_efficiency",
    "h": "experience_retention",
    "lambda": "expertise_translation",
}


def _algorithm_record(algo: AlgorithmProperties) -> dict:
    """``{"name", "gamma", "h", "lambda"}``, as a params file and the
    property table's machine form hold one algorithm."""
    return {"name": algo.name} | {
        key: getattr(algo, f) for key, f in ALGORITHM_FIELDS.items()
    }


@dataclass(frozen=True, eq=False)
class ScenarioParams:
    """Full latent parameter set: shared task properties plus one
    AlgorithmProperties per algorithm, each with its own name."""

    tasks: TaskProperties
    algorithms: tuple[AlgorithmProperties, ...]

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if len(self.algorithms) < 1:
            raise ValidationError("at least one algorithm is required")
        for a in self.algorithms:
            if not isinstance(a, AlgorithmProperties):
                raise ValidationError("algorithms must be AlgorithmProperties")
        names = self.algorithm_names()
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate algorithm name in {list(names)}")

    @property
    def n(self) -> int:
        return self.tasks.n

    @property
    def p(self) -> int:
        return len(self.algorithms)

    def algorithm_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.algorithms)


@dataclass(frozen=True, eq=False)
class PerformanceMatrix:
    """Per-algorithm n-tasks x m-steps performance values.

    ``mask[j, l]`` is True where the entry is observed/defined; masked-out
    entries are ignored by all loss computations.  Observed data may span
    any finite range (masked entries may hold anything); model output
    always lies in (-1, 1).
    """

    algorithm: str
    values: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim != 2:
            raise ValidationError(f"values must be 2-d, got shape {v.shape}")
        if self.mask is None:
            m = np.ones(v.shape, dtype=bool)
        else:
            m = np.array(self.mask, dtype=bool, order="C")
        if m.shape != v.shape:
            raise ValidationError(
                f"mask shape {m.shape} does not match values {v.shape}"
            )
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ValidationError("algorithm name must be a non-empty string")
        if not np.isfinite(v[m]).all():
            raise ValidationError("observed values must be finite")
        v.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def n_tasks(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


class _Rollout:
    """Every buffer a rollout of one curriculum writes, and the per-phase
    views into them, set up once so that repeated rollouts allocate
    nothing.

    ``states`` (m+1, p, n) is the experience trajectory: states[0] is all
    zeros and states[l+1] is experience after curriculum step l.  Of shape
    (m, p): ``trained``, the trained task's experience over its difficulty
    before step l; ``before``, that task's performance; ``gains``, the
    gain gamma + before * lambda that step l adds along its transfer row.
    ``curves`` (m, p, n) is the sigmoid of states[1:].  Every buffer is
    C-contiguous with the step axis first.

    The loop's operands are laid out for numpy's contiguous same-shape
    fast path, which costs about half of a broadcasting or strided call:
    ``keep`` (p, n) is the retention broadcast over tasks, ``half`` a (p,)
    vector of 0.5, and ``rows_p`` (m, p, n) and ``row_difficulty`` (m, p)
    hold the trained task's transfer row and difficulty once per
    algorithm.  Repeating a value changes no result.
    """

    def __init__(self, n: int, p: int, entries):
        m = len(entries)
        self.entries = np.array(entries, dtype=np.intp)
        self.states = np.empty((m + 1, p, n))
        self.states[0] = 0.0  # never written again
        self.trained = np.empty((m, p))
        self.before = np.empty((m, p))
        self.gains = np.empty((m, p))
        # transfer[entries] and difficulty[entries] per algorithm, and the
        # retention per task, refilled per rollout
        self.entries_p = np.repeat(self.entries[:, None], p, axis=1)
        self.rows_p = np.empty((m, p, n))
        self.row_difficulty = np.empty((m, p))
        self.keep = np.empty((p, n))
        self.half = np.full(p, 0.5)
        self.curves = np.empty((m, p, n))
        self.scratch = np.empty((p, n))
        # per step l: states[l], states[l + 1], states[l, :, i] and one
        # row of each record
        self.phases = list(
            zip(
                self.states[:-1],
                self.states[1:],
                [s[:, i] for s, i in zip(self.states, self.entries)],
                self.row_difficulty,
                self.trained,
                self.before,
                self.gains,
                self.gains[:, :, None],
                self.rows_p[:, 0],
            )
        )


def _forward_curves(
    ws: _Rollout,
    transfer: np.ndarray,
    difficulty: np.ndarray,
    gamma: np.ndarray,
    retention: np.ndarray,
    translation: np.ndarray,
) -> np.ndarray:
    """Vectorized rollout over all algorithms at once, in ``ws``'s buffers.

    Fills every record of ``ws`` and returns ``ws.curves``, the
    predictions of shape (m, p, n).  The loop writes only the records;
    ``curves`` is one sigmoid over them afterwards.  Every step is a ufunc
    writing into a buffer, in the order of the expression it evaluates, so
    results do not depend on whether a buffer held an earlier rollout.
    """
    # entries are in range (Curriculum checks them); "clip" lets take
    # write straight into out instead of through a buffer
    np.take(transfer, ws.entries_p, axis=0, out=ws.rows_p, mode="clip")
    np.take(difficulty, ws.entries_p, out=ws.row_difficulty, mode="clip")
    np.copyto(ws.keep, retention[:, None])
    add, multiply, divide, tanh = np.add, np.multiply, np.divide, np.tanh
    keep, half, scratch = ws.keep, ws.half, ws.scratch
    for prev, nxt, src, d, trained, before, gain, gain_col, row in ws.phases:
        # before = tanh(0.5 * (experience / d)), task i's performance
        divide(src, d, trained)
        multiply(trained, half, before)
        tanh(before, before)
        multiply(before, translation, gain)
        add(gamma, gain, gain)
        # nxt = prev * h + gain * transfer[i]
        multiply(prev, keep, nxt)
        multiply(gain_col, row, scratch)
        add(nxt, scratch, nxt)
    x = ws.curves
    np.divide(ws.states[1:], difficulty, out=x)
    x *= 0.5
    np.tanh(x, out=x)  # performance of every task, in place
    return x


def _param_arrays(params: ScenarioParams):
    """``(transfer, difficulty, gamma, retention, translation)``: one array
    per parameter group, the last three with one entry per algorithm in
    ALGORITHM_FIELDS order.  ``_params_from_arrays`` inverts it."""
    return params.tasks.transfer, params.tasks.difficulty, *(
        np.array([getattr(a, f) for a in params.algorithms])
        for f in ALGORITHM_FIELDS.values()
    )


def _params_from_arrays(
    transfer, difficulty, gamma, retention, translation, names
) -> ScenarioParams:
    """The inverse of ``_param_arrays``: entry a of each per-algorithm
    array belongs to the algorithm named ``names[a]``.  The arrays are
    copied, never kept."""
    return ScenarioParams(
        tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
        algorithms=tuple(
            AlgorithmProperties(name, *values)
            for name, *values in zip(names, gamma, retention, translation, strict=True)
        ),
    )


def _checked_arrays(params: ScenarioParams, curriculum: Curriculum):
    """``_param_arrays`` after checking that both cover the same tasks."""
    if curriculum.n_tasks != params.n:
        raise ValidationError(
            f"curriculum is over {curriculum.n_tasks} tasks, params have {params.n}"
        )
    return _param_arrays(params)


def simulate_all(params: ScenarioParams, curriculum: Curriculum) -> list[PerformanceMatrix]:
    """Forward rollout for every algorithm, order preserved.

    Params that overflow the rollout raise ValidationError naming the first
    curriculum step (and its algorithm) whose experience over difficulty is
    not finite; its curves would otherwise read exactly -1 or 1.
    """
    arrays = _checked_arrays(params, curriculum)
    ws = _Rollout(params.n, params.p, curriculum.entries)
    with np.errstate(over="ignore", invalid="ignore"):
        curves = _forward_curves(ws, *arrays)
        finite = np.isfinite(ws.states[1:] / arrays[1]).all(axis=2)
    if not finite.all():
        step, k = np.argwhere(~finite)[0]
        raise ValidationError(
            f"experience over difficulty of {params.algorithms[k].name!r} is not "
            f"finite at step {step}: the params overflow the rollout"
        )
    return [
        PerformanceMatrix(algorithm=a.name, values=curves[:, k].T)
        for k, a in enumerate(params.algorithms)
    ]
