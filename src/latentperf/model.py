"""Domain types, the deterministic forward model and its adjoint.

A lifelong learner works through a curriculum of tasks.  Each task holds
a hidden *experience*, zero at the start.  Training task i updates every
task j as ``new[j] = old[j] * h + transfer[i, j] * gain``, where gain is
gamma + before * lambda and ``before`` is task i's performance before
the step.  Performance is 2 / (1 + exp(-e / d)) - 1 of experience e over
difficulty d, computed as tanh(e / (2 * d)), which cannot overflow; it
lies in [-1, 1] and is odd, increasing and zero at zero.  Doubling d is
exact, so this equals tanh(0.5 * (e / d)) bit for bit unless a nonzero
e / (2 * d) falls below the normal range or 2 * d overflows.  All public
functions here are pure: inputs are never mutated and equal inputs give
bitwise-equal outputs.

``simulate_all`` is the one implementation of both.  The kernel is
``_forward_curves``, which rolls experience forward into a ``_Rollout``,
and ``_backward``, its hand-derived adjoint, which carries the loss's
derivative back through the same steps into an ``_Adjoint``.  A fit runs
both at every optimizer step; ``simulate_all`` builds one rollout per
call and no adjoint.  Caller parameters reach the kernel only through
``_checked_curves``, which refuses any that overflow the rollout.  Both
read a parameter set in its one array form, owned here: the packed
vector that ``_pack`` lays out in ``_GROUPS`` order, ``_unpack`` views
by group and ``_params_from_arrays`` inverts.

Every (steps, algorithms, tasks) array an evaluation writes, and every
operand of the per-step loops, is a buffer set up once per curriculum
that ufuncs refill with ``out=``; smaller arrays, such as the adjoint's
epilogue, are plain expressions, where a buffer saves no time.  Each
buffer is written in full before it is read (states[0] alone is set
once, to zero), in the order of the expression it evaluates, so results
are bitwise those of an allocating evaluation whatever an earlier one
left behind.  Every (steps, algorithms, tasks) buffer is C-contiguous
with the step axis first, and the loops run on numpy's contiguous
same-shape fast path, about half the cost of a broadcasting or strided
call, wherever a value can be repeated into a buffer first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# Difficulties below this bound would make the experience-to-performance
# division ill-conditioned; sampling, parsing, and projection all respect it.
D_MIN = 1e-3


def _is_int(value) -> bool:
    """The one integer rule: a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The one real-number rule: an integer by ``_is_int``, or a Python or
    numpy float."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _is_finite(value) -> bool:
    """``_is_real`` and finite as a float: not NaN, not infinite, and not an
    integer too large to convert."""
    if _is_int(value):
        return -sys.float_info.max <= value <= sys.float_info.max
    return _is_real(value) and math.isfinite(value)


def _finite_array(value, name: str) -> np.ndarray:
    """``value``, an array or nested sequences whose entries each pass
    ``_is_finite``, as a new float64 array.  Ragged nesting, which numpy
    leaves as sequence entries, is refused as a shape fault."""
    entries = np.array(value, dtype=object)
    if not all(map(_is_finite, entries.flat)):
        if any(np.ndim(e) for e in entries.flat):
            raise ValidationError(f"{name} must be a rectangular array")
        raise ValidationError("task properties must be finite")
    return entries.astype(np.float64)


@dataclass(frozen=True)
class TaskSet:
    """Ordered collection of distinct task names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, str):
            raise ValidationError("task names must be a sequence of names, not one string")
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
        entries = tuple(self.entries)
        if not _is_int(self.n_tasks) or self.n_tasks < 1:
            raise ValidationError("n_tasks must be an integer, at least 1")
        if len(entries) < 1:
            raise ValidationError("a curriculum needs at least one entry")
        for e in entries:
            if not _is_int(e) or not 0 <= e < self.n_tasks:
                raise ValidationError(
                    f"curriculum entry {e} is not an integer in [0, {self.n_tasks})"
                )
        object.__setattr__(self, "entries", tuple(int(e) for e in entries))

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
        a = _finite_array(self.transfer, "transfer")
        d = _finite_array(self.difficulty, "difficulty")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"transfer must be square, got shape {a.shape}")
        if d.ndim != 1 or d.shape[0] != a.shape[0]:
            raise ValidationError(
                f"difficulty shape {d.shape} does not match transfer {a.shape}"
            )
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
        values = [getattr(self, f) for f in ALGORITHM_FIELDS.values()]
        if not all(map(_is_finite, values)):
            raise ValidationError("algorithm properties must be finite")
        g, h, lam = map(float, values)
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

# The parameter groups in packed order; every per-group table follows it.
_GROUPS = ("transfer", "difficulty", *ALGORITHM_FIELDS)


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
    """Every buffer a rollout of one curriculum writes, and the per-step
    views into them.

    ``states`` (m+1, p, n) is the experience trajectory: states[0] is all
    zeros and states[l+1] is experience after curriculum step l.  Of shape
    (m, p): ``trained``, the trained task's experience over 2 * difficulty
    before step l; ``before``, that task's performance; ``gains``, the
    gain gamma + before * lambda that step l adds along its transfer row.
    ``curves`` (m, p, n) is the sigmoid of states[1:].
    """

    def __init__(self, n: int, p: int, entries):
        m = len(entries)
        self.entries = np.array(entries, dtype=np.intp)
        self.states = np.empty((m + 1, p, n))
        self.states[0] = 0.0  # never written again
        self.trained = np.empty((m, p))
        self.before = np.empty((m, p))
        self.gains = np.empty((m, p))
        # same-shape loop operands, refilled per rollout: transfer[entries]
        # and 2 * difficulty[entries] per algorithm, the retention per task
        self.entries_p = np.repeat(self.entries[:, None], p, axis=1)
        self.rows_p = np.empty((m, p, n))
        self.row_difficulty = np.empty((m, p))
        self.keep = np.empty((p, n))
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


def _forward_curves(ws: _Rollout, groups) -> np.ndarray:
    """Vectorized rollout over all algorithms at once, in ``ws``'s buffers,
    at ``groups``, the ``_unpack`` views of a packed vector.

    Fills every record of ``ws`` and returns ``ws.curves``, the
    predictions of shape (m, p, n).  The loop writes only the records;
    ``curves`` is one sigmoid over them afterwards.
    """
    transfer, difficulty, gamma, retention, translation = groups
    # entries are in range (Curriculum checks them); "clip" lets take
    # write straight into out instead of through a buffer
    difficulty2 = difficulty * 2.0
    np.take(transfer, ws.entries_p, axis=0, out=ws.rows_p, mode="clip")
    np.take(difficulty2, ws.entries_p, out=ws.row_difficulty, mode="clip")
    np.copyto(ws.keep, retention[:, None])
    add, multiply, divide, tanh = np.add, np.multiply, np.divide, np.tanh
    keep, scratch = ws.keep, ws.scratch
    for prev, nxt, src, d2, trained, before, gain, gain_col, row in ws.phases:
        # before = tanh(experience / (2 * d)), task i's performance
        divide(src, d2, trained)
        tanh(trained, before)
        multiply(before, translation, gain)
        add(gamma, gain, gain)
        # nxt = prev * h + gain * transfer[i]
        multiply(prev, keep, nxt)
        multiply(gain_col, row, scratch)
        add(nxt, scratch, nxt)
    x = np.divide(ws.states[1:], difficulty2, out=ws.curves)
    return np.tanh(x, out=x)  # performance of every task, in place


class _Adjoint:
    """The buffers and per-step views of ``_backward`` for one
    ``_Rollout``, whose records it reads."""

    def __init__(self, rollout: _Rollout):
        m, p, n = rollout.curves.shape
        self.rollout = rollout
        # what the output map adds to ebar at step l
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
        # per step l, last step first: inject[l], ebars[l], transfer[i] per
        # algorithm, dgains[l], feedback[l] and ebar[:, i]
        columns = list(self.ebar.T)
        self.phases = list(
            zip(
                self.inject[::-1],
                self.ebars[::-1],
                rollout.rows_p[::-1],
                self.dgains[::-1],
                self.feedback[::-1],
                [columns[i] for i in rollout.entries[::-1]],
            )
        )


def _backward(adj: _Adjoint, resid, groups, grad_groups) -> None:
    """Write into ``grad_groups``, ``_unpack``'s views of a flat vector,
    the gradient of the summed squares of ``resid``: the masked residuals
    (m, p, n) of ``adj``'s rollout, which holds the forward pass at
    ``groups``, the views of another.

    Two phases.  The backward loop carries only ebar, d(loss)/
    d(experience), through the steps that are truly sequential, and
    records it; each group's gradient is then one reduction over those
    records and the rollout's.  No BLAS call, so results are bitwise
    deterministic at any thread count.
    """
    _, difficulty, _, _, translation = groups
    ws = adj.rollout
    e, pred = ws.entries, ws.curves
    inject, feedback = adj.inject, adj.feedback
    # inject = resid * (1 - pred * pred) / difficulty
    np.multiply(pred, pred, out=inject)
    np.subtract(1.0, inject, out=inject)
    np.multiply(resid, inject, out=inject)
    np.divide(inject, difficulty, out=inject)
    # lambda * (1 - before * before) / (2 * difficulty[e])
    np.divide(
        translation * (1.0 - ws.before * ws.before), ws.row_difficulty, out=feedback
    )

    add, multiply, reduce = np.add, np.multiply, np.add.reduce
    ebar, keep, pn, scratch = adj.ebar, ws.keep, ws.scratch, adj.scratch
    ebar.fill(0.0)
    for inj, ebar_l, row, dgain, fb, trained_ebar in adj.phases:
        add(ebar, inj, ebar_l)
        multiply(ebar_l, row, pn)
        reduce(pn, axis=1, out=dgain)
        multiply(ebar_l, keep, ebar)
        # at l = 0 this is d(loss)/d(states[0]), which nothing reads
        multiply(dgain, fb, scratch)
        add(trained_ebar, scratch, trained_ebar)

    g_transfer, g_difficulty, g_gamma, g_retention, g_translation = grad_groups
    dgains = adj.dgains
    g_transfer.fill(0.0)
    np.add.at(g_transfer, e, np.einsum("lpn,lp->ln", adj.ebars, ws.gains))
    np.divide(
        -np.einsum("lpn,lpn->n", inject, ws.states[1:]), difficulty, out=g_difficulty
    )
    # before[l] also reads d = difficulty[e[l]] through trained[l] =
    # experience / (2 * d) (zero at l = 0): the factor -2 * trained
    # here times feedback's 1 / (2 * d) is d(trained)/d(d)
    trained_term = np.add.reduce(dgains * feedback * ws.trained, axis=1) * -2.0
    np.add.at(g_difficulty, e, trained_term)
    np.add.reduce(dgains, axis=0, out=g_gamma)
    np.einsum("lpn,lpn->p", adj.ebars, ws.states[:-1], out=g_retention)
    np.add.reduce(dgains * ws.before, axis=0, out=g_translation)


def _pack(params: ScenarioParams) -> np.ndarray:
    """``params`` as one packed vector: transfer row by row, difficulty,
    then one entry per algorithm for each ALGORITHM_FIELDS key."""
    return np.concatenate(
        [params.tasks.transfer.ravel(), params.tasks.difficulty]
        + [[getattr(a, f) for a in params.algorithms] for f in ALGORITHM_FIELDS.values()]
    )


def _unpack(theta: np.ndarray, n: int, p: int):
    """The ``_GROUPS`` views of a packed vector for n tasks, p algorithms."""
    k = n * n
    return theta[:k].reshape(n, n), theta[k : k + n], *theta[k + n :].reshape(3, p)


def _params_from_arrays(
    transfer, difficulty, gamma, retention, translation, names
) -> ScenarioParams:
    """The inverse of ``_pack``, given ``_unpack``'s views or arrays of
    their shapes: entry a of each per-algorithm array belongs to the
    algorithm named ``names[a]``.  The arrays are copied, never kept."""
    return ScenarioParams(
        tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
        algorithms=tuple(
            AlgorithmProperties(name, *values)
            for name, *values in zip(names, gamma, retention, translation, strict=True)
        ),
    )


def _component_name(flat_index: int, n: int, p: int, algo_names) -> str:
    """Entry ``flat_index`` of a packed vector by name, e.g. ``gamma(a)``."""
    k = n * n
    if flat_index < k:
        return f"transfer[{flat_index // n},{flat_index % n}]"
    if flat_index < k + n:
        return f"difficulty[{flat_index - k}]"
    group, a = divmod(flat_index - k - n, p)
    return f"{_GROUPS[2 + group]}({algo_names[a]})"


def _same_tasks(what: str, n: int, other: str, n_other: int) -> None:
    """Raise ValidationError unless ``what`` covers as many tasks as
    ``other``: the one check and message for every task-count mismatch."""
    if n != n_other:
        raise ValidationError(f"{what} covers {n} tasks, {other} has {n_other}")


def _checked_curves(ws: _Rollout, groups, params: ScenarioParams) -> np.ndarray:
    """``_forward_curves(ws, groups)``, ``groups`` views of ``_pack(params)``:
    the one door from a caller's parameters to the kernel.  Raises
    ValidationError naming the first step (and algorithm) whose experience
    over difficulty is not finite, as its curves would read exactly -1 or 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        curves = _forward_curves(ws, groups)
        finite = np.isfinite(ws.states[1:] / groups[1]).all(axis=2)
    if not finite.all():
        step, k = np.argwhere(~finite)[0]
        raise ValidationError(
            f"experience over difficulty of {params.algorithms[k].name!r} is not "
            f"finite at step {step}: the params overflow the rollout"
        )
    return curves


def simulate_all(params: ScenarioParams, curriculum: Curriculum) -> list[PerformanceMatrix]:
    """Forward rollout for every algorithm, order preserved.  Params that
    overflow the rollout raise ValidationError (``_checked_curves``)."""
    _same_tasks("parameter set", params.n, "curriculum", curriculum.n_tasks)
    ws = _Rollout(params.n, params.p, curriculum.entries)
    curves = _checked_curves(ws, _unpack(_pack(params), params.n, params.p), params)
    return [
        PerformanceMatrix(algorithm=a.name, values=curves[:, k].T)
        for k, a in enumerate(params.algorithms)
    ]
