"""Synthetic scenario sampling for benchmarks and recovery experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    D_MIN,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    _is_finite,
    _is_int,
    _params_from_arrays,
    simulate_all,
)

# Substream tags, so parameters, curriculum, and noise come from
# independent generators even though they share one scenario seed.
_PARAMS_STREAM = 0
_CURRICULUM_STREAM = 1
_NOISE_STREAM = 2


@dataclass(frozen=True)
class ScenarioSpec:
    """Size, seed, and noise level of a synthetic scenario."""

    n_tasks: int = 5
    n_algos: int = 3
    curriculum_len: int = 9
    seed: int = 0
    noise_std: float = 0.0

    def __post_init__(self):
        sizes = (self.n_tasks, self.n_algos, self.curriculum_len)
        if not all(_is_int(k) and k >= 1 for k in sizes):
            raise ValidationError("scenario dimensions must be integers, at least 1")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if not (_is_finite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError("noise_std must be nonnegative and finite")


def _stream(spec: ScenarioSpec, tag: int) -> np.random.Generator:
    return np.random.default_rng([spec.seed, tag])


def sample_params(spec: ScenarioSpec) -> ScenarioParams:
    """Draw ground-truth parameters: off-diagonal transfer entries uniform
    on [-1, 1] with the diagonal fixed at 1, difficulty uniform on
    [D_MIN, 1], algorithm properties uniform on [0, 1].  Algorithms are
    named algo1, algo2, ...

    The diagonal is drawn and then overwritten, so every other value is
    the same draw it would be with a free diagonal.  The fit holds the
    same diagonal: left free, scaling (A, gamma, lambda) to
    (cA, gamma/c, lambda/c), or a column of A together with its task's
    difficulty, would leave every curve unchanged."""
    rng = _stream(spec, _PARAMS_STREAM)
    transfer = rng.uniform(-1.0, 1.0, size=(spec.n_tasks, spec.n_tasks))
    np.fill_diagonal(transfer, 1.0)
    difficulty = rng.uniform(D_MIN, 1.0, size=spec.n_tasks)
    gamma = rng.uniform(0.0, 1.0, size=spec.n_algos)
    retention = rng.uniform(0.0, 1.0, size=spec.n_algos)
    translation = rng.uniform(0.0, 1.0, size=spec.n_algos)
    names = [f"algo{a + 1}" for a in range(spec.n_algos)]
    return _params_from_arrays(transfer, difficulty, gamma, retention, translation, names)


def sample_curriculum(spec: ScenarioSpec) -> Curriculum:
    """Draw a uniform random task sequence of length curriculum_len."""
    rng = _stream(spec, _CURRICULUM_STREAM)
    entries = rng.integers(0, spec.n_tasks, size=spec.curriculum_len)
    return Curriculum(entries=entries, n_tasks=spec.n_tasks)


def generate(
    spec: ScenarioSpec,
) -> tuple[ScenarioParams, Curriculum, list[PerformanceMatrix]]:
    """Sample a full scenario and simulate its curves.

    With noise_std > 0, adds independent Gaussian noise to every curve
    entry and clips back to [-1, 1] so the values stay in the range the
    performance map can produce.
    """
    params = sample_params(spec)
    curriculum = sample_curriculum(spec)
    clean = simulate_all(params, curriculum)
    if spec.noise_std == 0:
        return params, curriculum, clean
    rng = _stream(spec, _NOISE_STREAM)
    noisy = [
        PerformanceMatrix(
            algorithm=mat.algorithm,
            values=np.clip(
                mat.values + rng.normal(0.0, spec.noise_std, size=mat.values.shape),
                -1.0,
                1.0,
            ),
        )
        for mat in clean
    ]
    return params, curriculum, noisy
