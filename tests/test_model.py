import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    ExperienceState,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    TaskSet,
    ValidationError,
    experience_step,
    performance_map,
    simulate_all,
)
from latentperf.model import (
    ALGORITHM_FIELDS,
    D_MIN,
    _param_arrays,
    _params_from_arrays,
)

from conftest import params_as_lists, random_instance
from oracles import forward_ref


# ---------------------------------------------------------------------------
# construction and validation


def test_taskset_basic():
    ts = TaskSet(["a", "b", "c"])
    assert ts.n == 3
    assert ts.index("b") == 1


def test_taskset_rejects_duplicates_and_unknowns():
    with pytest.raises(ValidationError):
        TaskSet(["a", "a"])
    with pytest.raises(ValidationError):
        TaskSet([])
    ts = TaskSet(["a"])
    with pytest.raises(ValidationError):
        ts.index("zzz")


def test_curriculum_validation():
    cur = Curriculum(entries=[0, 1, 0], n_tasks=2)
    assert cur.m == 3
    with pytest.raises(ValidationError):
        Curriculum(entries=[0, 2], n_tasks=2)
    with pytest.raises(ValidationError):
        Curriculum(entries=[-1], n_tasks=2)
    with pytest.raises(ValidationError):
        Curriculum(entries=[], n_tasks=2)


def test_task_properties_validation():
    TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.eye(2) * 1.5, difficulty=[0.5, 0.5])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.eye(2), difficulty=[0.5, D_MIN / 2])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.ones((2, 3)), difficulty=[0.5, 0.5])


def test_task_properties_arrays_read_only():
    props = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    with pytest.raises(ValueError):
        props.transfer[0, 0] = 0.0
    with pytest.raises(ValueError):
        props.difficulty[0] = 0.1


def test_performance_matrix_rejects_non_finite_observations():
    values = np.array([[0.5, np.nan], [np.inf, -np.inf]])
    mat = PerformanceMatrix(
        algorithm="a", values=values, mask=[[True, False], [False, False]]
    )
    assert mat.values[0, 0] == 0.5
    for j, l in ((0, 1), (1, 0), (1, 1)):
        mask = np.zeros((2, 2), dtype=bool)
        mask[j, l] = True
        with pytest.raises(ValidationError, match="finite"):
            PerformanceMatrix(algorithm="a", values=values, mask=mask)
    with pytest.raises(ValidationError, match="finite"):
        PerformanceMatrix(algorithm="a", values=values)


def test_algorithm_properties_validation():
    AlgorithmProperties("ok", 0.0, 1.0, 5.0)
    with pytest.raises(ValidationError):
        AlgorithmProperties("bad", -0.1, 0.5, 0.5)
    with pytest.raises(ValidationError):
        AlgorithmProperties("bad", 0.5, 1.2, 0.5)
    with pytest.raises(ValidationError):
        AlgorithmProperties("bad", 0.5, 0.5, -2.0)
    with pytest.raises(ValidationError):
        AlgorithmProperties("", 0.5, 0.5, 0.5)


def test_scenario_params_rejects_duplicate_algorithm_names():
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    ScenarioParams(tasks, [AlgorithmProperties("a", 0.1, 0.5, 0.1)])
    with pytest.raises(ValidationError, match="duplicate algorithm name"):
        ScenarioParams(
            tasks,
            [
                AlgorithmProperties("a", 0.1, 0.5, 0.1),
                AlgorithmProperties("b", 0.2, 0.5, 0.2),
                AlgorithmProperties("a", 0.3, 0.5, 0.3),
            ],
        )


def test_params_from_arrays_inverts_param_arrays(rng):
    # positional construction relies on the table following the fields
    assert tuple(ALGORITHM_FIELDS.values()) == tuple(
        f.name for f in dataclasses.fields(AlgorithmProperties)
    )[1:]
    for n, p in [(1, 1), (1, 3), (4, 1), (3, 2), (6, 5)]:
        _, params, _ = random_instance(rng, n, 4, p)
        names = params.algorithm_names()
        back = _params_from_arrays(*_param_arrays(params), names)
        assert back.algorithms == params.algorithms
        for got, want in zip(_param_arrays(back), _param_arrays(params)):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert back.tasks.transfer is not params.tasks.transfer
        with pytest.raises(ValueError):
            _params_from_arrays(*_param_arrays(params), names[:-1])


def test_experience_state_initial_must_be_zero():
    ExperienceState(experience=np.zeros(3), step=0)
    with pytest.raises(ValidationError):
        ExperienceState(experience=np.array([0.0, 1e-300]), step=0)
    # later steps may carry anything finite
    ExperienceState(experience=np.array([2.0, -3.0]), step=4)


# ---------------------------------------------------------------------------
# performance map


def test_performance_map_known_value():
    # e/d = 1 gives 2/(1+e^-1) - 1
    assert performance_map(1.0, 1.0) == pytest.approx(0.4621171572600098, abs=1e-15)


def test_performance_map_zero_at_zero():
    for d in (0.3, 1.0, 7.0):
        assert performance_map(0.0, d) == 0.0


def test_performance_map_rejects_bad_difficulty():
    with pytest.raises(ValidationError):
        performance_map(1.0, D_MIN / 10)
    with pytest.raises(ValidationError):
        performance_map(float("nan"), 1.0)


@given(
    e=st.floats(-50, 50, allow_nan=False),
    d=st.floats(0.001, 10, allow_nan=False),
)
def test_performance_map_odd_and_bounded(e, d):
    plus = performance_map(e, d)
    minus = performance_map(-e, d)
    assert minus == -plus
    assert abs(plus) <= 1.0


@given(
    e1=st.floats(-20, 20, allow_nan=False),
    e2=st.floats(-20, 20, allow_nan=False),
    d=st.floats(0.01, 5, allow_nan=False),
)
def test_performance_map_monotone_in_experience(e1, e2, d):
    lo, hi = sorted([e1, e2])
    assert performance_map(lo, d) <= performance_map(hi, d)


# ---------------------------------------------------------------------------
# experience update


def _algo(gamma, h, lam):
    return AlgorithmProperties("x", gamma, h, lam)


def test_experience_step_manual():
    tasks = TaskProperties(
        transfer=np.array([[1.0, 0.5], [-0.25, 1.0]]),
        difficulty=np.array([1.0, 2.0]),
    )
    algo = _algo(0.3, 0.9, 0.7)
    state = ExperienceState(experience=np.zeros(2), step=0)
    p0 = performance_map(0.0, 1.0)
    out = experience_step(state, 0, p0, tasks, algo)
    # from zero experience the trained task contributes only gamma
    assert out.step == 1
    np.testing.assert_allclose(out.experience, [0.3, 0.15], rtol=0, atol=0)

    # second step from a nonzero state, done by hand
    p1 = 2.0 / (1.0 + np.exp(-0.3)) - 1.0
    gain = 0.3 + p1 * 0.7
    expect = np.array([0.3 * 0.9 + 1.0 * gain, 0.15 * 0.9 + 0.5 * gain])
    out2 = experience_step(out, 0, performance_map(0.3, 1.0), tasks, algo)
    np.testing.assert_allclose(out2.experience, expect, rtol=1e-15)


def test_experience_step_rejects_bad_inputs():
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[1.0, 1.0])
    state = ExperienceState.initial(2)
    algo = _algo(0.1, 0.5, 0.1)
    with pytest.raises(ValidationError):
        experience_step(state, 2, 0.0, tasks, algo)
    with pytest.raises(ValidationError):
        experience_step(state, 0, 1.5, tasks, algo)
    with pytest.raises(ValidationError):
        experience_step(
            ExperienceState(experience=np.zeros(3), step=0), 0, 0.0, tasks, algo
        )


@given(
    h=st.floats(0.0, 1.0, allow_nan=False),
    k=st.integers(1, 8),
    e0=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
)
def test_pure_retention_decays_geometrically(h, k, e0):
    # gamma = lambda = 0: k steps multiply experience by h each time
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    algo = _algo(0.0, h, 0.0)
    state = ExperienceState(experience=np.array(e0), step=1)
    for _ in range(k):
        state = experience_step(state, 0, 0.0, tasks, algo)
    expect = np.array(e0)
    for _ in range(k):
        expect = expect * h
    np.testing.assert_array_equal(state.experience, expect)


def test_retention_endpoints_exact():
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    e0 = np.array([0.7314, -2.25])
    state = ExperienceState(experience=e0, step=1)
    kept = experience_step(state, 1, 0.0, tasks, _algo(0.0, 1.0, 0.0))
    assert (kept.experience == e0).all()
    gone = experience_step(state, 1, 0.0, tasks, _algo(0.0, 0.0, 0.0))
    assert (gone.experience == 0.0).all()


# ---------------------------------------------------------------------------
# simulation against the loop oracle


def test_simulate_matches_reference(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, 4))
        _, params, cur = random_instance(rng, n, m, p)
        transfer, difficulty, algos = params_as_lists(params)
        preds = simulate_all(params, cur)
        assert len(preds) == p
        for a, mat in enumerate(preds):
            gamma, h, lam = algos[a]
            ref = forward_ref(
                transfer, difficulty, gamma, h, lam, list(cur.entries), n
            )
            np.testing.assert_allclose(mat.values, ref, rtol=0, atol=1e-12)
            assert mat.mask.all()
            assert mat.algorithm == params.algorithms[a].name


def test_scalar_stepper_matches_kernel_exactly(rng):
    # performance_map + experience_step is the public one-step view of the
    # vectorized rollout; it must not drift from it by a single bit.
    for _ in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 30))
        p = int(rng.integers(1, 4))
        _, params, cur = random_instance(rng, n, m, p)
        d = params.tasks.difficulty
        for algo, mat in zip(params.algorithms, simulate_all(params, cur)):
            state = ExperienceState.initial(n)
            for l, i in enumerate(cur.entries):
                p_prev = performance_map(state.experience[i], d[i])
                state = experience_step(state, i, p_prev, params.tasks, algo)
                column = [
                    performance_map(e, d[j]) for j, e in enumerate(state.experience)
                ]
                assert np.array_equal(column, mat.values[:, l])


def test_simulate_zero_gain_algorithm_stays_flat():
    tasks = TaskProperties(transfer=np.eye(3), difficulty=[0.5, 0.5, 0.5])
    params = ScenarioParams(
        tasks=tasks, algorithms=[AlgorithmProperties("inert", 0.0, 0.7, 0.0)]
    )
    cur = Curriculum(entries=[0, 1, 2, 0], n_tasks=3)
    mat = simulate_all(params, cur)[0]
    assert (mat.values == 0.0).all()


def test_simulate_rejects_mismatched_curriculum():
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    params = ScenarioParams(
        tasks=tasks, algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)]
    )
    cur = Curriculum(entries=[0, 1, 2], n_tasks=3)
    with pytest.raises(ValidationError):
        simulate_all(params, cur)[0]
    with pytest.raises(IndexError):
        simulate_all(params, Curriculum(entries=[0], n_tasks=2))[5]


@pytest.mark.filterwarnings("error")
def test_simulate_rejects_params_that_overflow_the_rollout():
    # b's experience grows by 1e307 a step; over difficulty 0.5 it passes
    # the largest double at the ninth step
    tasks = TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    params = ScenarioParams(
        tasks=tasks,
        algorithms=[
            AlgorithmProperties("a", 0.1, 0.5, 0.1),
            AlgorithmProperties("b", 1e307, 1.0, 0.0),
        ],
    )
    cur = Curriculum(entries=[0] * 12, n_tasks=2)
    with pytest.raises(ValidationError, match="of 'b' is not finite at step 8:"):
        simulate_all(params, cur)
    shorter = simulate_all(params, Curriculum(entries=[0] * 8, n_tasks=2))
    assert shorter[1].values.max() == 1.0


def test_simulate_outputs_are_float64(rng):
    _, params, cur = random_instance(rng, 2, 4, 1)
    mat = simulate_all(params, cur)[0]
    assert mat.values.dtype == np.float64
