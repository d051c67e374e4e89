import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    TaskSet,
    ValidationError,
    difficulty_table,
    normalize_minmax,
    plot_curves,
    simulate_all,
    transfer_table,
    write_curriculum,
    write_curves,
    write_params,
)
from latentperf.model import (
    ALGORITHM_FIELDS,
    D_MIN,
    _param_arrays,
    _params_from_arrays,
)

from conftest import kernel_rollout, params_as_lists, random_instance
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
    with pytest.raises(ValidationError, match="one string"):
        TaskSet("abc")  # not the three tasks a, b and c
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


@pytest.mark.parametrize(
    "entries, n_tasks",
    [((1.5, True, 2.9), 3), ((0, 1.0), 2), ((0, np.float64(1)), 2), ((0, 1), 2.5),
     ((0,), True)],
)
def test_curriculum_refuses_non_integers(entries, n_tasks):
    # int() alone would truncate 1.5 to 1 and read True as 1
    with pytest.raises(ValidationError, match="integer"):
        Curriculum(entries=entries, n_tasks=n_tasks)


def test_curriculum_takes_numpy_integers_as_ints():
    cur = Curriculum(entries=np.array([0, 2, 1]), n_tasks=np.int64(3))
    assert cur.entries == (0, 2, 1)
    assert all(type(e) is int for e in cur.entries)


def test_task_properties_validation():
    TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.eye(2) * 1.5, difficulty=[0.5, 0.5])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.eye(2), difficulty=[0.5, D_MIN / 2])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            TaskProperties(transfer=np.eye(2), difficulty=[0.5, bad])
    with pytest.raises(ValidationError):
        TaskProperties(transfer=np.ones((2, 3)), difficulty=[0.5, 0.5])
    # the real-number rule: no strings, no bools, no integer past a float
    for transfer, difficulty in (
        ([["1"]], [0.5]), ([[1.0]], ["0.5"]), ([["1"]], ["0.5"]),
        ([[True]], [0.5]), ([[1.0]], [True]), ([[True]], [True]),
        (np.eye(1, dtype=bool), [0.5]), ([[1.0]], [10**400]),
    ):
        with pytest.raises(ValidationError, match="finite"):
            TaskProperties(transfer=transfer, difficulty=difficulty)
    # ragged nesting is a shape fault, not a non-finite entry
    for transfer, difficulty in (
        ([[1.0], [1.0, 2.0]], [0.5, 0.5]), (np.eye(2), [0.5, [0.5]]),
    ):
        with pytest.raises(ValidationError, match="rectangular"):
            TaskProperties(transfer=transfer, difficulty=difficulty)
    # numpy integer and float arrays and entries pass
    props = TaskProperties(
        transfer=np.eye(2, dtype=np.float32), difficulty=np.array([1, 2], np.int64)
    )
    assert props.transfer.dtype == props.difficulty.dtype == np.float64
    props = TaskProperties(transfer=[[np.float64(0.5)]], difficulty=[np.int64(1)])
    assert (props.transfer.tolist(), props.difficulty.tolist()) == ([[0.5]], [1.0])


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
    # one real-number rule: a string, None, a bool or an integer beyond a
    # float's range is refused like an infinity, in every position
    for bad in ("0.5", None, True, 10**400, float("inf")):
        for k in range(3):
            values = [0.5, 0.5, 0.5]
            values[k] = bad
            with pytest.raises(ValidationError, match="^algorithm properties must be finite$"):
                AlgorithmProperties("bad", *values)
    ok = AlgorithmProperties("np", np.float32(0.5), np.int64(1), np.float64(2.0))
    assert (ok.transfer_efficiency, ok.experience_retention) == (0.5, 1.0)
    assert type(ok.experience_retention) is float


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


_ONE = TaskSet(["u"])
_THREE = Curriculum(entries=[0, 1, 2], n_tasks=3)

# Every check that two inputs cover the same number of tasks, called with
# params and a curriculum over two tasks (and one algorithm, a0) against a
# task set or a list of task names of one or a curriculum of three, and the
# message it must raise.
_TASK_COUNT_SITES = {
    "write_curves": (
        lambda out, params, cur: write_curves(out, _ONE, simulate_all(params, cur)),
        "matrix for 'a0' covers 2 tasks, task set has 1",
    ),
    "write_curriculum": (
        lambda out, params, cur: write_curriculum(out, _ONE, cur),
        "curriculum covers 2 tasks, task set has 1",
    ),
    "write_params": (
        lambda out, params, cur: write_params(out, _ONE, params),
        "parameter set covers 2 tasks, task set has 1",
    ),
    "transfer_table": (
        lambda out, params, cur: transfer_table(params, _ONE),
        "parameter set covers 2 tasks, task set has 1",
    ),
    "difficulty_table": (
        lambda out, params, cur: difficulty_table(params, _ONE),
        "parameter set covers 2 tasks, task set has 1",
    ),
    "plot_curves, task set": (
        lambda out, params, cur: plot_curves(simulate_all(params, cur), [], cur, _ONE),
        "matrix for 'a0' covers 2 tasks, task set has 1",
    ),
    "plot_curves, curriculum": (
        lambda out, params, cur: plot_curves(
            simulate_all(params, cur), [], _THREE, TaskSet(["t0", "t1"])
        ),
        "matrix for 'a0' covers 2 tasks, curriculum has 3",
    ),
    "simulate_all": (
        lambda out, params, cur: simulate_all(params, _THREE),
        "parameter set covers 2 tasks, curriculum has 3",
    ),
    "normalize_minmax": (
        lambda out, params, cur: normalize_minmax(simulate_all(params, cur)[0], ["u"]),
        "matrix for 'a0' covers 2 tasks, list of task names has 1",
    ),
}


@pytest.mark.parametrize("site", sorted(_TASK_COUNT_SITES))
def test_every_task_count_mismatch_has_one_message(rng, tmp_path, site):
    call, message = _TASK_COUNT_SITES[site]
    _, params, cur = random_instance(rng, 2, 3, 1)
    with pytest.raises(ValidationError) as info:
        call(tmp_path / "out", params, cur)
    assert str(info.value) == message
    assert not (tmp_path / "out").exists()  # refused before writing


# ---------------------------------------------------------------------------
# the performance map, read off the kernel


def _performance(experience, d):
    """The kernel's performance at each experience value over difficulty d.

    One algorithm per value: a single step from zero experience gains
    gamma = |e| along transfer row (1, -1), so tasks 0 and 1 hold exactly
    |e| and -|e|.
    """
    algos = [
        AlgorithmProperties(f"a{k}", abs(e), 1.0, 0.0)
        for k, e in enumerate(experience)
    ]
    params = ScenarioParams(
        TaskProperties(transfer=[[1.0, -1.0], [0.0, 1.0]], difficulty=[d, d]), algos
    )
    mats = simulate_all(params, Curriculum(entries=[0], n_tasks=2))
    return np.array(
        [mat.values[0 if e >= 0 else 1, 0] for mat, e in zip(mats, experience)]
    )


def test_performance_known_value():
    # e/d = 1 gives 2/(1+e^-1) - 1
    assert _performance([1.0], 1.0)[0] == pytest.approx(0.4621171572600098, abs=1e-15)


def test_performance_zero_at_zero():
    for d in (0.3, 1.0, 7.0):
        assert (_performance([0.0, -0.0], d) == 0.0).all()


@given(
    e=st.floats(-50, 50, allow_nan=False),
    d=st.floats(0.001, 10, allow_nan=False),
)
def test_performance_odd_and_bounded(e, d):
    plus, minus = _performance([e, -e], d)
    assert minus == -plus
    assert abs(plus) <= 1.0


@given(
    e1=st.floats(-20, 20, allow_nan=False),
    e2=st.floats(-20, 20, allow_nan=False),
    d=st.floats(0.01, 5, allow_nan=False),
)
def test_performance_monotone_in_experience(e1, e2, d):
    lo, hi = _performance(sorted([e1, e2]), d)
    assert lo <= hi


# ---------------------------------------------------------------------------
# experience update, read off the kernel's states


def _primed(row, gamma, retention, lam, steps):
    """Experience of tasks 0 and 1, (steps + 2, p, 2), with one algorithm
    per retention value.  Step 0 trains task 2 from zero, so it gains
    exactly gamma and puts gamma * row on tasks 0 and 1.  The ``steps``
    after it train task 3, whose transfer row is e3, so on tasks 0 and 1
    only retention acts."""
    transfer = np.eye(4)
    transfer[2, :2] = row
    tasks = TaskProperties(transfer=transfer, difficulty=[0.5] * 4)
    algos = [
        AlgorithmProperties(f"r{k}", gamma, h, lam) for k, h in enumerate(retention)
    ]
    params = ScenarioParams(tasks, algos)
    return kernel_rollout(params, [2] + [3] * steps).states[:, :, :2]


def test_rollout_two_steps_by_hand():
    tasks = TaskProperties(
        transfer=np.array([[1.0, 0.5], [-0.25, 1.0]]),
        difficulty=np.array([1.0, 2.0]),
    )
    params = ScenarioParams(tasks, [AlgorithmProperties("x", 0.3, 0.9, 0.7)])
    # states[l + 1] is experience after curriculum step l
    states = kernel_rollout(params, [0, 0]).states[:, 0]
    # from zero experience the trained task contributes only gamma
    np.testing.assert_allclose(states[1], [0.3, 0.15], rtol=0, atol=0)

    # second step from a nonzero state, done by hand
    p1 = 2.0 / (1.0 + np.exp(-0.3)) - 1.0
    gain = 0.3 + p1 * 0.7
    expect = np.array([0.3 * 0.9 + 1.0 * gain, 0.15 * 0.9 + 0.5 * gain])
    np.testing.assert_allclose(states[2], expect, rtol=1e-15)


@given(
    h=st.floats(0.0, 1.0, allow_nan=False),
    k=st.integers(1, 8),
    gamma=st.floats(0.0, 5.0, allow_nan=False),
    row=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=2),
    lam=st.floats(0.0, 1.0, allow_nan=False),
)
def test_pure_retention_decays_geometrically(h, k, gamma, row, lam):
    # once primed, k steps that add nothing multiply experience by h each time
    states = _primed(row, gamma, [h], lam, k)[:, 0]
    expect = gamma * np.array(row)
    assert np.array_equal(states[1], expect)
    for _ in range(k):
        expect = expect * h
    np.testing.assert_array_equal(states[-1], expect)


def test_retention_endpoints_exact():
    # 4 * (0.18285, -0.5625) primes exactly (0.7314, -2.25)
    kept, gone = _primed([0.18285, -0.5625], 4.0, [1.0, 0.0], 0.0, 1)[-1]
    assert (kept == [0.7314, -2.25]).all()
    assert (gone == 0.0).all()


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
