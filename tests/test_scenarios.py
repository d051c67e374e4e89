import numpy as np
import pytest

from latentperf import (
    ScenarioSpec,
    ValidationError,
    generate,
    loss,
    sample_curriculum,
    sample_params,
)
from latentperf.model import D_MIN


def test_spec_validation():
    ScenarioSpec()
    with pytest.raises(ValidationError):
        ScenarioSpec(n_tasks=0)
    with pytest.raises(ValidationError):
        ScenarioSpec(curriculum_len=0)
    for noise in (-0.1, float("inf"), float("nan"), "0.1", None, True, 10**400):
        with pytest.raises(ValidationError, match="^noise_std must be nonnegative"):
            ScenarioSpec(noise_std=noise)
    ScenarioSpec(noise_std=np.float32(0.5))
    ScenarioSpec(noise_std=np.int64(0))
    with pytest.raises(ValidationError):
        ScenarioSpec(seed=-1)


@pytest.mark.parametrize("field", ["n_tasks", "n_algos", "curriculum_len", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_spec_refuses_non_integer_sizes_and_seed(field, value):
    # unchecked, a float reaches numpy and fails there with a TypeError
    with pytest.raises(ValidationError, match="integer"):
        ScenarioSpec(**{field: value})


def test_sampled_params_respect_boxes():
    for seed in range(25):
        params = sample_params(ScenarioSpec(n_tasks=4, n_algos=3, seed=seed))
        assert (np.abs(params.tasks.transfer) <= 1.0).all()
        assert (params.tasks.difficulty >= D_MIN).all()
        assert (params.tasks.difficulty <= 1.0).all()
        for a in params.algorithms:
            assert 0.0 <= a.transfer_efficiency <= 1.0
            assert 0.0 <= a.experience_retention <= 1.0
            assert 0.0 <= a.expertise_translation <= 1.0
        assert params.algorithm_names() == ("algo1", "algo2", "algo3")


def test_sampled_curriculum_in_range():
    for seed in range(25):
        spec = ScenarioSpec(n_tasks=5, curriculum_len=9, seed=seed)
        cur = sample_curriculum(spec)
        assert cur.m == 9
        assert all(0 <= e < 5 for e in cur.entries)


def test_generate_deterministic():
    spec = ScenarioSpec(seed=42, noise_std=0.05)
    p1, c1, d1 = generate(spec)
    p2, c2, d2 = generate(spec)
    np.testing.assert_array_equal(p1.tasks.transfer, p2.tasks.transfer)
    assert p1.algorithms == p2.algorithms
    np.testing.assert_array_equal(c1.entries, c2.entries)
    for m1, m2 in zip(d1, d2):
        np.testing.assert_array_equal(m1.values, m2.values)


def test_different_seeds_differ():
    a = sample_params(ScenarioSpec(seed=0))
    b = sample_params(ScenarioSpec(seed=1))
    assert not np.array_equal(a.tasks.transfer, b.tasks.transfer)


def test_noiseless_data_is_exact_simulation():
    spec = ScenarioSpec(seed=7)
    params, cur, data = generate(spec)
    assert loss(params, cur, data) == 0.0


def test_noise_changes_data_but_not_truth():
    clean_spec = ScenarioSpec(seed=7)
    noisy_spec = ScenarioSpec(seed=7, noise_std=0.05)
    params_c, cur_c, data_c = generate(clean_spec)
    params_n, cur_n, data_n = generate(noisy_spec)
    np.testing.assert_array_equal(params_c.tasks.transfer, params_n.tasks.transfer)
    np.testing.assert_array_equal(cur_c.entries, cur_n.entries)
    assert not np.array_equal(data_c[0].values, data_n[0].values)
    assert all((np.abs(m.values) <= 1.0).all() for m in data_n)


def test_noise_level_statistically_plausible():
    # Collect clean-vs-noisy residuals away from the clip boundary, where
    # censoring cannot bias the sample standard deviation.
    sigma = 0.05
    resid = []
    for seed in range(40):
        clean = generate(ScenarioSpec(seed=seed, curriculum_len=20))[2]
        noisy = generate(
            ScenarioSpec(seed=seed, curriculum_len=20, noise_std=sigma)
        )[2]
        for mc, mn in zip(clean, noisy):
            keep = np.abs(mc.values) < 0.7
            resid.extend((mn.values - mc.values)[keep].tolist())
    assert len(resid) > 2000
    measured = float(np.std(resid))
    assert 0.04 < measured < 0.06


def test_transfer_entries_centered():
    # per-entry mean of the off-diagonal entries over many draws should sit
    # within 3 standard errors of zero: 3 * sqrt(1/3) / sqrt(10000) = 0.01732;
    # the diagonal is fixed at exactly 1
    draws = 10_000
    total = np.zeros((5, 5))
    off = ~np.eye(5, dtype=bool)
    for seed in range(draws):
        transfer = sample_params(ScenarioSpec(seed=seed)).tasks.transfer
        assert (np.diag(transfer) == 1.0).all()
        total += transfer
    mean = total / draws
    assert (np.abs(mean[off]) < 0.01732).all()


def test_some_task_left_untrained_at_expected_rate():
    # a length-9 curriculum over 5 tasks misses at least one task with
    # probability 1 - surj(9,5)/5^9 = 1 - 834120/1953125, about 0.5729
    draws = 10_000
    misses = 0
    for seed in range(draws):
        cur = sample_curriculum(ScenarioSpec(seed=seed))
        if len(set(int(e) for e in cur.entries)) < 5:
            misses += 1
    expect = 1.0 - 834120.0 / 1953125.0
    band = 3.0 * np.sqrt(expect * (1.0 - expect) / draws)
    assert abs(misses / draws - expect) < band


def test_substreams_are_insensitive_to_noise_flag():
    # asking for noise must not perturb the params or curriculum draw
    base = ScenarioSpec(seed=13)
    with_noise = ScenarioSpec(seed=13, noise_std=0.2)
    np.testing.assert_array_equal(
        sample_params(base).tasks.difficulty,
        sample_params(with_noise).tasks.difficulty,
    )
    np.testing.assert_array_equal(
        sample_curriculum(base).entries, sample_curriculum(with_noise).entries
    )
