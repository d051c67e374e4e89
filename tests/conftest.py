import numpy as np
import pytest
from hypothesis import strategies as st

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    ScenarioParams,
    TaskProperties,
    TaskSet,
)

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"
GOLDEN_DIR = __file__.rsplit("/", 1)[0] + "/goldens"


def random_instance(rng, n, m, p):
    """A feasible random scenario plus curriculum, built by hand.

    Kept independent of the scenarios module so oracle comparisons do
    not lean on the code under test for their inputs.
    """
    tasks = TaskSet([f"t{j}" for j in range(n)])
    transfer = rng.uniform(-1.0, 1.0, size=(n, n))
    difficulty = rng.uniform(0.05, 1.0, size=n)
    algos = [
        AlgorithmProperties(
            name=f"a{a}",
            transfer_efficiency=rng.uniform(0.0, 1.0),
            experience_retention=rng.uniform(0.0, 1.0),
            expertise_translation=rng.uniform(0.0, 1.0),
        )
        for a in range(p)
    ]
    params = ScenarioParams(
        tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
        algorithms=algos,
    )
    entries = rng.integers(0, n, size=m)
    return tasks, params, Curriculum(entries=entries, n_tasks=n)


def params_as_lists(params):
    """Unpack ScenarioParams into the plain structures the oracles eat."""
    transfer = params.tasks.transfer.tolist()
    difficulty = params.tasks.difficulty.tolist()
    algos = [
        (a.transfer_efficiency, a.experience_retention, a.expertise_translation)
        for a in params.algorithms
    ]
    return transfer, difficulty, algos


# Pieces of plausible and hostile CSV input for byte-level fuzzing.
CSV_TOKENS = [
    b"a", b"u", b"v", b",", b"0", b"1", b"-", b".", b"e", b"9" * 30,
    b"nan", b"\n", b"\r", b'"', b"\xff", b"\x00", b" ",
]


def fuzz_bytes(header: bytes, tokens):
    """Arbitrary bytes, or ``header`` followed by a run of ``tokens``, so
    that some inputs get past the header check and into the row parser."""
    return st.one_of(
        st.binary(max_size=120),
        st.lists(st.sampled_from(tokens), max_size=40).map(
            lambda parts: header + b"".join(parts)
        ),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
