import json
import re
from xml.etree import ElementTree

import numpy as np
import pytest

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    ScenarioSpec,
    TaskProperties,
    TaskSet,
    ValidationError,
    comparison_table,
    difficulty_table,
    generate,
    parse_params,
    plot_curves,
    property_table,
    simulate_all,
    transfer_table,
)

from conftest import DATA_DIR, GOLDEN_DIR

# transfer efficiencies estimated for the same eight algorithms on two
# task-incremental benchmarks; used as a hand-checkable ranking example
MNIST_GAMMA = {
    "EWC_online": 0.96,
    "EWC": 0.86,
    "MAS": 0.32,
    "L2": 0.74,
    "Naive_Rehearsal_Low": 1.02,
    "Naive_Rehearsal_High": 0.92,
    "NormalNN": 0.99,
    "SI": 0.85,
}
CIFAR_GAMMA = {
    "EWC_online": 0.35,
    "EWC": 0.60,
    "MAS": 0.33,
    "L2": 0.12,
    "Naive_Rehearsal_Low": 0.57,
    "Naive_Rehearsal_High": 0.58,
    "NormalNN": 0.52,
    "SI": 0.39,
}


def _algos_with_gamma(gammas):
    return [
        AlgorithmProperties(name, g, 0.5, 0.5) for name, g in gammas.items()
    ]


# ---------------------------------------------------------------------------
# property table


def test_property_table_renders_fixture_row():
    _, params = parse_params(f"{DATA_DIR}/atari_estimates.json")
    table = property_table(params.algorithms)
    assert table.rows[0] == ("Clear", "0.12", "0.90", "0.03")
    md = table.markdown()
    assert "| Clear | 0.12 | 0.90 | 0.03 |" in md
    assert md.splitlines()[2] == "| algorithm | gamma | h | lambda |"


def test_property_table_single_algorithm():
    table = property_table([AlgorithmProperties("Clear", 0.12, 0.90, 0.03)])
    assert len(table.rows) == 1
    assert table.rows[0] == ("Clear", "0.12", "0.90", "0.03")


def test_markdown_escapes_pipes_in_cells():
    # a "|" in a name is text, so every row keeps one cell per header
    def cells(line):
        return re.split(r"(?<!\\)\|", line)[1:-1]

    tables = [
        property_table([AlgorithmProperties("a|b", 0.1, 0.2, 0.3)]),
        transfer_table(
            ScenarioParams(
                tasks=TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5]),
                algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)],
            ),
            TaskSet(["u|v", "w"]),
        ),
    ]
    for table in tables:
        header, _, *rows = table.markdown().splitlines()[2:]
        assert len(cells(header)) == len(table.headers)
        assert rows and all(len(cells(row)) == len(table.headers) for row in rows)
    assert "| a\\|b | 0.10 | 0.20 | 0.30 |" in tables[0].markdown()
    assert "| u\\|v |" in tables[1].markdown()


def test_property_table_machine_round_trip():
    algos = [
        AlgorithmProperties("a", 0.123456789, 0.5, 1.25),
        AlgorithmProperties("b", 0.0, 1.0, 0.0),
    ]
    table = property_table(algos)
    doc = json.loads(table.to_json())
    assert doc["table"] == "algorithm_properties"
    rebuilt = [
        AlgorithmProperties(e["name"], e["gamma"], e["h"], e["lambda"])
        for e in doc["algorithms"]
    ]
    assert rebuilt == algos


def test_property_table_rejects_duplicates():
    algos = [
        AlgorithmProperties("same", 0.1, 0.5, 0.1),
        AlgorithmProperties("same", 0.2, 0.5, 0.2),
    ]
    with pytest.raises(ValidationError):
        property_table(algos)
    with pytest.raises(ValidationError):
        property_table([])


# ---------------------------------------------------------------------------
# transfer and difficulty tables


def test_transfer_table_identity():
    ts = TaskSet(["u", "v"])
    params = ScenarioParams(
        tasks=TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5]),
        algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)],
    )
    table = transfer_table(params, ts)
    assert table.headers == ("trained task", "u", "v")
    assert table.rows == (
        ("u", "**1.00**", "0.00"),
        ("v", "0.00", "**1.00**"),
    )


def test_transfer_table_six_task_fixture():
    ts, params = parse_params(f"{DATA_DIR}/atari_estimates.json")
    table = transfer_table(params, ts)
    assert len(table.rows) == 6
    assert all(len(row) == 7 for row in table.rows)
    # the Hero row carries the strongest negative entry
    hero = table.rows[3]
    assert hero[0] == "Hero"
    assert hero[3] == "-0.33"
    machine = json.loads(table.to_json())
    np.testing.assert_array_equal(
        machine["transfer_matrix"], params.tasks.transfer
    )


def test_difficulty_table_prints_all_values():
    ts, params = parse_params(f"{DATA_DIR}/atari_estimates.json")
    table = difficulty_table(params, ts)
    assert table.rows == (
        ("difficulty", "0.09", "0.08", "0.15", "0.07", "0.10", "0.08"),
    )


def test_tables_reject_mismatched_taskset():
    ts = TaskSet(["only"])
    params = ScenarioParams(
        tasks=TaskProperties(transfer=np.eye(2), difficulty=[0.5, 0.5]),
        algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)],
    )
    with pytest.raises(ValidationError):
        transfer_table(params, ts)
    with pytest.raises(ValidationError):
        difficulty_table(params, ts)


def test_negative_zero_never_rendered():
    ts = TaskSet(["u"])
    params = ScenarioParams(
        tasks=TaskProperties(transfer=np.array([[-0.001]]), difficulty=[0.5]),
        algorithms=[AlgorithmProperties("a", 0.1, 0.5, 0.1)],
    )
    table = transfer_table(params, ts)
    assert table.rows[0][1] == "**0.00**"


# ---------------------------------------------------------------------------
# comparison table


def test_comparison_two_benchmarks_hand_spearman():
    table = comparison_table(
        {
            "MNIST": _algos_with_gamma(MNIST_GAMMA),
            "CIFAR100": _algos_with_gamma(CIFAR_GAMMA),
        },
        "gamma",
    )
    machine = json.loads(table.to_json())
    # by hand: rank difference squares sum to 40 over 8 algorithms,
    # so rho = 1 - 6*40/(8*63) = 11/21
    assert machine["spearman"]["MNIST|CIFAR100"] == pytest.approx(
        0.5238095238095238, abs=1e-15
    )
    assert machine["ranks"]["MNIST"]["Naive_Rehearsal_Low"] == 1
    assert machine["ranks"]["CIFAR100"]["EWC"] == 1
    assert machine["ranks"]["MNIST"]["MAS"] == 8
    # rendered cells carry value and rank together
    row = {r[0]: r for r in table.rows}["EWC_online"]
    assert row == ("EWC_online", "0.96 (3)", "0.35 (6)")


def test_comparison_single_dataset_degenerates():
    table = comparison_table({"only": _algos_with_gamma(MNIST_GAMMA)}, "gamma")
    assert table.headers == ("algorithm", "only")
    machine = json.loads(table.to_json())
    assert machine["spearman"] == {}


def test_comparison_identical_columns_have_equal_ranks():
    table = comparison_table(
        {
            "a": _algos_with_gamma(MNIST_GAMMA),
            "b": _algos_with_gamma(MNIST_GAMMA),
        },
        "gamma",
    )
    machine = json.loads(table.to_json())
    assert machine["ranks"]["a"] == machine["ranks"]["b"]
    assert machine["spearman"]["a|b"] == pytest.approx(1.0, abs=1e-15)


def test_comparison_ranks_invariant_under_monotone_transform():
    squashed = {k: v**3 + 0.1 for k, v in MNIST_GAMMA.items()}
    base = comparison_table({"d": _algos_with_gamma(MNIST_GAMMA)}, "gamma")
    moved = comparison_table({"d": _algos_with_gamma(squashed)}, "gamma")
    a = json.loads(base.to_json())["ranks"]["d"]
    b = json.loads(moved.to_json())["ranks"]["d"]
    assert a == b


def test_comparison_ties_share_average_rank():
    algos = [
        AlgorithmProperties("p", 0.5, 0.5, 0.5),
        AlgorithmProperties("q", 0.5, 0.5, 0.5),
        AlgorithmProperties("r", 0.2, 0.5, 0.5),
    ]
    table = comparison_table({"d": algos}, "gamma")
    machine = json.loads(table.to_json())
    assert machine["ranks"]["d"] == {"p": 1.5, "q": 1.5, "r": 3}
    assert table.rows[0][1] == "0.50 (1.5)"


def test_comparison_spearman_null_when_shared_algorithms_all_tie():
    # a dataset whose shared algorithms all tie has no ranking, so the rank
    # correlation is undefined (it read 0.0, as if the rankings disagreed);
    # a partial tie still ranks
    tied = [AlgorithmProperties(n, 0.5, 0.5, 0.5) for n in ("p", "q", "r")]
    spread = _algos_with_gamma({"p": 0.1, "q": 0.4, "r": 0.9})
    partial = _algos_with_gamma({"p": 0.4, "q": 0.4, "r": 0.9})
    datasets = {"tied": tied, "spread": spread, "partial": partial}
    table = comparison_table(datasets, "gamma")
    machine = json.loads(table.to_json())
    assert machine["spearman"]["tied|spread"] is None
    assert machine["spearman"]["tied|partial"] is None
    assert machine["spearman"]["spread|partial"] == pytest.approx(0.8660254037844387)
    assert '"tied|spread": null' in table.to_json()
    # the same null as for fewer than two shared algorithms
    for names in (["p", "y"], ["y", "z"]):
        other = _algos_with_gamma(dict(zip(names, (0.3, 0.7))))
        datasets = {"spread": spread, "other": other}
        machine = json.loads(comparison_table(datasets, "gamma").to_json())
        assert machine["spearman"] == {"spread|other": None}


def test_comparison_missing_algorithm_blank_cell():
    partial = dict(list(CIFAR_GAMMA.items())[:3])
    table = comparison_table(
        {
            "full": _algos_with_gamma(MNIST_GAMMA),
            "part": _algos_with_gamma(partial),
        },
        "gamma",
    )
    rows = {r[0]: r for r in table.rows}
    assert rows["SI"][2] == ""
    machine = json.loads(table.to_json())
    # spearman over the three shared algorithms only
    assert machine["spearman"]["full|part"] is not None


def test_comparison_other_parameters_and_errors():
    algos = [AlgorithmProperties("a", 0.1, 0.9, 2.0)]
    h_table = comparison_table({"d": algos}, "h")
    assert h_table.rows[0][1] == "0.90 (1)"
    lam_table = comparison_table({"d": algos}, "lambda")
    assert lam_table.rows[0][1] == "2.00 (1)"
    with pytest.raises(ValidationError):
        comparison_table({"d": algos}, "difficulty")
    with pytest.raises(ValidationError):
        comparison_table({}, "gamma")
    with pytest.raises(ValidationError, match="duplicate algorithm 'a' under 'd'"):
        comparison_table({"d": algos + algos}, "gamma")


# ---------------------------------------------------------------------------
# curve plots


def _tiny_plot_inputs():
    ts = TaskSet(["u", "v"])
    cur = Curriculum(entries=[0, 1, 0], n_tasks=2)
    observed = [
        PerformanceMatrix(
            algorithm="a",
            values=np.array([[0.1, 0.4, 0.6], [0.0, 0.2, 0.3]]),
        ),
        PerformanceMatrix(
            algorithm="b",
            values=np.array([[0.2, 0.3, 0.35], [0.05, 0.1, 0.4]]),
        ),
    ]
    predicted = [
        PerformanceMatrix(
            algorithm="a",
            values=np.array([[0.12, 0.38, 0.61], [0.01, 0.19, 0.33]]),
        ),
        PerformanceMatrix(
            algorithm="b",
            values=np.array([[0.22, 0.28, 0.37], [0.04, 0.12, 0.38]]),
        ),
    ]
    return ts, cur, observed, predicted


def test_plot_deterministic_bytes():
    ts, cur, observed, predicted = _tiny_plot_inputs()
    one = plot_curves(observed, predicted, cur, taskset=ts)
    two = plot_curves(observed, predicted, cur, taskset=ts)
    assert one == two


def test_plot_structure():
    ts, cur, observed, predicted = _tiny_plot_inputs()
    svg = plot_curves(observed, predicted, cur, taskset=ts)
    assert svg.startswith("<svg ")
    # one panel per algorithm/task pair
    for a in range(2):
        for j in range(2):
            assert f'id="panel-{a}-{j}"' in svg
    # task u trains twice, task v once: three shaded bands total
    assert svg.count('class="band"') == 2 * 3  # per algorithm row
    # both algorithms have predictions, so dashed polylines exist
    assert 'stroke-dasharray="5 3"' in svg
    assert "observed" in svg and "predicted" in svg


def test_plot_is_well_formed_xml_whatever_the_names():
    ts = TaskSet(["u<1>", "v & w"])
    cur = Curriculum(entries=[0, 1, 0], n_tasks=2)
    observed = [PerformanceMatrix(algorithm="Progress & Compress", values=np.zeros((2, 3)))]
    root = ElementTree.fromstring(plot_curves(observed, [], cur, taskset=ts))
    texts = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert {"u<1>", "v & w", "Progress & Compress"} <= texts
    ElementTree.parse(f"{GOLDEN_DIR}/curves.svg")


def test_plot_pairs_predictions_by_position():
    # predicted curves pair with observed ones by position, as in loss and
    # fit: renamed predictions still draw, and a count mismatch raises.
    # Three tasks, two algorithms: six dashed series plus the legend's.
    params, cur, observed = generate(ScenarioSpec(3, 2, 4, seed=1))
    ts = TaskSet(["t0", "t1", "t2"])
    predicted = simulate_all(params, cur)
    renamed = [
        PerformanceMatrix(algorithm=f"other{k}", values=mat.values)
        for k, mat in enumerate(predicted)
    ]
    svg = plot_curves(observed, renamed, cur, taskset=ts)
    assert svg.count("stroke-dasharray") == 7
    assert svg == plot_curves(observed, predicted, cur, taskset=ts)
    for miscounted in (renamed[:1], renamed + renamed[:1]):
        with pytest.raises(ValidationError, match="^(1|3) predicted matrices for 2 observed$"):
            plot_curves(observed, miscounted, cur, taskset=ts)


def test_plot_without_predictions_has_no_dashes():
    ts, cur, observed, _ = _tiny_plot_inputs()
    svg = plot_curves(observed, [], cur, taskset=ts)
    assert "stroke-dasharray" not in svg
    assert "predicted" not in svg


def test_plot_masked_gap_becomes_segments():
    ts = TaskSet(["u"])
    cur = Curriculum(entries=[0, 0, 0, 0, 0], n_tasks=1)
    values = np.array([[0.1, 0.2, 0.5, 0.3, 0.4]])
    mask = np.array([[True, True, False, True, True]])
    full = plot_curves(
        [PerformanceMatrix(algorithm="a", values=values)], [], cur, taskset=ts
    )
    gappy = plot_curves(
        [PerformanceMatrix(algorithm="a", values=values, mask=mask)],
        [],
        cur,
        taskset=ts,
    )
    assert full.count("<polyline") == 1
    assert gappy.count("<polyline") == 2


def test_plot_lone_point_becomes_circle():
    ts = TaskSet(["u"])
    cur = Curriculum(entries=[0, 0, 0], n_tasks=1)
    mask = np.array([[False, True, False]])
    svg = plot_curves(
        [
            PerformanceMatrix(
                algorithm="a",
                values=np.array([[0.0, 0.5, 0.0]]),
                mask=mask,
            )
        ],
        [],
        cur,
        taskset=ts,
    )
    assert "<circle" in svg
    assert "<polyline" not in svg


def test_plot_validates_shapes():
    ts, cur, observed, predicted = _tiny_plot_inputs()
    with pytest.raises(ValidationError):
        plot_curves([], [], cur, taskset=ts)
    bad = [PerformanceMatrix(algorithm="a", values=np.zeros((2, 2)))]
    with pytest.raises(ValidationError):
        plot_curves(bad, [], cur, taskset=ts)
    with pytest.raises(ValidationError, match="^predicted curves for 'a' have shape"):
        plot_curves(observed, bad * 2, cur, taskset=ts)
    with pytest.raises(ValidationError, match="covers 2 tasks, task set has 1"):
        plot_curves(observed, predicted, cur, taskset=TaskSet(["u"]))
    with pytest.raises(ValidationError, match="covers 2 tasks, curriculum has 3"):
        plot_curves(observed, predicted, Curriculum(entries=[0, 1, 2], n_tasks=3), ts)
