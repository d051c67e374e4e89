import csv
import io
import json
import math
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentperf import (
    Curriculum,
    NormalizationError,
    ParseError,
    PerformanceMatrix,
    RawLog,
    SchemaError,
    TaskSet,
    ValidationError,
    downsample_to_boundaries,
    load_dataset,
    normalize_minmax,
    parse_boundaries,
    parse_curriculum,
    parse_curves,
    parse_params,
    parse_raw_log,
    simulate_all,
    write_curriculum,
    write_curves,
    write_params,
)

from conftest import CSV_TOKENS, DATA_DIR, fuzz_bytes, random_instance
from latentperf import dataio
from oracles import (
    check_curve_span_ref,
    curve_cells_ref,
    downsample_ref,
    read_cells_ref,
    read_raw_log_ref,
)


def _write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# curves CSV


def test_curves_round_trip(rng, tmp_path):
    ts = TaskSet(["x", "y", "z"])
    mats = []
    for name in ("one", "two"):
        values = rng.uniform(-1, 1, size=(3, 4))
        mask = rng.random((3, 4)) < 0.7
        mask[0, 3] = True  # keep the final column occupied
        mats.append(PerformanceMatrix(algorithm=name, values=values, mask=mask))
    path = tmp_path / "curves.csv"
    write_curves(path, ts, mats)
    out_ts, parsed = parse_curves(path, taskset=ts)
    assert out_ts is ts
    assert [m.algorithm for m in parsed] == ["one", "two"]
    for orig, back in zip(mats, parsed):
        np.testing.assert_array_equal(orig.mask, back.mask)
        np.testing.assert_array_equal(
            orig.values[orig.mask], back.values[back.mask]
        )


def test_curves_round_trip_infers_tasks(rng, tmp_path):
    ts = TaskSet(["left", "right"])
    mat = PerformanceMatrix(algorithm="a", values=rng.uniform(-1, 1, size=(2, 3)))
    path = tmp_path / "curves.csv"
    write_curves(path, ts, [mat])
    out_ts, parsed = parse_curves(path)
    assert out_ts.names == ("left", "right")
    np.testing.assert_array_equal(parsed[0].values, mat.values)
    assert parsed[0].mask.all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_curves_round_trip_fuzz(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    p = data.draw(st.integers(1, 3))
    ts = TaskSet([f"t{j}" for j in range(n)])
    finite = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
    )
    mats = []
    for a in range(p):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(finite, min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        mask = np.array(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        mask[0, m - 1] = True  # every algorithm observed, full width kept
        mats.append(PerformanceMatrix(algorithm=f"a{a}", values=values, mask=mask))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.csv")
        write_curves(path, ts, mats)
        _, parsed = parse_curves(path, taskset=ts)
    for orig, back in zip(mats, parsed):
        np.testing.assert_array_equal(orig.mask, back.mask)
        # repr round-trips doubles exactly
        np.testing.assert_array_equal(
            orig.values[orig.mask], back.values[back.mask]
        )


def test_curves_missing_cell_is_masked(tmp_path):
    path = _write(
        tmp_path,
        "c.csv",
        "algorithm,step,task,performance\n"
        "a,0,u,0.1\n"
        "a,0,v,0.2\n"
        "a,1,v,0.4\n",
    )
    _, mats = parse_curves(path)
    mat = mats[0]
    assert mat.mask.tolist() == [[True, False], [True, True]]
    assert mat.values[0, 1] == 0.0


def test_curves_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("wrong,header,entirely,here\n", 1, "header"),
        ("algorithm,step,task,performance\na,0,u\n", 2, "columns"),
        ("algorithm,step,task,performance\na,no,u,0.5\n", 2, "integer"),
        ("algorithm,step,task,performance\na,-1,u,0.5\n", 2, "negative"),
        ("algorithm,step,task,performance\na,1" + "0" * 30 + ",u,0.5\n", 2, "range"),
        ("algorithm,step,task,performance\na,0,u,zzz\n", 2, "number"),
        ("algorithm,step,task,performance\na,0,u,inf\n", 2, "finite"),
        ("algorithm,step,task,performance\na,0,u,0.5\na,0,u,0.6\n", 3, "duplicate"),
        ("", 1, "empty"),
        ("algorithm,step,task,performance\n", 1, "no data"),
        ("algorithm,step,task,performance\n,0,u,0.5\n", 2, "empty algorithm"),
        # a quoted field spanning lines 2-3 shifts the bad row to line 4
        ('algorithm,step,task,performance\n"a\nb",0,u,0.5\na,no,u,0.5\n', 4, "integer"),
        ('algorithm,step,task,performance\na,0,u,"0.5', 2, "malformed"),
    ]
    for k, (text, line, needle) in enumerate(cases):
        path = _write(tmp_path, f"bad{k}.csv", text)
        with pytest.raises(ParseError) as info:
            parse_curves(path)
        assert info.value.line == line
        assert needle in str(info.value)
        assert f"line {line}:" in str(info.value)


def test_curves_unknown_task_rejected_with_taskset(tmp_path):
    path = _write(
        tmp_path,
        "c.csv",
        "algorithm,step,task,performance\na,0,mystery,0.5\n",
    )
    with pytest.raises(ParseError) as info:
        parse_curves(path, taskset=TaskSet(["u", "v"]))
    assert info.value.line == 2
    assert "mystery" in str(info.value)


def test_write_curves_validates_shape(rng, tmp_path):
    ts = TaskSet(["u", "v"])
    bad = PerformanceMatrix(algorithm="a", values=rng.uniform(size=(3, 2)))
    with pytest.raises(ValidationError):
        write_curves(tmp_path / "c.csv", ts, [bad])


# ---------------------------------------------------------------------------
# curriculum JSON


def test_curriculum_round_trip(tmp_path):
    ts = TaskSet(["alpha", "beta"])
    cur = Curriculum(entries=[0, 1, 1, 0], n_tasks=2)
    path = tmp_path / "cur.json"
    write_curriculum(path, ts, cur)
    out_ts, out_cur = parse_curriculum(path)
    assert out_ts.names == ts.names
    assert tuple(out_cur.entries) == (0, 1, 1, 0)


def test_curriculum_schema_errors(tmp_path):
    missing = _write(tmp_path, "m.json", '{"tasks": ["a"]}')
    with pytest.raises(SchemaError) as info:
        parse_curriculum(missing)
    assert info.value.field == "curriculum"

    extra = _write(
        tmp_path,
        "e.json",
        '{"tasks": ["a"], "curriculum": ["a"], "notes": 1}',
    )
    with pytest.raises(SchemaError) as info:
        parse_curriculum(extra)
    assert info.value.field == "notes"

    badtype = _write(tmp_path, "t.json", '{"tasks": ["a"], "curriculum": [3]}')
    with pytest.raises(SchemaError):
        parse_curriculum(badtype)


def test_curriculum_bad_json_reports_line(tmp_path):
    path = _write(tmp_path, "b.json", '{\n  "tasks": [,]\n}')
    with pytest.raises(ParseError) as info:
        parse_curriculum(path)
    assert info.value.line == 2


def test_curriculum_unknown_task_name(tmp_path):
    path = _write(
        tmp_path, "u.json", '{"tasks": ["a"], "curriculum": ["ghost"]}'
    )
    with pytest.raises(ValidationError):
        parse_curriculum(path)


# ---------------------------------------------------------------------------
# params JSON


def test_params_round_trip_exact(rng, tmp_path):
    ts, params, _ = random_instance(rng, 4, 3, 2)
    path = tmp_path / "params.json"
    write_params(path, ts, params)
    out_ts, out = parse_params(path)
    assert out_ts.names == ts.names
    np.testing.assert_array_equal(out.tasks.transfer, params.tasks.transfer)
    np.testing.assert_array_equal(out.tasks.difficulty, params.tasks.difficulty)
    assert out.algorithms == params.algorithms


def test_params_fixture_parses_atari_estimates():
    ts, params = parse_params(f"{DATA_DIR}/atari_estimates.json")
    assert ts.n == 6
    assert params.p == 5
    clear = params.algorithms[0]
    assert clear.name == "Clear"
    assert clear.transfer_efficiency == 0.12
    assert clear.experience_retention == 0.90
    assert clear.expertise_translation == 0.03
    assert params.algorithm_names() == (
        "Clear", "Progress & Compress", "EWC_online", "EWC", "Impala",
    )
    assert params.tasks.transfer[3, 2] == -0.33
    np.testing.assert_array_equal(
        params.tasks.difficulty, [0.09, 0.08, 0.15, 0.07, 0.10, 0.08]
    )


def test_params_lifts_zero_difficulty(tmp_path):
    doc = {
        "tasks": ["a"],
        "transfer_matrix": [[1.0]],
        "difficulty": [0.0],
        "algorithms": [{"name": "x", "gamma": 0.1, "h": 0.5, "lambda": 0.2}],
    }
    path = _write(tmp_path, "p.json", json.dumps(doc))
    _, params = parse_params(path)
    assert params.tasks.difficulty[0] == 1e-3


def test_params_schema_errors(tmp_path):
    good = {
        "tasks": ["a", "b"],
        "transfer_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "difficulty": [0.5, 0.5],
        "algorithms": [{"name": "x", "gamma": 0.1, "h": 0.5, "lambda": 0.2}],
    }

    def variant(**changes):
        doc = {**good, **changes}
        for key, value in changes.items():
            if value is None:
                del doc[key]
        return doc

    unknown = _write(tmp_path, "u.json", json.dumps({**good, "extra": 1}))
    with pytest.raises(SchemaError) as info:
        parse_params(unknown)
    assert info.value.field == "extra"

    missing = _write(tmp_path, "m.json", json.dumps(variant(difficulty=None)))
    with pytest.raises(SchemaError) as info:
        parse_params(missing)
    assert info.value.field == "difficulty"

    ragged = _write(
        tmp_path,
        "r.json",
        json.dumps(variant(transfer_matrix=[[1.0, 0.0], [0.0]])),
    )
    with pytest.raises(SchemaError) as info:
        parse_params(ragged)
    assert info.value.field == "transfer_matrix"

    negative = _write(
        tmp_path, "n.json", json.dumps(variant(difficulty=[0.5, -0.1]))
    )
    with pytest.raises(SchemaError) as info:
        parse_params(negative)
    assert info.value.field == "difficulty"

    badalgo = _write(
        tmp_path,
        "a.json",
        json.dumps(
            variant(
                algorithms=[
                    {"name": "x", "gamma": 0.1, "h": 0.5, "lam": 0.2}
                ]
            )
        ),
    )
    with pytest.raises(SchemaError):
        parse_params(badalgo)

    boolnum = _write(
        tmp_path,
        "b.json",
        json.dumps(
            variant(
                algorithms=[
                    {"name": "x", "gamma": True, "h": 0.5, "lambda": 0.2}
                ]
            )
        ),
    )
    with pytest.raises(SchemaError) as info:
        parse_params(boolnum)
    assert info.value.field == "gamma"
    assert "field 'gamma':" in str(info.value)

    valid = good["algorithms"][0]
    for k, (doc, field) in enumerate([
        (variant(difficulty=[0.5]), "difficulty"),
        (variant(algorithms=[]), "algorithms"),
        (variant(algorithms=[valid, "x"]), "algorithms"),
        (variant(algorithms=[{**valid, "name": ""}]), "name"),
    ]):
        path = _write(tmp_path, f"s{k}.json", json.dumps(doc))
        with pytest.raises(SchemaError) as info:
            parse_params(path)
        assert info.value.field == field

    for key in ("gamma", "h", "lambda"):
        lacking = {"name": "x", "gamma": 0.1, "h": 0.5, "lambda": 0.2}
        del lacking[key]
        stringly = {"name": "x", "gamma": 0.1, "h": 0.5, "lambda": 0.2, key: "0.3"}
        for entry in (lacking, stringly):
            doc = json.dumps(variant(algorithms=[entry]))
            with pytest.raises(SchemaError) as info:
                parse_params(_write(tmp_path, f"{key}.json", doc))
            assert info.value.field == key


# ---------------------------------------------------------------------------
# raw logs and downsampling


def test_parse_raw_log_fixture():
    ts, cur, logs = parse_raw_log(
        f"{DATA_DIR}/raw_metrics.csv", f"{DATA_DIR}/raw_boundaries.json"
    )
    assert ts.names == ("alpha", "beta", "gamma")
    assert tuple(cur.entries) == (0, 1, 2)
    assert [log.algorithm for log in logs] == ["learner1", "learner2"]
    steps = [s for s, _, _ in logs[0].records]
    assert steps == sorted(steps)


def test_downsample_dense_fixture_hand_values():
    ts, cur, logs = parse_raw_log(
        f"{DATA_DIR}/raw_metrics.csv", f"{DATA_DIR}/raw_boundaries.json"
    )
    # learner1 is dense at 100-step resolution; phase ends are 299, 599, 800.
    # The duplicate alpha record at 800 means the later value (0.85) wins.
    assert logs[0].tasks == ts.names
    assert [ts.index(t) for _, t in logs[0].boundaries] == list(cur.entries)
    mat = downsample_to_boundaries(logs[0])
    assert mat.mask.all()
    np.testing.assert_array_equal(
        mat.values,
        [
            [0.2, 0.5, 0.85],
            [1.2, 1.5, 1.8],
            [2.2, 2.5, 2.8],
        ],
    )


def test_downsample_boundary_records_copied_through():
    ts, cur, logs = parse_raw_log(
        f"{DATA_DIR}/raw_metrics.csv", f"{DATA_DIR}/raw_boundaries.json"
    )
    # learner2 reports beta exactly at every phase start
    assert logs[1].tasks == ts.names and logs[1].boundaries == logs[0].boundaries
    mat = downsample_to_boundaries(logs[1])
    np.testing.assert_array_equal(mat.values[1], [10.0, 11.0, 12.0])
    assert mat.mask[1].all()
    assert not mat.mask[0].any()
    assert not mat.mask[2].any()


def test_downsample_single_constant_task():
    log = RawLog(
        algorithm="a",
        records=tuple((s, 0, 0.7) for s in range(0, 30, 2)),
        boundaries=((0, "only"), (10, "only"), (20, "only")),
        tasks=("only",),
    )
    mat = downsample_to_boundaries(log)
    assert (mat.values == 0.7).all()
    assert mat.mask.all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_downsample_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 4))
    ts = TaskSet([f"t{j}" for j in range(n)])
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    starts = sorted(data.draw(st.sets(st.integers(0, 30), min_size=m, max_size=m)))
    boundaries = tuple((b, ts.names[i]) for b, i in zip(starts, entries))
    # a narrow step range gives same-step ties and records before the first
    # boundary; "ghost" is a table row no phase trains, and some tasks go
    # unlogged
    tasks = ts.names + ("ghost",)
    records = data.draw(
        st.lists(
            st.tuples(
                st.integers(-3, 35),
                st.integers(0, n),
                st.floats(-10.0, 10.0),
            ),
            min_size=1,
            max_size=25,
        )
    )
    # RawLog sorts the records; the oracle takes them sorted, ties in order
    log = RawLog(algorithm="a", records=records, boundaries=boundaries, tasks=tasks)
    mat = downsample_to_boundaries(log)
    named = [(s, tasks[j], v) for s, j, v in sorted(records, key=lambda r: r[0])]
    values, mask = downsample_ref(named, boundaries, tasks)
    assert mat.mask.tolist() == mask
    assert mat.values.tolist() == values


def test_downsample_validates_agreement():
    empty = RawLog("x", (), ((0, "a"), (10, "b")), tasks=("a", "b"))
    with pytest.raises(ValidationError, match="no records"):
        downsample_to_boundaries(empty)


def test_downsample_unlogged_task_row_is_masked_and_early_records_land_in_phase_0():
    # phases start at 10 and 20, so phase 0 holds every step up to 19;
    # "idle" is in the table but never logged
    log = RawLog(
        algorithm="a",
        records=((-5, 0, 0.1), (3, 0, 0.2), (22, 0, 0.3), (25, 2, 0.4)),
        boundaries=((10, "run"), (20, "jump")),
        tasks=("run", "idle", "jump"),
    )
    mat = downsample_to_boundaries(log)
    assert mat.values.shape == (3, 2)
    assert mat.mask.tolist() == [[True, True], [False, False], [False, True]]
    assert mat.values.tolist() == [[0.2, 0.3], [0.0, 0.0], [0.0, 0.4]]


def test_rawlog_validation():
    # out-of-order records are sorted by step; rows at one step keep their order
    rows = ((5, 0, 1.0), (2, 1, 2.0), (5, 1, 3.0), (2, 0, 4.0), (5, 0, 5.0))
    record = [("step", np.int64), ("task", np.int64), ("metric", np.float64)]
    for given in (rows, np.array(list(rows), dtype=record)):
        log = RawLog(algorithm="a", records=given, boundaries=((0, "t"),), tasks=("t", "u"))
        assert log.records.tolist() == [
            (2, 1, 2.0), (2, 0, 4.0), (5, 0, 1.0), (5, 1, 3.0), (5, 0, 5.0)
        ]
    with pytest.raises(ValidationError):
        RawLog(algorithm="a", records=(), boundaries=((0, "t"), (0, "t")), tasks=("t",))
    with pytest.raises(ValidationError):
        RawLog(algorithm="a", records=(), boundaries=(), tasks=("t",))
    with pytest.raises(ValidationError, match="task name table"):
        RawLog(algorithm="a", records=(), boundaries=((0, "t"), (5, "u")), tasks=("t",))
    with pytest.raises(TypeError):
        RawLog(algorithm="a", records=(), boundaries=((0, "t"),))  # tasks is required


def test_rawlog_records_are_read_only_columns():
    log = RawLog(
        algorithm="a",
        records=((0, 0, 0.5), (0, 1, 0.25), (3, 0, 1.0)),
        boundaries=((0, "x"),),
        tasks=("y", "x"),
    )
    assert log.tasks == ("y", "x")
    assert log.records["step"].tolist() == [0, 0, 3]
    assert log.records["task"].tolist() == [0, 1, 0]
    assert log.records["metric"].tolist() == [0.5, 0.25, 1.0]
    assert log.records.itemsize == 24
    with pytest.raises(ValueError):
        log.records["metric"][0] = 2.0


def test_rawlog_rejects_bad_records():
    bounds, tasks = ((0, "t"),), ("t",)

    def structured(row, step=np.int64, task=np.int64):
        return np.array([row], dtype=[("step", step), ("task", task), ("metric", float)])

    for metric in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            RawLog("a", [(0, 0, metric)], bounds, tasks)
    for step in (2**63, 2**64, -(2**63) - 1):
        with pytest.raises(ValidationError, match="64 bits"):
            RawLog("a", [(step, 0, 1.0)], bounds, tasks)
    edge = RawLog("a", [(-(2**63), 0, 1.0), (2**63 - 1, 0, 1.0)], bounds, tasks)
    assert edge.records["step"].tolist() == [-(2**63), 2**63 - 1]
    for step in (1.7, 2.0, True, np.float64(3.0)):
        with pytest.raises(ValidationError, match="steps must be integers"):
            RawLog("a", [(step, 0, 1.0)], bounds, tasks)
    # task codes are checked the same way; a name is not a code
    for task in (0.7, 0.0, False, np.float64(0.0), "t"):
        with pytest.raises(ValidationError, match="integer indices into tasks"):
            RawLog("a", [(0, task, 1.0)], bounds, tasks)
    with pytest.raises(ValidationError, match="name table"):
        RawLog("a", [(0, 2**64, 1.0)], bounds, tasks)
    with pytest.raises(ValidationError, match="steps must be integers"):
        RawLog("a", structured((1.7, 0, 1.0), step=float), bounds, tasks)
    for kind in (float, bool):
        with pytest.raises(ValidationError, match="integer indices into tasks"):
            RawLog("a", structured((0, 0, 1.0), task=kind), bounds, tasks)
    as_uint = structured((2**63, 0, 1.0), step=np.uint64)
    with pytest.raises(ValidationError, match="64 bits"):
        RawLog("a", as_uint, bounds, tasks)
    assert RawLog("a", as_uint[:0], bounds, tasks).records.dtype.itemsize == 24
    steps = (np.int32(4), np.uint64(5), 6)
    log = RawLog("a", [(s, np.uint8(0), 1.0) for s in steps], bounds, tasks)
    assert log.records["step"].tolist() == [4, 5, 6]
    again = RawLog("a", log.records, bounds, tasks)
    assert again.records.tobytes() == log.records.tobytes()
    for codes in ((0, 1), (-1,)):
        with pytest.raises(ValidationError, match="name table"):
            RawLog("a", [(k, code, 1.0) for k, code in enumerate(codes)], bounds, tasks)
    with pytest.raises(ValidationError, match="name table"):
        RawLog("a", structured((0, 2**63, 1.0), task=np.uint64), bounds, tasks)
    # list rows are rows, not a second array axis
    listed = RawLog("a", [[0, 0, 0.5], [1, 0, 0.25]], bounds, tasks)
    assert listed.records.shape == (2,)
    assert listed.records.tolist() == [(0, 0, 0.5), (1, 0, 0.25)]
    assert downsample_to_boundaries(listed).values.tolist() == [[0.25]]
    with pytest.raises(ValidationError, match="steps must be integers"):
        RawLog("a", np.array([[0, 0, 0.5], [1, 0, 0.25]]), bounds, tasks)
    for rows in ([0, 0, 0.5], [(0, 0)], [(0, 0, 1.0, 2)], ["abc"]):
        with pytest.raises(ValidationError, match="rows"):
            RawLog("a", rows, bounds, tasks)
    for metric in ("1.5", None, True, 10**400):
        with pytest.raises(ValidationError, match="finite numbers"):
            RawLog("a", [(0, 0, metric)], bounds, tasks)
    # boundary steps follow the record step rule
    for steps in ((True, 2), (0, 2.5), (0, 2**63), (-(2**63) - 1, 0)):
        with pytest.raises(ValidationError, match="boundary steps must be integers"):
            RawLog("a", [], tuple((s, "t") for s in steps), tasks)
    # the task table is a TaskSet's: distinct names, never one string
    with pytest.raises(ValidationError, match="unique"):
        RawLog("a", [], bounds, ("t", "t"))
    with pytest.raises(ValidationError, match="one string"):
        RawLog("a", [], bounds, "t")
    for algorithm in ("", 5, None):
        with pytest.raises(ValidationError, match="algorithm name must be a non-empty string"):
            RawLog(algorithm, [], bounds, tasks)


def test_parse_raw_log_memory_per_row(tmp_path):
    # a dense log: every task logged at every step, two algorithms
    tasks = [f"task{j:02d}" for j in range(20)]
    lines = ["algorithm,global_step,task,metric"]
    for algo in ("learner1", "learner2"):
        lines += [
            f"{algo},{10 * k},{task},{0.001 * (k + j):.6f}"
            for k in range(1000)
            for j, task in enumerate(tasks)
        ]
    rows = len(lines) - 1
    raw = _write(tmp_path, "raw.csv", "\n".join(lines) + "\n")
    bounds = _write(
        tmp_path,
        "b.json",
        json.dumps({"tasks": tasks, "boundaries": [[0, tasks[0]], [5000, tasks[1]]]}),
    )
    del lines
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, _, logs = parse_raw_log(raw, bounds)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(log.records) for log in logs) == rows == 40_000
    assert (held - before) / rows <= 32
    assert (peak - before) / rows <= 96


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_then_downsample_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 4))
    ts = TaskSet([f"t{j}" for j in range(n)])
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    starts = sorted(data.draw(st.sets(st.integers(0, 30), min_size=m, max_size=m)))
    boundaries = [[b, ts.names[i]] for b, i in zip(starts, entries)]
    # algorithms interleave row by row; a narrow step range gives same-step
    # ties and records before the first boundary
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(("a", "b", "c")),
                st.integers(-3, 35),
                st.sampled_from(ts.names),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    text = "algorithm,global_step,task,metric\n" + "".join(
        f"{a},{s},{t},{v!r}\n" for a, s, t, v in rows
    )
    with tempfile.TemporaryDirectory() as tmp:
        raw = _write(tmp, "raw.csv", text)
        bounds = _write(
            tmp, "b.json", json.dumps({"tasks": ts.names, "boundaries": boundaries})
        )
        out_ts, cur, logs = parse_raw_log(raw, bounds)
    assert [log.algorithm for log in logs] == list(dict.fromkeys(a for a, *_ in rows))
    for log in logs:
        records = sorted(
            ((s, t, v) for a, s, t, v in rows if a == log.algorithm),
            key=lambda r: r[0],
        )
        assert log.tasks == out_ts.names
        assert [out_ts.index(t) for _, t in log.boundaries] == list(cur.entries)
        mat = downsample_to_boundaries(log)
        values, mask = downsample_ref(records, boundaries, ts.names)
        assert mat.mask.tolist() == mask
        assert mat.values.tolist() == values


def test_parse_boundaries_errors(tmp_path):
    nondecreasing = _write(
        tmp_path,
        "b.json",
        '{"tasks": ["a"], "boundaries": [[10, "a"], [5, "a"]]}',
    )
    with pytest.raises(SchemaError) as info:
        parse_boundaries(nondecreasing)
    assert info.value.field == "boundaries"

    badpair = _write(
        tmp_path,
        "p.json",
        '{"tasks": ["a"], "boundaries": [[0, "a", "extra"]]}',
    )
    with pytest.raises(SchemaError):
        parse_boundaries(badpair)

    empty = _write(tmp_path, "e.json", '{"tasks": ["a"], "boundaries": []}')
    with pytest.raises(SchemaError) as info:
        parse_boundaries(empty)
    assert info.value.field == "boundaries"


# one boundary fault per row, with a fragment of the message it must give
_BAD_BOUNDARIES = [
    (5, "non-empty list"),
    (None, "non-empty list"),
    ([], "non-empty list"),
    ([[0]], "(global_step, task) pair"),
    ([[0, "t", "x"]], "(global_step, task) pair"),
    ([5], "(global_step, task) pair"),
    ([[True, "t"]], "64 bits"),
    ([[1.5, "t"]], "64 bits"),
    ([[2**63, "t"]], "64 bits"),
    ([[0, "t"], [0, "t"]], "strictly increasing"),
    ([[5, "t"], [0, "t"]], "strictly increasing"),
    ([[0, "w"]], "unknown task 'w'"),
    ([[0, 5]], "unknown task 5"),
]


@pytest.mark.parametrize(
    "pairs, message", _BAD_BOUNDARIES, ids=[repr(p) for p, _ in _BAD_BOUNDARIES]
)
def test_rawlog_and_boundaries_file_share_one_boundary_rule(tmp_path, pairs, message):
    with pytest.raises(ValidationError) as built:
        RawLog("a", [], pairs, ("t",))
    assert message in str(built.value)
    path = _write(tmp_path, "b.json", json.dumps({"tasks": ["t"], "boundaries": pairs}))
    with pytest.raises(SchemaError) as read:
        parse_boundaries(path)
    assert read.value.field == "boundaries"
    assert str(read.value) == f"field 'boundaries': {built.value}"


def test_rawlog_stores_boundary_pairs_as_tuples():
    log = RawLog("a", [], boundaries=[[0, "t"]], tasks=("t",))
    assert log.boundaries == ((0, "t"),)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_basic_row():
    mat = PerformanceMatrix(algorithm="a", values=np.array([[2.0, 4.0, 6.0]]))
    out = normalize_minmax(mat)
    np.testing.assert_array_equal(out.values, [[0.0, 0.5, 1.0]])


def test_normalize_unit_range_unchanged():
    values = np.array([[0.0, 0.25, 1.0], [1.0, 0.5, 0.0]])
    mat = PerformanceMatrix(algorithm="a", values=values)
    out = normalize_minmax(mat)
    np.testing.assert_array_equal(out.values, values)


def test_normalize_idempotent(rng):
    values = rng.uniform(-3, 9, size=(3, 6))
    mat = PerformanceMatrix(algorithm="a", values=values)
    once = normalize_minmax(mat)
    twice = normalize_minmax(once)
    np.testing.assert_array_equal(once.values, twice.values)
    assert once.values[once.mask].min() == 0.0
    assert once.values[once.mask].max() == 1.0


def test_normalize_preserves_order(rng):
    values = rng.uniform(-5, 5, size=(1, 8))
    mat = PerformanceMatrix(algorithm="a", values=values)
    out = normalize_minmax(mat)
    assert (np.argsort(out.values[0]) == np.argsort(values[0])).all()


def test_normalize_respects_mask():
    values = np.array([[0.0, 100.0, 10.0]])
    mask = np.array([[True, False, True]])
    mat = PerformanceMatrix(algorithm="a", values=values, mask=mask)
    out = normalize_minmax(mat)
    # the masked 100.0 plays no part in the scale and is left alone
    np.testing.assert_array_equal(out.values, [[0.0, 100.0, 1.0]])
    np.testing.assert_array_equal(out.mask, mask)


def test_normalize_constant_row_errors_with_task_name():
    values = np.array([[1.0, 2.0], [0.5, 0.5]])
    mat = PerformanceMatrix(algorithm="a", values=values)
    with pytest.raises(NormalizationError) as info:
        normalize_minmax(mat, task_names=["up", "flat"])
    assert info.value.task == "flat"
    assert "flat" in str(info.value)
    with pytest.raises(NormalizationError) as info:
        normalize_minmax(mat)
    assert info.value.task == "task index 1"


def test_normalize_range_overflowing_a_float_errors_with_task_name():
    values = np.array([[0.0, 1.0], [-1e308, 1e308]])
    mat = PerformanceMatrix(algorithm="a", values=values)
    with pytest.raises(NormalizationError, match="overflows") as info:
        normalize_minmax(mat, task_names=["ok", "wide"])
    assert info.value.task == "wide"
    assert str(info.value).startswith("task wide: ")
    # a wide range that still fits in a float is scaled as usual
    wide = PerformanceMatrix(algorithm="a", values=np.array([[-8e307, 0.0, 8e307]]))
    np.testing.assert_array_equal(normalize_minmax(wide).values, [[0.0, 0.5, 1.0]])


def test_normalize_task_names_must_cover_every_row():
    mat = PerformanceMatrix(algorithm="a", values=np.array([[1.0, 2.0], [0.5, 0.7]]))
    for names in (["only"], ["a", "b", "c"]):
        with pytest.raises(ValidationError, match="task names"):
            normalize_minmax(mat, task_names=names)


def test_normalize_empty_row_passes_through():
    values = np.array([[1.0, 2.0], [7.0, 7.0]])
    mask = np.array([[True, True], [False, False]])
    mat = PerformanceMatrix(algorithm="a", values=values, mask=mask)
    out = normalize_minmax(mat)
    np.testing.assert_array_equal(out.values[1], [7.0, 7.0])


# ---------------------------------------------------------------------------
# combined dataset loading


def test_load_dataset_pads_short_matrices(rng, tmp_path):
    ts = TaskSet(["a", "b"])
    cur = Curriculum(entries=[0, 1, 0, 1], n_tasks=2)
    write_curriculum(tmp_path / "cur.json", ts, cur)
    # curves only cover the first three steps
    short = PerformanceMatrix(algorithm="x", values=rng.uniform(size=(2, 3)))
    write_curves(tmp_path / "curves.csv", ts, [short])
    out_ts, out_cur, mats = load_dataset(tmp_path / "curves.csv", tmp_path / "cur.json")
    assert out_cur.m == 4
    assert mats[0].n_steps == 4
    assert not mats[0].mask[:, 3].any()
    np.testing.assert_array_equal(mats[0].values[:, :3], short.values)


def test_load_dataset_rejects_overlong_curves(rng, tmp_path):
    ts = TaskSet(["a", "b"])
    cur = Curriculum(entries=[0, 1], n_tasks=2)
    write_curriculum(tmp_path / "cur.json", ts, cur)
    long = PerformanceMatrix(algorithm="x", values=rng.uniform(size=(2, 3)))
    write_curves(tmp_path / "curves.csv", ts, [long])
    with pytest.raises(ValidationError):
        load_dataset(tmp_path / "curves.csv", tmp_path / "cur.json")
    # the message names the algorithm whose curve is too long, not the first
    (tmp_path / "curves.csv").write_text(
        "algorithm,step,task,performance\nA,0,a,0.1\nB,0,a,0.2\nB,5,a,0.3\n"
    )
    with pytest.raises(ValidationError, match="curves for 'B' span 6 steps"):
        load_dataset(tmp_path / "curves.csv", tmp_path / "cur.json")
    # the span is checked before any matrix is sized from the file's steps
    step = 10**12
    (tmp_path / "curves.csv").write_text(
        f"algorithm,step,task,performance\nA,{step},a,0.1\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"curves for 'A' span {step + 1} steps"):
            load_dataset(tmp_path / "curves.csv", tmp_path / "cur.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_dataset_rejects_foreign_tasks(rng, tmp_path):
    ts = TaskSet(["a", "b"])
    cur = Curriculum(entries=[0, 1], n_tasks=2)
    write_curriculum(tmp_path / "cur.json", ts, cur)
    other = TaskSet(["c", "d"])
    mat = PerformanceMatrix(algorithm="x", values=rng.uniform(size=(2, 2)))
    write_curves(tmp_path / "curves.csv", other, [mat])
    with pytest.raises(ParseError):
        load_dataset(tmp_path / "curves.csv", tmp_path / "cur.json")


# ---------------------------------------------------------------------------
# input boundary


_BOUNDARIES = '{"tasks": ["u", "v"], "boundaries": [[0, "u"], [10, "v"]]}'
_CURRICULUM = '{"tasks": ["u", "v"], "curriculum": ["u", "v"]}'


def _write_bytes(tmp_path, name, data):
    path = os.path.join(tmp_path, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def test_input_boundary_errors_are_parse_errors(tmp_path):
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    cur = _write(tmp_path, "c.json", _CURRICULUM)
    bad_byte = _write_bytes(
        tmp_path, "x.csv", b"algorithm,step,task,performance\na,0,u,0.5\xff\n"
    )
    with pytest.raises(ParseError, match="UTF-8"):
        parse_curves(bad_byte)
    raw = _write_bytes(
        tmp_path, "r.csv", b"algorithm,global_step,task,metric\n\xfe,0,u,1\n"
    )
    with pytest.raises(ParseError, match="UTF-8"):
        parse_raw_log(raw, bnd)
    for parse in (parse_curriculum, parse_params, parse_boundaries):
        with pytest.raises(ParseError):
            parse(_write_bytes(tmp_path, "j.json", b'{"tasks": ["\xff"]}'))
    with pytest.raises(ParseError):
        parse_curriculum(_write(tmp_path, "deep.json", "[" * 100_000))
    big = "1" + "0" * 30
    huge = _write(
        tmp_path, "r2.csv", f"algorithm,global_step,task,metric\na,{big},u,1\n"
    )
    with pytest.raises(ParseError) as info:
        parse_raw_log(huge, bnd)
    assert info.value.line == 2 and "range" in str(info.value)
    stranger = _write(
        tmp_path, "r3.csv", "algorithm,global_step,task,metric\na,0,u,1\na,5,w,1\n"
    )
    with pytest.raises(ParseError) as info:
        parse_raw_log(stranger, bnd)
    assert info.value.line == 3 and "unknown task 'w'" in str(info.value)
    far = _write(
        tmp_path, "b2.json", f'{{"tasks": ["u"], "boundaries": [[{big}, "u"]]}}'
    )
    with pytest.raises(SchemaError):
        parse_boundaries(far)
    curves = _write(
        tmp_path, "c.csv", f"algorithm,step,task,performance\na,{big},u,0.5\n"
    )
    with pytest.raises(ParseError):
        load_dataset(curves, cur)
    # a step equal to the curriculum length is rejected before sizing arrays
    step_m = _write(tmp_path, "m.csv", "algorithm,step,task,performance\na,2,u,0.5\n")
    with pytest.raises(ValidationError, match="span 3 steps, curriculum has 2"):
        load_dataset(step_m, cur)


def test_curves_step_too_large_for_an_array_is_a_parse_error(tmp_path):
    step = 9 * 10**18
    curves = _write(
        tmp_path, "c.csv", f"algorithm,step,task,performance\na,{step},u,0.5\n"
    )
    with pytest.raises(ParseError, match=f"step {step} is too large"):
        parse_curves(curves)
    # load_dataset checks the curriculum's length first
    cur = _write(tmp_path, "cur.json", _CURRICULUM)
    with pytest.raises(ValidationError, match=f"span {step + 1} steps, curriculum has 2"):
        load_dataset(curves, cur)


_JSON_TOKENS = [
    b'{"tasks": ["u", "v"]', b', "curriculum": ["u"', b', "v"]', b"}", b"[",
    b"]", b",", b"1" + b"0" * 400, b"1e999", b"NaN", b"-0.5", b'"u"', b"\xff",
    b'"transfer_matrix": [[1, 0], [0, 1]]', b'"difficulty": [0.5, 0]',
    b'"algorithms": [{"name": "a", "gamma": 1, "h": 0.5, "lambda": 0}]',
]


def _check_parse(parse, path):
    try:
        parse(path)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=150, deadline=None)
@given(
    curves=fuzz_bytes(b"algorithm,step,task,performance\n", CSV_TOKENS),
    raw=fuzz_bytes(b"algorithm,global_step,task,metric\n", CSV_TOKENS),
    doc=fuzz_bytes(b"", _JSON_TOKENS),
)
def test_arbitrary_bytes_raise_only_documented_errors(curves, raw, doc):
    # SchemaError is a ParseError; anything else escaping is a bug
    with tempfile.TemporaryDirectory() as tmp:
        cur = _write(tmp, "cur.json", _CURRICULUM)
        bnd = _write(tmp, "b.json", _BOUNDARIES)
        curves_path = _write_bytes(tmp, "c.csv", curves)
        raw_path = _write_bytes(tmp, "r.csv", raw)
        doc_path = _write_bytes(tmp, "d.json", doc)
        _check_parse(parse_curves, curves_path)
        _check_parse(lambda p: load_dataset(p, cur), curves_path)
        _check_parse(parse_curriculum, doc_path)
        _check_parse(parse_params, doc_path)
        _check_parse(parse_boundaries, doc_path)
        try:
            ts, cr, logs = parse_raw_log(raw_path, bnd)
            for log in logs:
                normalize_minmax(downsample_to_boundaries(log))
        except (ParseError, ValidationError, NormalizationError):
            pass


# ---------------------------------------------------------------------------
# the fast reader against the frozen row readers


_DIFF_TOKENS = CSV_TOKENS + [
    b"_", b"+", b"\t", "\u0661".encode(), b"\r\n", b",,", b"12345678901234567890",
]
# parse_curves sizes its matrices by the file's largest step, so a fuzzed
# step of 10**8 would allocate gigabytes; past this bound the reader's
# records are compared instead of the matrices
_MATRIX_STEPS = 10_000


def _outcome(fn):
    """fn()'s result, or the (type, message, line) of the error it raises."""
    try:
        return fn()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _cells(matrices):
    """Per matrix: algorithm, shape, observed cells as {(task row, step):
    float hex} and whether every masked entry is +0.0."""
    out = []
    for mat in matrices:
        cells = {
            (j, l): float(mat.values[j, l]).hex()
            for j, l in zip(*(a.tolist() for a in np.nonzero(mat.mask)))
        }
        rest = mat.values[~mat.mask]
        zeros = not np.signbit(rest).any() and not rest.any()
        out.append((mat.algorithm, mat.values.shape, cells, zeros))
    return out


def _cells_ref(cells, names, m):
    return [
        (algo, (len(names), m), {k: v.hex() for k, v in c.items()}, True)
        for algo, c in curve_cells_ref(cells, names)
    ]


def _compare_readers(tmp, curves, raw):
    cur = _write(tmp, "cur.json", _CURRICULUM)
    bnd = _write(tmp, "b.json", _BOUNDARIES)
    curves_path = _write_bytes(tmp, "c.csv", curves)
    raw_path = _write_bytes(tmp, "r.csv", raw)

    # parse_raw_log: records byte for byte
    def raw_ref():
        taskset, boundaries = parse_boundaries(bnd)
        return [
            (algo, b"".join(struct.pack("=qqd", *r) for r in rows), taskset.names, boundaries)
            for algo, rows in read_raw_log_ref(raw_path, taskset.names)
        ]

    def raw_new():
        _, _, logs = parse_raw_log(raw_path, bnd)
        return [
            (log.algorithm, log.records.tobytes(), log.tasks, log.boundaries)
            for log in logs
        ]

    assert _outcome(raw_new) == _outcome(raw_ref)

    # load_dataset: matrices over the curriculum's length
    def dataset_ref():
        taskset, curriculum = parse_curriculum(cur)
        cells, _, max_step = read_cells_ref(curves_path, taskset.names)
        check_curve_span_ref(cells, max_step, curriculum.m)
        return _cells_ref(cells, taskset.names, curriculum.m)

    def dataset_new():
        return _cells(load_dataset(curves_path, cur)[2])

    assert _outcome(dataset_new) == _outcome(dataset_ref)

    # parse_curves: the file's own tasks and length
    ref = _outcome(lambda: read_cells_ref(curves_path))
    if isinstance(ref[0], type):
        assert _outcome(lambda: parse_curves(curves_path)) == ref
    elif ref[2] < _MATRIX_STEPS:
        cells, order, max_step = ref

        def curves_ref():
            return TaskSet(names=order).names, _cells_ref(cells, order, max_step + 1)

        def curves_new():
            taskset, matrices = parse_curves(curves_path)
            return taskset.names, _cells(matrices)

        assert _outcome(curves_new) == _outcome(curves_ref)
    else:
        records, names = dataio._read_records(
            curves_path, dataio.CURVES_HEADER, "curves file", None, cells=True
        )
        max_step = max(int(rec["step"].max()) for rec in records.values())
        got = {
            algo: {(int(t), int(s)): float(v).hex() for s, t, v in rec.tolist()}
            for algo, rec in records.items()
        }
        want = {
            algo: {k: v.hex() for k, v in c.items()}
            for algo, c in curve_cells_ref(ref[0], names)
        }
        assert (names, max_step, got) == (ref[1], ref[2], want)


@settings(max_examples=300, deadline=None)
@given(
    curves=fuzz_bytes(b"algorithm,step,task,performance\n", _DIFF_TOKENS),
    raw=fuzz_bytes(b"algorithm,global_step,task,metric\n", _DIFF_TOKENS),
)
def test_readers_match_frozen_row_readers_on_fuzzed_bytes(curves, raw):
    with tempfile.TemporaryDirectory() as tmp:
        _compare_readers(tmp, curves, raw)


_ALGOS = ["a", "learner1", "x y", "t\tb", " sp"]
_ODD_ALGOS = _ALGOS + ["c,d", 'q"t', "\u00e9"]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _csv_log(draw, header):
    """A CSV written by csv.writer, half of them plain enough for the fast
    path: quoted names where needed, blank lines, repeated cells, values in
    several spellings."""
    plain = draw(st.booleans())
    algos = _ALGOS if plain else _ODD_ALGOS
    tasks = ["u", "v"] if plain else ["u", "v", "w"]
    steps = st.integers(0, 40) if plain else st.integers(-2, 12)
    values = _FINITE if plain else st.one_of(_FINITE, st.floats())
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n" if plain else "\r\n")
    out.writerow(header)
    rows = draw(st.lists(st.tuples(
        st.sampled_from(algos), steps, st.sampled_from(tasks), values,
        st.sampled_from(["{!r}", "{:.6f}", "{:.3e}", "{:g}"]), st.booleans(),
    ), max_size=30))
    for algo, step, task, value, spelling, blank in rows:
        out.writerow((algo, step, task, spelling.format(value)))
        if blank:
            out.writerow(())
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_readers_match_frozen_row_readers_on_written_logs(data):
    curves = data.draw(_csv_log(("algorithm", "step", "task", "performance")))
    raw = data.draw(_csv_log(("algorithm", "global_step", "task", "metric")))
    with tempfile.TemporaryDirectory() as tmp:
        _compare_readers(tmp, curves, raw)


def _no_row_path(monkeypatch):
    def fail(*args):
        raise AssertionError("took the row path")

    monkeypatch.setattr(dataio, "_row_records", fail)


def test_clean_files_skip_the_row_path(rng, tmp_path, monkeypatch):
    ts, params, cur = random_instance(rng, 4, 6, 3)
    mats = simulate_all(params, cur)
    curves = os.path.join(tmp_path, "c.csv")
    write_curves(curves, ts, mats)
    cur_path = os.path.join(tmp_path, "cur.json")
    write_curriculum(cur_path, ts, cur)
    body = "a,0,u,0.5\n\na,3,v,-1e-3\nb,-2,u,+7\na,1,u,1.25E2\n"
    lf = _write(tmp_path, "lf.csv", "algorithm,global_step,task,metric\n" + body)
    # csv.writer's default line ending, as in a log a script writes
    crlf = _write(tmp_path, "crlf.csv", "")
    with open(crlf, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("algorithm", "global_step", "task", "metric"))
        out.writerows(line.split(",") for line in body.split("\n") if line)
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    _no_row_path(monkeypatch)
    for _, back in (parse_curves(curves), load_dataset(curves, cur_path)[1:]):
        assert [m.values.tobytes() for m in back] == [m.values.tobytes() for m in mats]
    for raw in (lf, crlf):
        logs = parse_raw_log(raw, bnd)[2]
        assert [log.algorithm for log in logs] == ["a", "b"]
        assert logs[0].records.tolist() == [(0, 0, 0.5), (1, 0, 125.0), (3, 1, -1e-3)]


@pytest.mark.parametrize(
    "body",
    [
        '"a",0,u,0.5\n',  # a quote
        "a,0,u,0.5\rb,0,u,0.5\n",  # a carriage return that ends a line alone
        "a,0.0,u,0.5\n",  # a step numpy rejects
        "a,1_0,u,0.5\n",  # a step only int() accepts
        "a,0,u,nan\n",  # a non-finite metric
        "a,0,x,0.5\n",  # an unknown task
        ",0,u,0.5\n",  # an empty algorithm name
        "a,0,\u00fc,0.5\n",  # a byte outside printable ASCII
        "a,\x1f0,u,0.5\n",  # a space to numpy, not to int()
        "\n\n",  # no data rows
    ],
)
def test_other_files_take_the_row_path(tmp_path, monkeypatch, body):
    raw = _write(tmp_path, "r.csv", "algorithm,global_step,task,metric\n" + body)
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    _outcome(lambda: parse_raw_log(raw, bnd))  # parses or raises ParseError
    _no_row_path(monkeypatch)
    with pytest.raises(AssertionError, match="row path"):
        parse_raw_log(raw, bnd)


def test_names_with_equal_code_point_sums_skip_the_row_path(tmp_path, monkeypatch):
    # env3_seed0 and env0_seed1 hold the same code points in other places
    names = ["env3_seed0", "env0_seed1"]
    bnd = _write(
        tmp_path, "b.json",
        json.dumps({"tasks": names, "boundaries": [[0, names[0]], [10, names[1]]]}),
    )
    raw = _write(
        tmp_path, "r.csv",
        "algorithm,global_step,task,metric\nenv3_seed0,0,env0_seed1,0.5\n"
        "env0_seed1,1,env3_seed0,0.25\nenv3_seed0,2,env3_seed0,0.125\n",
    )
    _no_row_path(monkeypatch)
    logs = parse_raw_log(raw, bnd)[2]
    assert [log.algorithm for log in logs] == names
    assert logs[0].records.tolist() == [(0, 1, 0.5), (2, 0, 0.125)]
    assert logs[1].records.tolist() == [(1, 0, 0.25)]


def _fast_raw_log_matches_ref(raw, bnd, monkeypatch):
    """parse_raw_log reads ``raw`` without the row path, to the records the
    frozen row reader gives; returns the logs."""
    taskset, _ = parse_boundaries(bnd)
    want = [
        (algo, b"".join(struct.pack("=qqd", *r) for r in rows))
        for algo, rows in read_raw_log_ref(raw, taskset.names)
    ]
    _no_row_path(monkeypatch)
    logs = parse_raw_log(raw, bnd)[2]
    assert [(log.algorithm, log.records.tobytes()) for log in logs] == want
    return logs


def test_names_that_fill_their_field_are_read_whole(tmp_path, monkeypatch):
    # before any name is known the algorithm field is 8 bytes wide, and
    # loadtxt would cut the 9-byte name to the 8-byte one
    at, over = "n" * 8, "n" * 9
    raw = _write(
        tmp_path, "r.csv",
        f"algorithm,global_step,task,metric\n{at},0,u,0.5\n{over},1,v,0.25\n"
        f"{at},2,v,0.125\n",
    )
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    logs = _fast_raw_log_matches_ref(raw, bnd, monkeypatch)
    assert [log.algorithm for log in logs] == [at, over]


def test_a_longer_algorithm_in_a_later_block_is_read_whole(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
    long = "a_much_longer_algorithm_name"
    lines = [f"a,{k},u,{k / 8}" for k in range(40)]
    lines += [f"{name},{k},v,{k / 4}" for k in range(40) for name in (long, "a")]
    raw = _write(
        tmp_path, "r.csv", "algorithm,global_step,task,metric\n" + "\n".join(lines) + "\n"
    )
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    logs = _fast_raw_log_matches_ref(raw, bnd, monkeypatch)
    assert [log.algorithm for log in logs] == ["a", long]


def test_task_names_over_8_bytes_skip_the_row_path(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
    names = ["env3_seed0", "env0_seed1", "env10_seed12"]
    bnd = _write(
        tmp_path, "b.json",
        json.dumps({"tasks": names, "boundaries": [[0, names[0]], [10, names[1]]]}),
    )
    raw = _write(
        tmp_path, "r.csv",
        "algorithm,global_step,task,metric\n"
        + "".join(f"a{k % 3},{k},{names[k % 3]},{k / 3}\n" for k in range(60)),
    )
    _fast_raw_log_matches_ref(raw, bnd, monkeypatch)


def test_curves_without_a_task_set_skip_the_row_path(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
    # "t" * 8 fills the first block's 8-byte task field, as "t" * 16 fills
    # the 16-byte field that follows it, and "t" * 9 would be cut short
    tasks = ["u", "t" * 8, "t" * 9, "t" * 16, "a_task_of_22_bytes_now"]
    curves = _write(
        tmp_path, "c.csv",
        "algorithm,step,task,performance\n"
        + "".join(
            f"{algo},{k},{task},{k / 7}\n"
            for k in range(12) for task in tasks for algo in ("a", "bb")
        ),
    )
    cells, order, max_step = read_cells_ref(curves)
    _no_row_path(monkeypatch)
    taskset, matrices = parse_curves(curves)
    assert taskset.names == order == tuple(tasks)
    assert _cells(matrices) == _cells_ref(cells, order, max_step + 1)


def _multi_block_body(rng, header):
    """A CSV body several real blocks long, in segments: block 1 holds
    algorithms a, bb and tasks u, v; a later run holds one name per column;
    then c and w appear (at most 8 bytes); then a 21-byte algorithm among
    known tasks, which widens the task field too; then a 16-byte task;
    then short names again in the now wider fields; last, in blocks of
    their own, a second long algorithm that shares all but its last byte
    with the first.  Steps are the row index, so no cell repeats.  Returns
    (text, the offset of each name's first row)."""
    long_algo, long_task = "a_long_learner_name_1", "a_long_task_name"
    segments = [
        (["a", "bb"], ["u", "v"], 5_000),
        (["bb"], ["v"], 5_000),
        (["a", "bb", "c"], ["u", "v", "w"], 5_000),
        (["c", long_algo], ["u", "w"], 5_000),
        (["a", long_algo], ["w", long_task], 4_000),
        (["a"], ["u"], 5_000),
        (["a", "bb", long_algo], ["u", "w", long_task], 3_000),
        ([long_algo, long_algo[:-1] + "2"], [long_task], 4_000),
    ]
    lines, first, size = [",".join(header)], {}, len(",".join(header)) + 1
    for algos, tasks, rows in segments:
        for algo, task, value in zip(
            rng.choice(algos, rows), rng.choice(tasks, rows), rng.normal(size=rows)
        ):
            line = f"{algo},{len(lines)},{task},{value:.6f}"
            first.setdefault(algo, size)
            first.setdefault(task, size)
            lines.append(line)
            size += len(line) + 1
    return "\n".join(lines) + "\n", first


@pytest.mark.parametrize("header", [dataio.RAW_HEADER, dataio.CURVES_HEADER])
def test_readers_agree_across_blocks(rng, tmp_path, monkeypatch, header):
    # the fast path's name tables grow between blocks, and its keys change
    # from 8-byte words to whole names as fields widen past 8 bytes
    text, first = _multi_block_body(rng, header)
    assert len(text) > 4 * dataio._BLOCK_BYTES
    for name in ("c", "w", "a_long_learner_name_1", "a_long_task_name"):
        assert first[name] > dataio._BLOCK_BYTES
    path = _write(tmp_path, "log.csv", text)
    cells = header == dataio.CURVES_HEADER
    # a raw log's task set, in an order the file does not show
    tasks = None if cells else ("a_long_task_name", "w", "v", "u")
    want = dataio._row_records(path, header, "file", tasks, cells)
    _no_row_path(monkeypatch)
    got = dataio._read_records(path, header, "file", tasks, cells)
    assert got[1] == want[1]
    algos = ["a", "bb", "c", "a_long_learner_name_1", "a_long_learner_name_2"]
    algos.sort(key=first.get)
    assert list(got[0]) == list(want[0]) == algos
    assert [r.tobytes() for r in got[0].values()] == [r.tobytes() for r in want[0].values()]


@pytest.mark.parametrize("suffix", ["x", "xy", "xyz"])
def test_a_known_task_with_a_suffix_is_an_unknown_task(tmp_path, monkeypatch, suffix):
    # within, at and over the task field's width of 8 bytes
    bnd = _write(
        tmp_path, "b.json",
        '{"tasks": ["task01", "task02"], "boundaries": [[0, "task01"]]}',
    )
    raw = _write(
        tmp_path, "r.csv",
        "algorithm,global_step,task,metric\n"
        f"a,0,task01,0.5\na,1,task02,0.5\na,2,task01{suffix},0.5\n",
    )
    with pytest.raises(ParseError) as info:
        parse_raw_log(raw, bnd)
    assert str(info.value) == f"line 4: unknown task 'task01{suffix}'"
    assert _outcome(lambda: read_raw_log_ref(raw, ("task01", "task02"))) == (
        ParseError, str(info.value), 4,
    )
    _no_row_path(monkeypatch)
    with pytest.raises(AssertionError, match="row path"):
        parse_raw_log(raw, bnd)


def test_a_task_name_ending_in_nul_does_not_code_the_name_without_it(tmp_path):
    # a NUL pads byte fields, so "u\0" and "u" would share a key
    bnd = _write(
        tmp_path, "b.json",
        json.dumps({"tasks": ["u\0", "v"], "boundaries": [[0, "v"]]}),
    )
    raw = _write(
        tmp_path, "r.csv",
        "algorithm,global_step,task,metric\na,0,v,0.5\na,1,u,0.5\na,2,v,0.5\n",
    )
    with pytest.raises(ParseError) as info:
        parse_raw_log(raw, bnd)
    assert str(info.value) == "line 3: unknown task 'u'"


def test_one_very_long_name_among_short_lines_takes_the_row_path(tmp_path, monkeypatch):
    # the block's name fields, as wide as its longest line, would pass
    # _FIELD_BYTES, so the row path reads the file instead
    long = "x" * 10_000
    body = "a,0,u,0.5\n" * 5_000 + f"{long},1,v,0.25\n"
    raw = _write(tmp_path, "r.csv", "algorithm,global_step,task,metric\n" + body)
    bnd = _write(tmp_path, "b.json", _BOUNDARIES)
    logs = parse_raw_log(raw, bnd)[2]
    assert [(log.algorithm, len(log.records)) for log in logs] == [("a", 5_000), (long, 1)]
    _no_row_path(monkeypatch)
    with pytest.raises(AssertionError, match="row path"):
        parse_raw_log(raw, bnd)


def test_fields_over_the_csv_limit_are_refused(tmp_path):
    limit = csv.field_size_limit()
    head = "algorithm,global_step,task,metric\n"
    raw = _write(tmp_path, "r.csv", head + "a" * (limit + 1) + ",0,u,0.5\n")
    with pytest.raises(ParseError, match="line 2: malformed CSV: field larger"):
        parse_raw_log(raw, _write(tmp_path, "b.json", _BOUNDARIES))


def test_duplicate_and_negative_cells_take_the_row_path(tmp_path, monkeypatch):
    _no_row_path(monkeypatch)
    head = "algorithm,step,task,performance\n"
    for body in ("a,0,u,0.5\na,0,u,0.5\n", "a,-1,u,0.5\n"):
        path = _write(tmp_path, "c.csv", head + body)
        with pytest.raises(AssertionError, match="row path"):
            parse_curves(path)
    path = _write(tmp_path, "c.csv", head + "a,0,u,0.5\nb,0,u,0.5\na,1,u,0.5\n")
    assert [m.algorithm for m in parse_curves(path)[1]] == ["a", "b"]


def test_write_curves_matches_csv_writer(tmp_path):
    names = ["plain", "com,ma", 'quo"te', "new\nline", "\u00e9t\u00e9", " lead", "tab\t"]
    ts = TaskSet(names)
    values = np.linspace(-1, 1, ts.n * 3).reshape(ts.n, 3) / 3
    values[0] = -0.0, 1e-300, 0.1
    mask = np.arange(ts.n * 3).reshape(ts.n, 3) % 4 != 1
    mats = [PerformanceMatrix(algorithm=a, values=values, mask=mask) for a in names]
    path = os.path.join(tmp_path, "c.csv")
    write_curves(path, ts, mats)
    buf = io.StringIO(newline="")
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(("algorithm", "step", "task", "performance"))
    for mat in mats:
        for l in range(mat.n_steps):
            for j, name in enumerate(names):
                if mat.mask[j, l]:
                    out.writerow((mat.algorithm, l, name, float(mat.values[j, l])))
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == buf.getvalue()
    _, back = parse_curves(path, taskset=ts)
    assert [m.values[m.mask].tobytes() for m in back] == [
        m.values[m.mask].tobytes() for m in mats
    ]
