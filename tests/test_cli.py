import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from latentperf import (
    DivergenceError,
    ParseError,
    TaskSet,
    ValidationError,
    load_dataset,
    parse_curriculum,
    parse_curves,
    parse_params,
    parse_raw_log,
    simulate_all,
    write_curves,
    write_params,
)
from latentperf import estimator
from latentperf.cli import main

from conftest import CSV_TOKENS, DATA_DIR, fuzz_bytes, random_instance


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _generate(tmp_path, name="gen", **overrides):
    out = tmp_path / name
    argv = [
        "generate",
        "--tasks", "3",
        "--algos", "2",
        "--length", "5",
        "--seed", "4",
        "--out", str(out),
    ]
    for key, value in overrides.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return out


# ---------------------------------------------------------------------------
# generate and simulate


def test_generate_writes_bundle(tmp_path):
    out = _generate(tmp_path)
    for name in ("params.json", "curriculum.json", "curves.csv"):
        assert (out / name).exists()
    ts, params = parse_params(out / "params.json")
    assert ts.names == ("task1", "task2", "task3")
    assert params.p == 2


def test_generate_deterministic(tmp_path):
    a = _generate(tmp_path, "a")
    b = _generate(tmp_path, "b")
    for name in ("params.json", "curriculum.json", "curves.csv"):
        assert _bytes(a / name) == _bytes(b / name)


def test_generate_infinite_noise_exits_2(tmp_path, capsys):
    # infinite noise would turn every curve entry into a +-1 coin flip
    out = tmp_path / "gen"
    argv = ["generate", "--noise", "inf", "--out", str(out)]
    assert main(argv) == 2
    assert "noise_std" in capsys.readouterr().err
    assert not (out / "curves.csv").exists()


def test_simulate_reproduces_generated_curves(tmp_path):
    out = _generate(tmp_path)
    sim = tmp_path / "sim.csv"
    code = main([
        "simulate",
        "--params", str(out / "params.json"),
        "--curriculum", str(out / "curriculum.json"),
        "--out", str(sim),
    ])
    assert code == 0
    assert _bytes(sim) == _bytes(out / "curves.csv")


def test_simulate_rejects_mismatched_tasks(tmp_path, capsys, rng):
    out = _generate(tmp_path)
    ts, params, _ = random_instance(rng, 3, 4, 1)
    other = tmp_path / "other.json"
    write_params(other, TaskSet(["x1", "x2", "x3"]), params)
    code = main([
        "simulate",
        "--params", str(other),
        "--curriculum", str(out / "curriculum.json"),
        "--out", str(tmp_path / "sim.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_duplicate_algorithm_names_exits_2(tmp_path, capsys):
    # a curves CSV with two algorithms of one name could not be read back
    out = _generate(tmp_path)
    doc = json.loads((out / "params.json").read_text())
    doc["algorithms"][1]["name"] = doc["algorithms"][0]["name"]
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(doc))
    sim = tmp_path / "sim.csv"
    code = main([
        "simulate",
        "--params", str(dup),
        "--curriculum", str(out / "curriculum.json"),
        "--out", str(sim),
    ])
    assert code == 2
    assert "duplicate algorithm name" in capsys.readouterr().err
    assert not sim.exists()


def test_simulate_overflowing_params_exits_2(tmp_path, capsys):
    # finite params whose experience over difficulty overflows at step 0
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "tasks": ["t1", "t2"],
        "transfer_matrix": [[1, -1], [-1, 1]],
        "difficulty": [0.5, 0.5],
        "algorithms": [{"name": "a", "gamma": 1e308, "h": 1, "lambda": 0}],
    }))
    cur = tmp_path / "curriculum.json"
    cur.write_text(json.dumps({"tasks": ["t1", "t2"], "curriculum": ["t1", "t2"] * 2}))
    sim = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "simulate",
            "--params", str(params),
            "--curriculum", str(cur),
            "--out", str(sim),
        ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: experience over difficulty of 'a' is not finite at step 0: "
        "the params overflow the rollout"
    ]
    assert not sim.exists()


def test_simulate_refuses_to_overwrite_its_inputs(tmp_path, capsys):
    data = _generate(tmp_path)
    params, cur = data / "params.json", data / "curriculum.json"
    kept = {path: path.read_bytes() for path in (params, cur)}
    for out in (params, cur, data / ".." / data.name / "params.json"):
        code = main([
            "simulate", "--params", str(params), "--curriculum", str(cur), "--out", str(out),
        ])
        assert code == 2
        assert "must name different files" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in kept} == kept


def test_missing_input_exits_2(tmp_path, capsys):
    code = main([
        "simulate",
        "--params", str(tmp_path / "nope.json"),
        "--curriculum", str(tmp_path / "nope2.json"),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the output rule, common to every command that writes


# Per command: its argv reading every input from the directory ``src`` and
# writing to ``out``, and the file it writes there ("" for ``out`` itself).
_WRITERS = {
    "simulate": (lambda src, out: [
        "simulate", "--params", f"{src}/params.json",
        "--curriculum", f"{src}/curriculum.json", "--out", out,
    ], ""),
    "generate": (lambda src, out: ["generate", "--tasks", "2", "--out", out], "curves.csv"),
    "fit": (lambda src, out: [
        "fit", "--data", f"{src}/curves.csv", "--curriculum", f"{src}/curriculum.json",
        "--steps", "2", "--out", out,
    ], "predicted.csv"),
    "ingest": (lambda src, out: [
        "ingest", "--raw", f"{src}/raw_metrics.csv",
        "--boundaries", f"{src}/raw_boundaries.json", "--out", out,
    ], ""),
    "report": (lambda src, out: [
        "report", "--estimates", f"{src}/params.json", "--labels", "a",
        "--param", "gamma", "--out", out,
    ], ""),
}


def _writer_inputs(tmp_path):
    """A directory with every input of every ``_WRITERS`` command."""
    src = _generate(tmp_path)
    for name in ("raw_metrics.csv", "raw_boundaries.json"):
        (src / name).write_bytes(_bytes(f"{DATA_DIR}/{name}"))
    return src


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_outputs_get_their_directories_unless_a_file_is_in_the_way(
    tmp_path, capsys, command
):
    argv, written = _WRITERS[command]
    src = _writer_inputs(tmp_path)
    out = tmp_path / "new" / "sub" / "x"
    assert main(argv(src, str(out))) == 0
    assert (out / written).is_file()
    capsys.readouterr()
    # Inputs that do not exist: the refusal must come before any read.
    (tmp_path / "taken").write_bytes(b"")
    code = main(argv(tmp_path / "absent", str(tmp_path / "taken" / "x")))
    assert code == 2
    assert f"{tmp_path / 'taken'} exists and is not a directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_bytes() == b""


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_outputs_that_are_directories_are_refused_before_any_read(
    tmp_path, capsys, command
):
    argv, written = _WRITERS[command]
    src = _writer_inputs(tmp_path)
    out = tmp_path / "out"
    (out / written).mkdir(parents=True)
    progress = ["--progress"] if command == "fit" else []
    # Inputs that do not exist, then real ones: either way the refusal
    # comes first, so no fit step runs and no output is written.
    for inputs in (tmp_path / "absent", src):
        assert main([*argv(inputs, str(out)), *progress]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out / written} is a directory, not a file\n"
        assert list(out.rglob("*")) == ([out / written] if written else [])


# ---------------------------------------------------------------------------
# fit


def _fit(tmp_path, data_dir, extra=(), name="fitted"):
    out = tmp_path / name
    argv = [
        "fit",
        "--data", str(data_dir / "curves.csv"),
        "--curriculum", str(data_dir / "curriculum.json"),
        "--steps", "40",
        "--seed", "9",
        "--out", str(out),
        *extra,
    ]
    return main(argv), out


def test_fit_writes_artifacts(tmp_path, capsys):
    data = _generate(tmp_path)
    code, out = _fit(tmp_path, data)
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("total MSE: ")
    for name in ("estimates.json", "predicted.csv", "report.md", "metrics.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"mse_total", "mse_per_algorithm"}
    assert metrics["mse_total"] >= 0.0
    assert set(metrics["mse_per_algorithm"]) == {"algo1", "algo2"}
    report = (out / "report.md").read_text()
    assert "### Estimated algorithm properties" in report
    assert "### Estimated task transfer" in report
    assert "### Estimated task difficulty" in report
    # estimates must be feasible parameters
    _, est = parse_params(out / "estimates.json")
    assert (np.abs(est.tasks.transfer) <= 1.0).all()


def test_fit_refuses_to_overwrite_its_inputs(tmp_path, capsys):
    data = _generate(tmp_path)
    code, out = _fit(tmp_path, data, name="est")
    assert code == 0
    kept = {path: path.read_bytes() for path in out.iterdir()}
    for curves, cur in (
        (out / "predicted.csv", data / "curriculum.json"),
        (data / "curves.csv", out / "estimates.json"),
    ):
        code = main([
            "fit", "--data", str(curves), "--curriculum", str(cur), "--out", str(out),
        ])
        assert code == 2
        assert "must name different files" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in out.iterdir()} == kept


def test_fit_refuses_an_out_that_is_a_file_before_fitting(tmp_path, capsys):
    data = _generate(tmp_path)
    (tmp_path / "taken").write_bytes(b"not a directory")
    inputs = [tmp_path / "taken", data / "curves.csv", data / "curriculum.json"]
    kept = [path.read_bytes() for path in inputs]
    for name in ("taken", "taken/sub"):
        code, _ = _fit(tmp_path, data, extra=("--progress",), name=name)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no progress line: no fit step ran
        assert "taken exists and is not a directory" in captured.err
        assert [path.read_bytes() for path in inputs] == kept


def test_fit_predictions_are_simulate_all_of_the_estimates(tmp_path, capsys):
    data = _generate(tmp_path)
    code, out = _fit(tmp_path, data, extra=("--restarts", "3"))
    assert code == 0
    taskset, params = parse_params(out / "estimates.json")
    _, curriculum = parse_curriculum(data / "curriculum.json")
    write_curves(tmp_path / "expected.csv", taskset, simulate_all(params, curriculum))
    assert _bytes(out / "predicted.csv") == _bytes(tmp_path / "expected.csv")


def test_fit_deterministic_across_runs(tmp_path, capsys):
    data = _generate(tmp_path)
    _, out1 = _fit(tmp_path, data, name="f1")
    _, out2 = _fit(tmp_path, data, name="f2")
    for name in ("estimates.json", "predicted.csv", "report.md", "metrics.json"):
        assert _bytes(out1 / name) == _bytes(out2 / name)


def test_fit_progress_lines(tmp_path, capsys):
    data = _generate(tmp_path)
    code, _ = _fit(tmp_path, data, extra=("--progress",))
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    progress = [l for l in lines if "," in l]
    assert len(progress) == 40
    first_step, first_loss = progress[0].split(",")
    assert first_step == "1"
    assert float(first_loss) >= 0.0


def test_fit_steps_zero_is_projected_init(tmp_path, capsys):
    data = _generate(tmp_path)
    out = tmp_path / "noopt"
    code = main([
        "fit",
        "--data", str(data / "curves.csv"),
        "--curriculum", str(data / "curriculum.json"),
        "--steps", "0",
        "--out", str(out),
    ])
    assert code == 0
    _, est = parse_params(out / "estimates.json")
    assert (np.abs(est.tasks.transfer) <= 1.0).all()
    assert (est.tasks.difficulty >= 1e-3).all()


def test_fit_divergence_exits_3(tmp_path, capsys):
    data = _generate(tmp_path)
    # rewrite the curves with astronomically large targets
    ts, mats = parse_curves(data / "curves.csv")
    text = ["algorithm,step,task,performance"]
    for mat in mats:
        for l in range(mat.n_steps):
            for j in range(ts.n):
                text.append(f"{mat.algorithm},{l},{ts.names[j]},1e308")
    (data / "curves.csv").write_text("\n".join(text) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _fit(tmp_path, data)
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err and "after 0 optimizer steps" in err


def test_fit_parameter_overflow_exits_3(tmp_path, capsys):
    data = _generate(tmp_path, tasks=5, algos=3, length=9, seed=0)
    extra = ("--lr", "1e308", "--steps", "5", "--seed", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _fit(tmp_path, data, extra=extra)
    assert code == 3
    assert "error: non-finite" in capsys.readouterr().err


def test_fit_infinite_lr_exits_2(tmp_path, capsys):
    data = _generate(tmp_path)
    code, _ = _fit(tmp_path, data, extra=("--lr", "inf"))
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err


def test_fit_invalid_restarts_exits_2(tmp_path, capsys):
    data = _generate(tmp_path)
    code, _ = _fit(tmp_path, data, extra=("--restarts", "0"))
    assert code == 2


def test_fit_has_no_init_option(tmp_path, capsys):
    data = _generate(tmp_path)
    with pytest.raises(SystemExit) as info:
        _fit(tmp_path, data, extra=("--init", "uniform"))
    assert info.value.code == 2


def test_fit_bad_input_bytes_exit_2(tmp_path, capsys):
    data = _generate(tmp_path)  # curriculum of length 5
    header = b"algorithm,step,task,performance\n"
    for body in (
        b"a,0,task1,0.5\xff\n",
        b"a,1" + b"0" * 30 + b",task1,0.5\n",
        b"a,5,task1,0.5\n",
    ):
        (data / "curves.csv").write_bytes(header + body)
        code, _ = _fit(tmp_path, data)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# ingest


def test_ingest_normalizes_fixture(tmp_path):
    out = tmp_path / "curves.csv"
    cur_out = tmp_path / "curriculum.json"
    code = main([
        "ingest",
        "--raw", f"{DATA_DIR}/raw_metrics.csv",
        "--boundaries", f"{DATA_DIR}/raw_boundaries.json",
        "--out", str(out),
        "--curriculum-out", str(cur_out),
    ])
    assert code == 0
    ts, mats = parse_curves(out)
    assert ts.names == ("alpha", "beta", "gamma")
    learner1 = mats[0]
    # alpha row (0.2, 0.5, 0.85) scales onto [0, 1]
    np.testing.assert_allclose(
        learner1.values[0], [0.0, (0.5 - 0.2) / 0.65, 1.0], rtol=1e-15
    )
    doc = json.loads(cur_out.read_text())
    assert doc["curriculum"] == ["alpha", "beta", "gamma"]


def test_ingest_without_normalization_keeps_raw_values(tmp_path):
    out = tmp_path / "raw_curves.csv"
    code = main([
        "ingest",
        "--raw", f"{DATA_DIR}/raw_metrics.csv",
        "--boundaries", f"{DATA_DIR}/raw_boundaries.json",
        "--normalize", "none",
        "--out", str(out),
    ])
    assert code == 0
    _, mats = parse_curves(out)
    np.testing.assert_array_equal(mats[0].values[0], [0.2, 0.5, 0.85])


def test_ingest_refuses_to_overwrite_its_inputs(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "raw.csv"
    bounds = tmp_path / "bounds.json"
    raw.write_bytes(_bytes(f"{DATA_DIR}/raw_metrics.csv"))
    bounds.write_bytes(_bytes(f"{DATA_DIR}/raw_boundaries.json"))
    kept = {path: path.read_bytes() for path in (raw, bounds)}
    monkeypatch.chdir(tmp_path)
    curves = tmp_path / "curves.csv"
    for out, cur_out in (
        ("raw.csv", None),
        ("./bounds.json", None),
        (str(curves), str(raw)),
        (str(curves), "bounds.json"),
        (str(curves), "./curves.csv"),
    ):
        argv = ["ingest", "--raw", str(raw), "--boundaries", str(bounds), "--out", out]
        if cur_out is not None:
            argv += ["--curriculum-out", cur_out]
        assert main(argv) == 2
        assert "must name different files" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in kept} == kept
    assert not curves.exists()


def test_ingest_constant_metric_exits_2(tmp_path, capsys):
    raw = tmp_path / "flat.csv"
    raw.write_text(
        "algorithm,global_step,task,metric\n"
        "a,0,t,0.5\n"
        "a,10,t,0.5\n"
    )
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"tasks": ["t"], "boundaries": [[0, "t"], [10, "t"]]}')
    code = main([
        "ingest",
        "--raw", str(raw),
        "--boundaries", str(bounds),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert "task t" in capsys.readouterr().err


def test_ingest_metric_range_overflowing_a_float_exits_2(tmp_path, capsys):
    raw = tmp_path / "wide.csv"
    raw.write_text(
        "algorithm,global_step,task,metric\n"
        "a,0,t,-1e308\n"
        "a,10,t,1e308\n"
    )
    bounds = tmp_path / "bounds.json"
    bounds.write_text('{"tasks": ["t"], "boundaries": [[0, "t"], [10, "t"]]}')
    code = main([
        "ingest",
        "--raw", str(raw),
        "--boundaries", str(bounds),
        "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: task t: value range overflows")


def test_ingest_bad_input_bytes_exit_2(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    bounds = tmp_path / "bounds.json"
    for raw_bytes, bounds_bytes in (
        (b"algorithm,global_step,task,metric\na,0,t,0.5\xff\n",
         b'{"tasks": ["t"], "boundaries": [[0, "t"]]}'),
        (b"algorithm,global_step,task,metric\na,0,t,0.5\n",
         b'{"tasks": ["\xff"], "boundaries": [[0, "t"]]}'),
    ):
        raw.write_bytes(raw_bytes)
        bounds.write_bytes(bounds_bytes)
        code = main([
            "ingest",
            "--raw", str(raw),
            "--boundaries", str(bounds),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def _run_quietly(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _rejects(fn) -> bool:
    try:
        fn()
    except (ParseError, ValidationError):
        return True
    return False


@settings(max_examples=60, deadline=None)
@given(
    curves=fuzz_bytes(b"algorithm,step,task,performance\n", CSV_TOKENS),
    raw=fuzz_bytes(b"algorithm,global_step,task,metric\n", CSV_TOKENS),
)
def test_fit_and_ingest_on_arbitrary_bytes_exit_cleanly(curves, raw):
    # main must return, never raise; input the parsers reject exits 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cur = tmp / "cur.json"
        cur.write_text('{"tasks": ["u", "v"], "curriculum": ["u", "v"]}')
        bnd = tmp / "b.json"
        bnd.write_text('{"tasks": ["u", "v"], "boundaries": [[0, "u"], [10, "v"]]}')
        (tmp / "c.csv").write_bytes(curves)
        (tmp / "r.csv").write_bytes(raw)

        rejected = _rejects(lambda: load_dataset(tmp / "c.csv", cur))
        code, err = _run_quietly([
            "fit", "--data", str(tmp / "c.csv"), "--curriculum", str(cur),
            "--steps", "1", "--out", str(tmp / "fit"),
        ])
        assert code == 2 if rejected else code in (0, 3)
        assert code == 0 or err.startswith("error:")

        rejected = _rejects(lambda: parse_raw_log(tmp / "r.csv", bnd))
        code, err = _run_quietly([
            "ingest", "--raw", str(tmp / "r.csv"), "--boundaries", str(bnd),
            "--out", str(tmp / "out.csv"),
        ])
        assert code == 2 if rejected else code in (0, 2)
        assert code == 0 or err.startswith("error:")


# ---------------------------------------------------------------------------
# recover-check


def test_recover_check_fails_thresholds_quickly(capsys):
    code = main(["recover-check", "--trials", "1", "--steps", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "| parameter | mse | threshold | ok |" in out
    assert "FAIL (1/1 trials)" in out


def test_recover_check_zero_jobs_exits_2(capsys):
    code = main(["recover-check", "--trials", "1", "--steps", "1", "--jobs", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: jobs must be at least 1\n"


def test_recover_check_seed_out_of_range_exits_2(capsys):
    for seed in ("-3", str(2**64)):
        code = main(["recover-check", "--trials", "1", "--steps", "1", "--seed", seed])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed must fit in an unsigned 64-bit integer\n"
        )
    # the largest seed is accepted, and its trial seeds wrap past it
    code = main(["recover-check", "--trials", "2", "--steps", "1",
                 "--seed", str(2**64 - 1)])
    assert code == 1
    assert "FAIL (2/2 trials)" in capsys.readouterr().out


def test_recover_check_every_trial_diverged_exits_3(capsys):
    # Only the error line reaches stderr: no numpy overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["recover-check", "--trials", "2", "--steps", "5", "--lr", "1e308"])
    assert code == 3
    assert capsys.readouterr().err == "error: every recovery trial diverged\n"


def test_recover_check_reports_skipped_trial(monkeypatch, capsys):
    real_fit = estimator.fit
    calls = []

    def fit_failing_second_trial(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise DivergenceError(0, "loss")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(estimator, "fit", fit_failing_second_trial)
    code = main(["recover-check", "--trials", "3", "--steps", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "\nskipped 1 diverged trial(s) of 3\n" in out
    assert "FAIL (2/3 trials)" in out


# ---------------------------------------------------------------------------
# report


def test_report_compares_two_estimate_files(tmp_path, rng):
    files = []
    for k in range(2):
        ts, params, _ = random_instance(rng, 3, 4, 2)
        path = tmp_path / f"est{k}.json"
        write_params(path, ts, params)
        files.append(str(path))
    out = tmp_path / "cmp.md"
    code = main([
        "report",
        "--estimates", *files,
        "--labels", "first", "second",
        "--param", "gamma",
        "--out", str(out),
    ])
    assert code == 0
    md = out.read_text()
    assert "| algorithm | first | second |" in md
    doc = json.loads((tmp_path / "cmp.json").read_text())
    assert doc["parameter"] == "gamma"
    assert "first|second" in doc["spearman"]


def test_report_refuses_to_overwrite_its_output_or_inputs(tmp_path, rng, capsys):
    # the JSON table goes to out.with_suffix(".json"); neither output may
    # be the other or an estimates file
    ts, params, _ = random_instance(rng, 2, 3, 1)
    path = tmp_path / "est.json"
    write_params(path, ts, params)
    kept = path.read_bytes()
    for out in (tmp_path / "r.json", tmp_path / "est.md", path):
        code = main([
            "report",
            "--estimates", str(path),
            "--labels", "a",
            "--param", "gamma",
            "--out", str(out),
        ])
        assert code == 2
        assert "must name different files" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "est.md").exists()
    assert path.read_bytes() == kept


def test_report_label_count_mismatch_exits_2(tmp_path, rng, capsys):
    ts, params, _ = random_instance(rng, 2, 3, 1)
    path = tmp_path / "est.json"
    write_params(path, ts, params)
    code = main([
        "report",
        "--estimates", str(path),
        "--labels", "a", "b",
        "--param", "gamma",
        "--out", str(tmp_path / "cmp.md"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main([
        "report",
        "--estimates", str(path), str(path),
        "--labels", "a", "a",
        "--param", "gamma",
        "--out", str(tmp_path / "cmp.md"),
    ])
    assert code == 2
    assert "error: duplicate label 'a'" in capsys.readouterr().err
