"""File formats and raw-log preparation.

Three small formats, all human-auditable:

* curves CSV: long-form rows ``algorithm,step,task,performance``; a missing
  row means that cell is unobserved (mask false).
* curriculum JSON: ``{"tasks": [...], "curriculum": [...]}`` with task
  names in training order.
* params JSON: ``{"tasks": ..., "transfer_matrix": ..., "difficulty": ...,
  "algorithms": [{"name", "gamma", "h", "lambda"}, ...]}``.

Raw training logs arrive as ``algorithm,global_step,task,metric`` CSV plus
a boundaries JSON marking where each curriculum phase starts; they are
downsampled to one column per phase before fitting.  A parsed log holds its
rows as 24-byte records (int64 step, int64 index into the log's task name
table, float64 metric), stably sorted by step so that rows at the same step
keep their file order.

Both CSV formats are read in blocks of lines by np.loadtxt, numpy's C
tokenizer and number parser, whenever that can prove the file clean (see
``_fast_records``); any other file is read row by row with ``csv`` (see
``_row_records``), which is the one source of parse errors and their line
numbers.  Both paths give the same values for every file they accept.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ParseError, SchemaError, ValidationError
from .model import (
    ALGORITHM_FIELDS,
    D_MIN,
    AlgorithmProperties,
    Curriculum,
    PerformanceMatrix,
    ScenarioParams,
    TaskProperties,
    TaskSet,
    _algorithm_record,
)

CURVES_HEADER = ("algorithm", "step", "task", "performance")
RAW_HEADER = ("algorithm", "global_step", "task", "metric")

# Steps must fit in 64 bits: they become numpy indices and int64 arrays.
_STEP_LIMIT = 2**63

# One raw-log row: step, index into the log's task name table, metric.
_RECORD = np.dtype([("step", np.int64), ("task", np.int64), ("metric", np.float64)])


# ---------------------------------------------------------------------------
# curves CSV


def _csv_field(name: str) -> str:
    """``name`` as write_curves' ``csv.writer`` writes it within a row,
    quoted only where QUOTE_MINIMAL needs it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((name,))
    return buf.getvalue()[:-1]


def write_curves(path, taskset: TaskSet, matrices) -> None:
    """Write performance matrices as long-form CSV (masked cells omitted)."""
    for mat in matrices:
        if mat.n_tasks != taskset.n:
            raise ValidationError(
                f"matrix for {mat.algorithm!r} covers {mat.n_tasks} tasks, "
                f"task set has {taskset.n}"
            )
    names = [_csv_field(name) for name in taskset.names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CURVES_HEADER) + "\n")
        # tolist() gives Python floats, whose repr is what csv writes: the
        # shortest string that parses back to the same double, so round
        # trips are exact.
        for mat in matrices:
            algo = _csv_field(mat.algorithm)
            fh.writelines(
                f"{algo},{l},{name},{v!r}\n"
                for l, (values, mask) in enumerate(
                    zip(mat.values.T.tolist(), mat.mask.T.tolist())
                )
                for name, v, observed in zip(names, values, mask)
                if observed
            )


def _read_rows(path, header, what: str):
    """Stream (line number, algorithm, step, task, value) for each data row
    of a four-column CSV headed by ``header``; steps are 64-bit integers and
    values finite floats.  Messages name columns after ``header`` and the
    file after ``what``."""
    step_name, value_name = header[1], header[3]
    seen = False
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(f"empty {what}", line=1)
            if tuple(first) != header:
                raise ParseError(
                    f"expected header {','.join(header)}, got {','.join(first)}",
                    line=1,
                )
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num  # a quoted field may span lines
                if len(row) != 4:
                    raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
                algo, step_s, task, value_s = row
                if not algo:
                    raise ParseError("empty algorithm name", line=lineno)
                try:
                    step = int(step_s)
                except ValueError:
                    raise ParseError(
                        f"{step_name} {step_s!r} is not an integer", line=lineno
                    )
                if not -_STEP_LIMIT <= step < _STEP_LIMIT:
                    raise ParseError(
                        f"{step_name} {step_s!r} is out of range", line=lineno
                    )
                try:
                    value = float(value_s)
                except ValueError:
                    raise ParseError(
                        f"{value_name} {value_s!r} is not a number", line=lineno
                    )
                if not math.isfinite(value):
                    raise ParseError(
                        f"{value_name} {value_s!r} is not finite", line=lineno
                    )
                seen = True
                yield lineno, algo, step, task, value
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if not seen:
        raise ParseError(f"{what} has no data rows", line=1)


def _row_records(path, header, what: str, tasks, cells: bool):
    """The row path: ``_read_rows`` plus the checks on its rows, as
    (records, task names); see ``_read_records``.  Every parse error,
    message and line number comes from here."""
    known = {name: j for j, name in enumerate(tasks or ())}
    columns: dict[str, tuple[array, array, array]] = {}
    seen = set()  # (algorithm, step, task code) of a curves file's cells
    for lineno, algo, step, task, value in _read_rows(path, header, what):
        if cells and step < 0:
            raise ParseError(f"step {step} is negative", line=lineno)
        j = known.get(task)
        if j is None:
            if tasks is not None:
                raise ParseError(f"unknown task {task!r}", line=lineno)
            j = known[task] = len(known)
        if cells:
            if (algo, step, j) in seen:
                raise ParseError(
                    f"duplicate cell for ({algo}, step {step}, {task})", line=lineno
                )
            seen.add((algo, step, j))
        cols = columns.get(algo)
        if cols is None:
            cols = columns[algo] = (array("q"), array("q"), array("d"))
        cols[0].append(step)
        cols[1].append(j)
        cols[2].append(value)
    records = {}
    for algo in list(columns):
        # popped so that each algorithm's columns are freed once copied
        cols = columns.pop(algo)
        rec = records[algo] = np.empty(len(cols[0]), dtype=_RECORD)
        for field, col in zip(_RECORD.names, cols):
            rec[field] = np.frombuffer(col, dtype=col.typecode)
    return records, tuple(known)


# The fast path tokenizes this many bytes of whole lines at a time, and
# halves a block while its line count times its longest line exceeds
# _BLOCK_CHARS, which bounds the memory its string fields take.
_BLOCK_BYTES = 1 << 16
_BLOCK_CHARS = 1 << 18

# Bytes the fast path leaves to the row path once each \r\n has become \n:
# all but tab, newline and printable ASCII, and the double quote.  Over
# what remains, numpy's tokenizer splits lines as csv does and accepts a
# subset of the numbers int() and float() accept, parsed to the same
# values.  Elsewhere it does not: csv also ends a line at a lone \r, numpy
# strips \x1c-\x1f around numbers, reads some non-ASCII code points as
# digits, and strips trailing NULs from strings.
_UNSAFE = bytes(b for b in range(256) if not (32 <= b < 127 or b in b"\t\n") or b == 34)


class _Defer(ValueError):
    """The fast path cannot prove a file clean; the row path reads it."""


def _parse_lines(lines, limit: int):
    """np.loadtxt over ``lines`` (no quoting, no comments), as structured
    arrays whose string fields are as wide as the longest line, so none is
    cut short; blank lines are skipped, and a line longer than ``limit``
    raises _Defer."""
    width = max(map(len, lines))
    if width > limit:
        raise _Defer
    if not width:
        return
    if len(lines) * width > _BLOCK_CHARS and len(lines) > 1:
        half = len(lines) // 2
        yield from _parse_lines(lines[:half], limit)
        yield from _parse_lines(lines[half:], limit)
        return
    dtype = [("algo", f"U{width}"), ("step", np.int64), ("task", f"U{width}"),
             ("value", np.float64)]
    yield np.loadtxt(
        lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
    )


def _codes(column: np.ndarray, known: dict[str, int], grow: bool) -> np.ndarray:
    """Codes for a block's string column from ``known`` (name -> code),
    a fixed table (a task set's) or, with ``grow``, one that takes new
    names in order of first appearance.  A name outside a fixed table and
    an empty name raise _Defer."""
    distinct, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    table = np.empty(len(distinct), np.int64)
    for i in np.argsort(first):
        name = str(distinct[i])
        code = known.get(name)
        if code is None:
            if not (grow and name):
                raise _Defer
            code = known[name] = len(known)
        table[i] = code
    return table[inverse]


def _fast_records(path, header, tasks, cells: bool):
    """The fast path: what ``_row_records`` returns, read in blocks of lines
    by np.loadtxt (numpy's C tokenizer and number parser).  It raises
    ValueError, and the row path reads the file, unless the file, with
    \r\n read as \n, holds no _UNSAFE byte, opens with ``header``, has no
    line over csv's field size limit and only rows that numpy parses into
    int64 steps, finite float64 values, non-empty algorithm names and
    known tasks; a curves file (``cells``) also needs no negative step and
    no duplicate cell."""
    algos: dict[str, int] = {}
    names = {name: j for j, name in enumerate(tasks or ())}
    # per algorithm code: a _RECORD buffer, grown in place like an
    # array('q'), and how many of its rows are filled
    filled: dict[int, list] = {}
    limit = csv.field_size_limit()
    want = ",".join(header).encode()
    with open(path, "rb") as fh:
        if fh.readline() not in (want + b"\n", want + b"\r\n"):
            raise _Defer
        while block := fh.read(_BLOCK_BYTES):
            # the block ends at a line end, so it splits no \r\n
            block = (block + fh.readline()).replace(b"\r\n", b"\n")
            if len(block.translate(None, _UNSAFE)) != len(block):
                raise _Defer
            lines = block.decode("ascii").split("\n")
            del block
            for rows in _parse_lines(lines, limit):
                steps, values = rows["step"], rows["value"]
                if not np.isfinite(values).all() or cells and steps.min() < 0:
                    raise _Defer
                algo_codes = _codes(rows["algo"], algos, grow=True)
                task_codes = _codes(rows["task"], names, grow=tasks is None)
                present = np.unique(algo_codes)
                for a in present:
                    mine = algo_codes == a if len(present) > 1 else slice(None)
                    part = steps[mine], task_codes[mine], values[mine]
                    # codes grow in order of first appearance, and so does filled
                    slot = filled.setdefault(a, [np.empty(0, _RECORD), 0])
                    buf, start = slot
                    end = slot[1] = start + len(part[0])
                    if end > len(buf):
                        buf.resize(max(end, len(buf) + len(buf) // 8), refcheck=False)
                    for field, column in zip(_RECORD.names, part):
                        buf[field][start:end] = column
    if not filled:
        raise _Defer
    records = {}
    for algo, (buf, rows) in zip(algos, filled.values()):
        buf.resize(rows, refcheck=False)
        records[algo] = buf
        if cells:
            by_cell = buf[np.lexsort((buf["task"], buf["step"]))]
            step, task = by_cell["step"], by_cell["task"]
            if ((step[1:] == step[:-1]) & (task[1:] == task[:-1])).any():
                raise _Defer
    return records, tuple(names)


def _read_records(path, header, what: str, tasks, cells: bool):
    """A four-column CSV's data rows as ({algorithm: records}, task names).
    Algorithms are in order of first appearance, and each one's rows are
    _RECORD records in file order, whose ``metric`` field holds the value
    column and whose ``task`` field indexes the task names.  Those are
    ``tasks`` if given (other tasks are an error) and otherwise the file's,
    in order of first appearance.  With ``cells`` (a curves file), negative
    steps and duplicate cells are errors.  The fast path reads the file if
    it can; otherwise the row path re-reads it."""
    try:
        return _fast_records(path, header, tasks, cells)
    except ValueError:
        pass  # leaving the except clause frees what the fast pass read
    return _row_records(path, header, what, tasks, cells)


def _read_cells(path, taskset: TaskSet | None):
    """A curves CSV's records and task names (see ``_read_records``) and
    its largest step."""
    records, names = _read_records(
        path, CURVES_HEADER, "curves file",
        None if taskset is None else taskset.names, cells=True,
    )
    max_step = max(int(rec["step"].max()) for rec in records.values())
    return records, names, max_step


def _curve_matrices(records, taskset: TaskSet, m: int) -> list[PerformanceMatrix]:
    # task codes index the task set (_read_cells checked them against it)
    matrices = []
    for algo, rec in records.items():
        cells = rec["task"], rec["step"]
        values = np.zeros((taskset.n, m))
        mask = np.zeros((taskset.n, m), dtype=bool)
        values[cells] = rec["metric"]
        mask[cells] = True
        matrices.append(PerformanceMatrix(algorithm=algo, values=values, mask=mask))
    return matrices


def parse_curves(path, taskset: TaskSet | None = None):
    """Read a curves CSV.

    Returns (TaskSet, list of PerformanceMatrix).  Task and algorithm order
    follow first appearance in the file unless a task set is supplied, in
    which case all task names must belong to it.
    """
    records, names, max_step = _read_cells(path, taskset)
    out_tasks = taskset if taskset is not None else TaskSet(names=names)
    return out_tasks, _curve_matrices(records, out_tasks, max_step + 1)


# ---------------------------------------------------------------------------
# JSON helpers


def _load_json_object(path, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {what}: {exc.msg}", line=exc.lineno)
        except (ValueError, RecursionError) as exc:
            # undecodable bytes, integers too long to convert, deep nesting
            raise ParseError(f"unreadable {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return doc


def _check_keys(doc: dict, required, what: str) -> None:
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing in {what}", field=key)
    for key in doc:
        if key not in required:
            raise SchemaError(f"unknown in {what}", field=key)


def _string_list(value, field: str) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(s, str) and s for s in value
    ):
        raise SchemaError("must be a list of non-empty strings", field=field)
    return value


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("must be a number", field=field)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("is out of range", field=field) from None


# ---------------------------------------------------------------------------
# curriculum JSON


def write_curriculum(path, taskset: TaskSet, curriculum: Curriculum) -> None:
    if curriculum.n_tasks != taskset.n:
        raise ValidationError(
            f"curriculum is over {curriculum.n_tasks} tasks, task set has {taskset.n}"
        )
    doc = {
        "tasks": list(taskset.names),
        "curriculum": [taskset.names[i] for i in curriculum.entries],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def parse_curriculum(path) -> tuple[TaskSet, Curriculum]:
    doc = _load_json_object(path, "curriculum file")
    _check_keys(doc, ("tasks", "curriculum"), "curriculum file")
    taskset = TaskSet(names=tuple(_string_list(doc["tasks"], "tasks")))
    names = _string_list(doc["curriculum"], "curriculum")
    entries = tuple(taskset.index(name) for name in names)
    return taskset, Curriculum(entries=entries, n_tasks=taskset.n)


def load_dataset(curves_path, curriculum_path):
    """Read a curves CSV together with its curriculum JSON.

    Returns (TaskSet, Curriculum, list of PerformanceMatrix) with all
    shapes cross-validated: tasks must match and every matrix must span
    exactly the curriculum's length (shorter curves are padded with
    unobserved columns).
    """
    taskset, curriculum = parse_curriculum(curriculum_path)
    records, _, max_step = _read_cells(curves_path, taskset)
    if max_step >= curriculum.m:
        # checked before any array is sized from the file's steps
        longest = max(records, key=lambda algo: records[algo]["step"].max())
        raise ValidationError(
            f"curves for {longest!r} span {max_step + 1} steps, "
            f"curriculum has {curriculum.m}"
        )
    return taskset, curriculum, _curve_matrices(records, taskset, curriculum.m)


# ---------------------------------------------------------------------------
# params JSON


def write_params(path, taskset: TaskSet, params: ScenarioParams) -> None:
    if params.n != taskset.n:
        raise ValidationError(
            f"params cover {params.n} tasks, task set has {taskset.n}"
        )
    doc = {
        "tasks": list(taskset.names),
        "transfer_matrix": [
            [float(v) for v in row] for row in params.tasks.transfer
        ],
        "difficulty": [float(v) for v in params.tasks.difficulty],
        "algorithms": [_algorithm_record(a) for a in params.algorithms],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def parse_params(path) -> tuple[TaskSet, ScenarioParams]:
    """Read a params JSON file.

    Difficulties below the representable minimum (e.g. a 0.0 left by a
    tool that rounds to two decimals) are lifted to D_MIN rather than
    rejected.
    """
    doc = _load_json_object(path, "params file")
    _check_keys(
        doc, ("tasks", "transfer_matrix", "difficulty", "algorithms"), "params file"
    )
    taskset = TaskSet(names=tuple(_string_list(doc["tasks"], "tasks")))
    n = taskset.n
    tm = doc["transfer_matrix"]
    if not isinstance(tm, list) or len(tm) != n or not all(
        isinstance(row, list) and len(row) == n for row in tm
    ):
        raise SchemaError(f"must be a {n}x{n} array", field="transfer_matrix")
    transfer = np.array(
        [[_number(v, "transfer_matrix") for v in row] for row in tm]
    )
    diff = doc["difficulty"]
    if not isinstance(diff, list) or len(diff) != n:
        raise SchemaError(f"must have {n} entries", field="difficulty")
    difficulty = np.array([_number(v, "difficulty") for v in diff])
    if np.any(difficulty < 0):
        raise SchemaError("entries must be nonnegative", field="difficulty")
    difficulty = np.maximum(difficulty, D_MIN)
    algos_doc = doc["algorithms"]
    if not isinstance(algos_doc, list) or not algos_doc:
        raise SchemaError("must be a non-empty list", field="algorithms")
    algos = []
    for entry in algos_doc:
        if not isinstance(entry, dict):
            raise SchemaError("each entry must be an object", field="algorithms")
        _check_keys(entry, ("name", *ALGORITHM_FIELDS), "algorithm entry")
        if not isinstance(entry["name"], str) or not entry["name"]:
            raise SchemaError("must be a non-empty string", field="name")
        algos.append(
            AlgorithmProperties(
                name=entry["name"],
                **{f: _number(entry[key], key) for key, f in ALGORITHM_FIELDS.items()},
            )
        )
    params = ScenarioParams(
        tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
        algorithms=tuple(algos),
    )
    return taskset, params


# ---------------------------------------------------------------------------
# raw logs


@dataclass(frozen=True, eq=False)
class RawLog:
    """One algorithm's raw training log.

    ``records`` is a read-only numpy structured array with one 24-byte
    record per logged row: ``step`` (int64 global step), ``task`` (int64
    index into ``tasks``, the log's task name table, so each name is held
    once per log, not once per row) and ``metric`` (finite float64).  It is
    sorted by step, and rows at the same step keep their input order, so a
    later row wins a tie.  ``boundaries`` holds (global_step, trained_task)
    pairs marking where each curriculum phase starts, strictly increasing.

    Without ``tasks``, ``records`` may be any sequence of (global_step,
    task name, metric) triples, and ``tasks`` becomes their names in order
    of first appearance.
    """

    algorithm: str
    records: np.ndarray
    boundaries: tuple[tuple[int, str], ...]
    tasks: tuple[str, ...] | None = None

    def __post_init__(self):
        tasks, given = self.tasks, self.records
        # numpy's cast to int64 would truncate a float or bool step and wrap
        # a uint64 one, so check them first
        if isinstance(given, np.ndarray) and given.dtype.names is not None:
            kind = given.dtype["step"].kind
            if kind not in "iu":
                raise ValidationError("record steps must be integers")
            if kind == "u" and len(given) and given["step"].max() >= _STEP_LIMIT:
                raise ValidationError("record steps must fit in 64 bits")
        else:
            given = list(given)
            if not all(
                isinstance(row[0], (int, np.integer)) and not isinstance(row[0], bool)
                for row in given
            ):
                raise ValidationError("record steps must be integers")
        try:
            if tasks is None:
                table: dict[str, int] = {}  # name -> index, in first-appearance order
                records = np.array(
                    [(s, table.setdefault(t, len(table)), v) for s, t, v in given],
                    dtype=_RECORD,
                )
                tasks = table
            else:
                records = np.asarray(given, dtype=_RECORD)
        except OverflowError:
            raise ValidationError("record steps must fit in 64 bits") from None
        tasks = tuple(tasks)
        codes = records["task"]
        if len(codes) and not (0 <= codes.min() and codes.max() < len(tasks)):
            raise ValidationError("record tasks must index the task name table")
        records = records.view()
        records.setflags(write=False)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        steps = records["step"]
        if np.any(steps[1:] < steps[:-1]):
            raise ValidationError("records must be sorted by global_step")
        if not np.isfinite(records["metric"]).all():
            raise ValidationError("record metrics must be finite")
        bsteps = [b[0] for b in self.boundaries]
        if len(self.boundaries) < 1:
            raise ValidationError("at least one boundary is required")
        if any(b >= a for b, a in zip(bsteps, bsteps[1:])):
            raise ValidationError("boundaries must be strictly increasing")


def parse_boundaries(path) -> tuple[TaskSet, tuple[tuple[int, str], ...]]:
    """Read a boundaries JSON: {"tasks": [...], "boundaries": [[step, task], ...]}."""
    doc = _load_json_object(path, "boundaries file")
    _check_keys(doc, ("tasks", "boundaries"), "boundaries file")
    taskset = TaskSet(names=tuple(_string_list(doc["tasks"], "tasks")))
    bl = doc["boundaries"]
    if not isinstance(bl, list) or not bl:
        raise SchemaError("must be a non-empty list", field="boundaries")
    out = []
    for pair in bl:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or isinstance(pair[0], bool)
            or not isinstance(pair[0], int)
            or not -_STEP_LIMIT <= pair[0] < _STEP_LIMIT
            or not isinstance(pair[1], str)
        ):
            raise SchemaError(
                "each entry must be [global_step, task_name]", field="boundaries"
            )
        taskset.index(pair[1])  # validates the name
        out.append((pair[0], pair[1]))
    steps = [s for s, _ in out]
    if any(b >= a for b, a in zip(steps, steps[1:])):
        raise SchemaError("steps must be strictly increasing", field="boundaries")
    return taskset, tuple(out)


def parse_raw_log(metrics_path, boundaries_path):
    """Read a raw metrics CSV plus its boundaries JSON.

    Returns (TaskSet, Curriculum, list of RawLog), one log per algorithm in
    first-appearance order.  Records are stably sorted by global_step, so
    later rows win ties at the same step.
    """
    taskset, boundaries = parse_boundaries(boundaries_path)
    curriculum = Curriculum(
        entries=tuple(taskset.index(t) for _, t in boundaries),
        n_tasks=taskset.n,
    )
    per_algo, _ = _read_records(
        metrics_path, RAW_HEADER, "raw log", taskset.names, cells=False
    )
    logs = []
    for algo, records in per_algo.items():
        steps = records["step"]
        if (steps[1:] < steps[:-1]).any():
            records = records[np.argsort(steps, kind="stable")]
        logs.append(RawLog(algo, records, boundaries, tasks=taskset.names))
    return taskset, curriculum, logs


def downsample_to_boundaries(
    raw: RawLog, taskset: TaskSet, curriculum: Curriculum
) -> PerformanceMatrix:
    """Collapse a raw log to one column per curriculum phase.

    Entry (j, l) takes task j's metric from the latest record at or before
    the end of phase l; cells with no such record are masked out.
    """
    m = curriculum.m
    if len(raw.boundaries) != m:
        raise ValidationError(
            f"log has {len(raw.boundaries)} boundaries, curriculum has {m} phases"
        )
    for l, (_, trained) in enumerate(raw.boundaries):
        if taskset.index(trained) != curriculum.entries[l]:
            raise ValidationError(
                f"phase {l} trains {trained!r} in the log but "
                f"{taskset.names[curriculum.entries[l]]!r} in the curriculum"
            )
    if len(raw.records) == 0:
        raise ValidationError(f"raw log for {raw.algorithm!r} has no records")
    # each record's task set row; tasks outside the set get -1 and are ignored
    row = {name: j for j, name in enumerate(taskset.names)}
    rows = np.array([row.get(name, -1) for name in raw.tasks], dtype=np.int64)
    task_rows = rows[raw.records["task"]]
    steps, metrics = raw.records["step"], raw.records["metric"]
    # phase l ends right before the next phase starts; the last phase is open
    ends = np.array([b for b, _ in raw.boundaries[1:]], dtype=np.int64) - 1
    values = np.zeros((taskset.n, m))
    mask = np.zeros((taskset.n, m), dtype=bool)
    for j in range(taskset.n):
        mine = task_rows == j  # task j's records, still sorted by step
        task_steps = steps[mine]
        # side="right" picks the last of equal steps, so the later row wins
        idx = np.searchsorted(task_steps, ends, side="right") - 1
        idx = np.append(idx, len(task_steps) - 1)
        mask[j] = idx >= 0
        values[j, mask[j]] = metrics[mine][idx[mask[j]]]
    return PerformanceMatrix(algorithm=raw.algorithm, values=values, mask=mask)


def normalize_minmax(matrix: PerformanceMatrix, task_names=None) -> PerformanceMatrix:
    """Affinely map each task row's observed values onto [0, 1], by that
    row's own min and max.

    Masked entries are untouched and rows with no observations pass
    through.  A row whose observed values are all equal is an error
    (there is no scale to infer); ``task_names``, one per task row,
    improves that message.
    """
    if task_names is not None and len(task_names) != matrix.n_tasks:
        raise ValidationError(
            f"{len(task_names)} task names for {matrix.n_tasks} task rows"
        )
    values = matrix.values.copy()
    mask = matrix.mask
    for j in range(matrix.n_tasks):
        vals = values[j, mask[j]]
        if vals.size == 0:
            continue
        vmin, vmax = float(vals.min()), float(vals.max())
        if vmax == vmin:
            name = task_names[j] if task_names is not None else f"task index {j}"
            raise NormalizationError(
                f"task {name}: constant values, nothing to normalize", task=str(name)
            )
        values[j, mask[j]] = (vals - vmin) / (vmax - vmin)
    return PerformanceMatrix(algorithm=matrix.algorithm, values=values, mask=mask)
