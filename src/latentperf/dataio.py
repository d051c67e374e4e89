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
table, float64 metric).  Both CSV paths append these records, in file
order, to one ``bytearray`` per algorithm; ``RawLog`` takes them as they
are and stably sorts them by step, so rows at one step keep file order.

Both CSV formats take one of three routes.  A file is read in blocks of
whole lines, first by the tokenizer (``_tokenize``), which takes a block
of 4 * _BLOCK_BYTES only if every line is NAME,DIGITS,NAME,VALUE: names
of 1-8 bytes, steps of 1-8 digits and values -?D+(.D+)? of at most 15
digits.  It reads such a block by integer arithmetic on 8-byte words of
its raw bytes, without decoding, splitting or np.loadtxt.  The first
block it declines, and every block after it, take the loadtxt route:
blocks of _BLOCK_BYTES read by np.loadtxt, numpy's C tokenizer and number
parser, as long as that can prove the file clean (see ``_fast_records``).
Any other file is read row by row with ``csv`` (the row path, see
``_row_records``), which is the one source of parse errors and their line
numbers.  The routes give the same records, bit for bit, for every file
they accept: a tokenized value is its digits, an integer below 2**53,
over a power of ten, one correctly rounded division of two exact
doubles, which is the double float() gives for the text.

The tokenizer reads names as 8-byte keys, and the loadtxt route as byte
fields a multiple of 8 bytes wider than the longest name known so far
(the task set's, or those the file has shown).  Both code a block's names
as integers through a sorted table of the names known so far (see
``_Names``): by one comparison of 8-byte words where the block holds one
name, and otherwise by np.searchsorted, keyed by uint64 where the names'
field is 8 bytes wide and by the bytes otherwise.  Only the names the
table lacks are sorted, and they join it in order of first appearance,
unless one holds an _UNSAFE byte, which sends the file to the row path:
the tokenizer's names are checked once per name, not byte by byte.
np.loadtxt cuts an over-long field short without a word, so a block in
which any name fills its field is read again with fields as wide as its
longest line.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
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
    _is_finite,
    _is_int,
    _is_real,
    _same_tasks,
)

CURVES_HEADER = ("algorithm", "step", "task", "performance")
RAW_HEADER = ("algorithm", "global_step", "task", "metric")


def _is_step(value) -> bool:
    """The step rule: an integer by ``_is_int`` that fits in an int64."""
    return _is_int(value) and -(2**63) <= value < 2**63


# One raw-log row: step, index into the log's task name table, metric.
_RECORD = np.dtype([("step", np.int64), ("task", np.int64), ("metric", np.float64)])
_pack_record = struct.Struct("=qqd").pack


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
        _same_tasks(f"matrix for {mat.algorithm!r}", mat.n_tasks, "task set", taskset.n)
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


def _record_arrays(algos, stores):
    """{algorithm: _RECORD array viewing its store, a bytearray of records}."""
    return {algo: np.frombuffer(buf, _RECORD) for algo, buf in zip(algos, stores)}


def _row_records(path, header, what: str, tasks, cells: bool):
    """The row path: a four-column CSV headed by ``header`` read row by row
    with ``csv``, as (records, task names); see ``_read_records``.  Steps
    are 64-bit integers and values finite floats.  Messages name columns
    after ``header`` and the file after ``what``.  Every parse error,
    message and line number comes from here."""
    step_name, value_name = header[1], header[3]
    known = {name: j for j, name in enumerate(tasks or ())}
    stores: dict[str, bytearray] = {}
    seen = set()  # (algorithm, step, task code) of a curves file's cells
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
                if not _is_step(step):
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
                stores.setdefault(algo, bytearray()).extend(_pack_record(step, j, value))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if not stores:
        raise ParseError(f"{what} has no data rows", line=1)
    return _record_arrays(stores, stores.values()), tuple(known)


# The loadtxt route reads this many bytes of whole lines at a time (the
# tokenizer four times as many), and leaves a block whose name fields
# would take more than _FIELD_BYTES (one long name among many short
# lines) to the row path.
_BLOCK_BYTES = 1 << 16
_FIELD_BYTES = 1 << 24

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


def _unsafe(data: bytes) -> bool:
    """Whether ``data`` holds an _UNSAFE byte."""
    return len(data.translate(None, _UNSAFE)) != len(data)


def _parse_block(block, algos, tasks, limit):
    """The loadtxt route for one block: its (algorithm names, steps, task
    names, values) by np.loadtxt (no quoting, no comments; blank lines
    skipped), or None if every byte ends a line.  Names are byte fields a
    multiple of 8 bytes wider than the longest in ``algos`` and ``tasks``,
    read again as wide as the longest line if one fills its field (loadtxt
    cuts longer ones short silently).  Raises _Defer for an _UNSAFE byte
    or a line longer than ``limit``."""
    if _unsafe(block):
        raise _Defer
    lines = block.decode("ascii").split("\n")
    if len(lines) > len(block):  # every byte ends a line
        return None
    if len(block) > limit and max(map(len, lines)) > limit:
        raise _Defer
    a, t = (max(map(len, known), default=0) // 8 * 8 + 8 for known in (algos, tasks))
    while len(lines) * (a + t) <= _FIELD_BYTES:
        dtype = [("algo", f"S{a}"), ("step", np.int64), ("task", f"S{t}"),
                 ("value", np.float64)]
        rows = np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
        )
        # names hold no NUL, so one that fills its field ends in another byte
        if not rows.view(np.uint8).reshape(len(rows), -1)[:, [a - 1, a + 8 + t - 1]].any():
            return rows["algo"], rows["step"], rows["task"], rows["value"]
        a = t = max(map(len, lines))
    raise _Defer


# The tokenizer reads 8 bytes at a time as one little-endian uint64 word,
# the first byte lowest.  A constant that is a multiple of _ONES holds one
# byte eight times, and _HIGH is each byte's high bit.  _LOW[k] keeps a
# word's first k bytes (all 8 for k = 9) and _KEEP[k] its last k.
_ONES = 0x0101010101010101
_HIGH = 0x80 * _ONES
_ZEROS = 0x30 * _ONES  # b"00000000"
_LOW = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(10)], np.uint64)
_KEEP = ~_LOW[8::-1]
_TENS = np.array([float(10**k) for k in range(16)])


def _first(words, byte: int):
    """Index of each word's first ``byte``, 8 where it has none."""
    x = words ^ (byte * _ONES)
    # the lowest high bit of flags marks x's lowest zero byte exactly (a
    # borrow can only mark bytes above it); count the bits below it
    flags = (x - _ONES) & ~x & _HIGH
    return np.bitwise_count((flags - 1) & ~flags) >> 3


def _field(words, buf, starts):
    """The comma-ended fields at ``starts`` as (length, the word at the
    start with its bytes past the field zeroed, whether the field is 1-8
    bytes then a comma)."""
    w = words[starts]
    n = _first(w, 0x2C)
    return n, w & _LOW[n], (n > 0) & (buf[starts + n] == 0x2C)


def _is_digits(x):
    """Whether each byte of each word of ``x`` is at most 9."""
    # 0x76 lifts bytes from 10 into the high bit; a carry into the next
    # byte needs one past 0x89, whose own high bit is set
    return ((x + 0x76 * _ONES) | x) & _HIGH == 0


def _eight(x):
    """The digits in ``x``'s bytes, first digit lowest, as one integer:
    pairs, then quads, then all eight (Lemire 2021)."""
    x = (x * (10 * 2**8 + 1)) >> 8
    x = ((x & 0x00FF00FF00FF00FF) * (100 * 2**16 + 1)) >> 16
    return ((x & 0x0000FFFF0000FFFF) * (10000 * 2**32 + 1)) >> 32


def _decimal(words, ends, size):
    """The numbers of ``size`` bytes (1-16) that end at ``ends``, read as
    D+(.D+)?, as (their digits as one integer, digits after the dot,
    whether the text has that shape with 15 digits at most)."""
    # each byte holds its digit, or 0x1E for a dot, and 0 before the number
    lo = (words[ends - 8] ^ _ZEROS) & _KEEP[np.minimum(size, 8)]
    e = _first(lo, 0x1E)
    dot = e + 8  # the dot's place in the 16 bytes that end the number, 16 if none
    # the dot taken out, the bytes before it move up by one
    lo = np.where(e < 8, ((lo & _LOW[e]) << 8) | (lo & ~_LOW[e + 1]), lo)
    long = np.flatnonzero(size > 8)
    if len(long):
        hi = (words[ends[long] - 16] ^ _ZEROS) & _KEEP[size[long] - 8]
        h = _first(hi, 0x1E)
        in_lo = e[long] < 8
        lo[long] |= np.where(in_lo, hi >> 56, 0)
        hi = np.where(
            in_lo, hi << 8,
            np.where(h < 8, ((hi & _LOW[h]) << 8) | (hi & ~_LOW[h + 1]), hi),
        )
        dot[long] = np.where(h < 8, h, dot[long])
    digits = _is_digits(lo)
    value = _eight(lo)
    if len(long):
        digits[long] &= _is_digits(hi)
        value[long] += _eight(hi) * 10**8
    # the dot neither first nor last, and 15 digits at most
    ok = digits & (dot != 15) & (dot + size != 16) & (size - (dot < 16) <= 15)
    return value, np.where(dot < 16, 15 - dot, 0), ok


def _tokenize(block):
    """The tokenizer route for one block: its (algorithm names, steps, task
    names, values) as _parse_block gives them, names as S8 keys, or None
    unless every line is NAME,DIGITS,NAME,VALUE with names of 1-8 bytes,
    steps of 1-8 digits and values -?D+(.D+)? of at most 15 digits, and the
    block holds no NUL.  A value is its digits as an integer, below 2**53,
    over a power of ten: one correctly rounded division of two exact
    doubles, equal to float() of the text (Clinger's fast path).  Names are
    checked for _UNSAFE bytes once each, by _Names."""
    if b"\0" in block:  # a NUL would read as the padding of a shorter name
        return None
    n = len(block)
    # room for the words read below: 8 bytes before the block, 64 after,
    # the first a newline, which a last line that lacks one takes
    buf = np.zeros(n + 80, np.uint8)
    buf[8 : n + 8] = np.frombuffer(block, np.uint8)
    buf[n + 8] = 0x0A
    n += block[-1:] != b"\n"
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))  # words[i]: buf[i:i + 8]
    ends = np.flatnonzero(buf[8 : n + 8] == 0x0A) + 8
    starts = np.concatenate(([8], ends[:-1] + 1))
    algo_len, algo, ok = _field(words, buf, starts)
    at = starts + algo_len + 1
    step_len, step, step_ok = _field(words, buf, at)
    task_len, task, task_ok = _field(words, buf, at + step_len + 1)
    at += step_len + task_len + 2
    neg = buf[at] == 0x2D
    at += neg
    size = ends - at
    # a field that ran past its line end leaves the value no room
    if not (ok & step_ok & task_ok & (size > 0) & (size <= 16)).all():
        return None
    # the step's digits moved to the word's end, after leading zeros
    step = (step ^ _ZEROS) << (8 * (8 - step_len))
    mantissa, frac, ok = _decimal(words, ends, size)
    if not (ok & _is_digits(step)).all():
        return None
    # (numpy converts int64 to float faster than uint64)
    values = mantissa.view(np.int64).astype(np.float64) / _TENS[frac]
    np.negative(values, out=values, where=neg)
    as_names = lambda keys: keys.astype("<u8", copy=False).view("S8")
    return as_names(algo), _eight(step).view(np.int64), as_names(task), values


class _Names:
    """One column's name table in one file: ``codes`` maps each known name
    to its code, ``given`` names first and then, with ``grow``, new names
    in order of first appearance; without ``grow`` a name outside the table
    raises _Defer, and so does an empty name or one that holds an _UNSAFE
    byte.  The same names sit sorted by key in ``_sorted``, rebuilt only
    when a name joins or the key type changes, so a block's names are coded
    by np.searchsorted."""

    def __init__(self, given, grow: bool):
        self.codes = {name: j for j, name in enumerate(given)}
        self.grow = grow
        self._sorted = None  # (key dtype, sorted keys, their codes)

    def _table(self, dtype: np.dtype):
        """The known names as (their keys of ``dtype``, sorted; their codes)."""
        if self._sorted is None or self._sorted[0] != dtype:
            width = 8 if dtype.kind == "u" else dtype.itemsize
            # a name longer than a key cannot be in the column, and would be
            # cut short; nor can one holding an _UNSAFE byte (the column
            # holds none that _add lets in), and a trailing NUL would give
            # it the key of the name without it
            known = [(name.encode(), code) for name, code in self.codes.items()]
            fits = [(key, code) for key, code in known if len(key) <= width and not _unsafe(key)]
            names = np.array([key for key, _ in fits], f"S{width}")
            codes = np.array([code for _, code in fits], np.int64)
            keys = names.view(np.uint64) if dtype.kind == "u" else names
            order = np.argsort(keys)
            self._sorted = dtype, keys[order], codes[order]
        return self._sorted[1:]

    def __call__(self, column: np.ndarray):
        """Codes for a block's byte-string column, as (each row's code, the
        distinct codes in ascending order).  Names in fields of at most 8
        bytes are keyed by their uint64 view, and others by their bytes."""
        width = -(-column.itemsize // 8) * 8
        words = column.astype(f"S{width}").view(np.uint64).reshape(len(column), -1)
        if (words[1:] == words[:-1]).all():
            code = self._add(column[:1], [0])
            return np.full(len(column), code, np.int64), [code]
        keys = words[:, 0] if words.shape[1] == 1 else column
        table, codes = self._table(keys.dtype)
        at = np.searchsorted(table, keys)
        missed = (
            np.flatnonzero(table.take(at, mode="clip") != keys)
            if len(table) else np.arange(len(keys))
        )
        if len(missed):
            # only the names the table lacks are sorted, to find each one's
            # first appearance
            _, first = np.unique(keys[missed], return_index=True)
            self._add(column, missed[np.sort(first)])
            table, codes = self._table(keys.dtype)
            at = np.searchsorted(table, keys)
        rows = codes[at]
        return rows, np.flatnonzero(np.bincount(rows))

    def _add(self, column: np.ndarray, rows) -> int:
        """Code each of ``column[rows]``, new names joining the table in
        the order given; returns the last code."""
        for i in rows:
            if _unsafe(column[i]):
                raise _Defer
            name = column[i].decode("ascii")
            code = self.codes.get(name)
            if code is None:
                if not (self.grow and name):
                    raise _Defer
                code = self.codes[name] = len(self.codes)
                self._sorted = None
        return code


def _fast_records(path, header, tasks, cells: bool):
    """The fast path: what ``_row_records`` returns, read in blocks of lines
    by the tokenizer until it declines one, and from that block on by
    np.loadtxt (numpy's C tokenizer and number parser).  It raises
    ValueError, and the row path reads the file, unless the file, with
    \r\n read as \n, holds no _UNSAFE byte, opens with ``header``, has no
    line over csv's field size limit and only rows that the two routes
    parse into int64 steps, finite float64 values, non-empty algorithm
    names and known tasks; a curves file (``cells``) also needs no
    negative step and no duplicate cell."""
    algos, names = _Names((), grow=True), _Names(tasks or (), grow=tasks is None)
    stores: dict[int, bytearray] = {}  # per algorithm code
    limit = csv.field_size_limit()
    want = ",".join(header).encode()
    with open(path, "rb") as fh:
        if fh.readline() not in (want + b"\n", want + b"\r\n"):
            raise _Defer
        size = 4 * _BLOCK_BYTES  # the tokenizer's blocks, until it declines one
        while True:
            at = fh.tell()
            block = fh.read(size) + fh.readline()
            if not block:
                break
            # the block ends at a line end, so it splits no \r\n
            block = block.replace(b"\r\n", b"\n") if b"\r" in block else block
            if size > _BLOCK_BYTES:
                fields = _tokenize(block)
                if fields is None:
                    # this block and the rest of the file take the loadtxt route
                    size = _BLOCK_BYTES
                    fh.seek(at)
                    continue
            else:
                fields = _parse_block(block, algos.codes, names.codes, limit)
                if fields is None:
                    continue
            algo_names, steps, task_names, values = fields
            if not np.isfinite(values).all() or cells and steps.min() < 0:
                raise _Defer
            algo_codes, present = algos(algo_names)
            rows = np.empty(len(steps), _RECORD)
            rows["step"], rows["metric"] = steps, values
            rows["task"] = names(task_names)[0]
            for a in present:
                # codes grow in order of first appearance, and so do stores
                mine = rows[algo_codes == a] if len(present) > 1 else rows
                stores.setdefault(a, bytearray()).extend(mine)
    if not stores:
        raise _Defer
    records = _record_arrays(algos.codes, stores.values())
    for rec in records.values() if cells else ():
        by_cell = rec[np.lexsort((rec["task"], rec["step"]))]
        step, task = by_cell["step"], by_cell["task"]
        if ((step[1:] == step[:-1]) & (task[1:] == task[:-1])).any():
            raise _Defer
    return records, tuple(names.codes)


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


def _curves(path, taskset: TaskSet | None, m: int | None = None):
    """A curves CSV as (TaskSet, list of PerformanceMatrix): tasks are
    ``taskset``'s if given and otherwise the file's (see ``_read_records``),
    and each matrix spans ``m`` steps if given and otherwise up to the
    file's largest step.  Curves longer than ``m`` are an error, raised
    before any matrix is sized from the file's steps."""
    records, names = _read_records(
        path, CURVES_HEADER, "curves file",
        None if taskset is None else taskset.names, cells=True,
    )
    taskset = taskset if taskset is not None else TaskSet(names=names)
    spans = {algo: int(rec["step"].max()) + 1 for algo, rec in records.items()}
    longest = max(spans, key=spans.get)
    if m is None:
        m = spans[longest]
    elif spans[longest] > m:
        raise ValidationError(
            f"curves for {longest!r} span {spans[longest]} steps, curriculum has {m}"
        )
    matrices = []
    for algo, rec in records.items():
        # task codes index the task set (_read_records checked them against it)
        cells = rec["task"], rec["step"]
        try:
            values = np.zeros((taskset.n, m))
        except ValueError:  # numpy's "array is too big"
            raise ParseError(f"step {m - 1} is too large for a matrix") from None
        mask = np.zeros((taskset.n, m), dtype=bool)
        values[cells] = rec["metric"]
        mask[cells] = True
        matrices.append(PerformanceMatrix(algorithm=algo, values=values, mask=mask))
    return taskset, matrices


def parse_curves(path, taskset: TaskSet | None = None):
    """Read a curves CSV.

    Returns (TaskSet, list of PerformanceMatrix).  Task and algorithm order
    follow first appearance in the file unless a task set is supplied, in
    which case all task names must belong to it.
    """
    return _curves(path, taskset)


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
    if not _is_real(value):
        raise SchemaError("must be a number", field=field)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("is out of range", field=field) from None


# ---------------------------------------------------------------------------
# curriculum JSON


def write_curriculum(path, taskset: TaskSet, curriculum: Curriculum) -> None:
    _same_tasks("curriculum", curriculum.n_tasks, "task set", taskset.n)
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
    return taskset, curriculum, _curves(curves_path, taskset, curriculum.m)[1]


# ---------------------------------------------------------------------------
# params JSON


def write_params(path, taskset: TaskSet, params: ScenarioParams) -> None:
    _same_tasks("parameter set", params.n, "task set", taskset.n)
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


_TASK_CODES = "record tasks must be integer indices into tasks, the task name table"


@dataclass(frozen=True, eq=False)
class RawLog:
    """One algorithm's raw training log, the one owner of its rules.

    ``records`` holds one (global_step, task, metric) row per logged row,
    where ``task`` indexes ``tasks``, the log's task name table (a
    TaskSet's names), so each name is held once per log, not once per row.
    A 1-D array of the 24-byte records it is stored as is taken as it is;
    other input must be (step, task, metric) tuples or lists, with steps
    by ``_is_step``, tasks by ``_is_int`` and finite real metrics.  It is
    stored read-only and stably sorted by step, so rows at the same step
    keep their input order and a later row wins a tie.  ``boundaries``
    holds (global_step, trained_task) pairs marking where each curriculum
    phase starts, checked and stored as tuples by ``_boundaries``.
    """

    algorithm: str
    records: np.ndarray
    boundaries: tuple[tuple[int, str], ...]
    tasks: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ValidationError("algorithm name must be a non-empty string")
        tasks = TaskSet(self.tasks).names
        records = self.records
        if isinstance(records, np.ndarray) and records.dtype == _RECORD and records.ndim == 1:
            codes = records["task"]
            if len(codes) and not (0 <= codes.min() and codes.max() < len(tasks)):
                raise ValidationError(_TASK_CODES)
            if not np.isfinite(records["metric"]).all():
                raise ValidationError("record metrics must be finite numbers")
        else:
            # numpy's casts would truncate a float or bool step or task, wrap
            # a uint64 one and parse a string metric, so each row is checked
            rows = records.tolist() if isinstance(records, np.ndarray) else list(records)
            if not all(isinstance(row, (tuple, list)) and len(row) == 3 for row in rows):
                raise ValidationError("records must be (global_step, task, metric) rows")
            if not all(_is_step(row[0]) for row in rows):
                raise ValidationError("record steps must be integers that fit in 64 bits")
            if not all(_is_int(row[1]) and 0 <= row[1] < len(tasks) for row in rows):
                raise ValidationError(_TASK_CODES)
            if not all(_is_finite(row[2]) for row in rows):
                raise ValidationError("record metrics must be finite numbers")
            records = np.array(list(map(tuple, rows)), _RECORD)
        steps = records["step"]
        if (steps[1:] < steps[:-1]).any():
            records = records[np.argsort(steps, kind="stable")]
        records = records.view()
        records.setflags(write=False)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "boundaries", _boundaries(self.boundaries, tasks))


def _boundaries(pairs, tasks) -> tuple[tuple[int, str], ...]:
    """The one boundary rule: ``pairs`` is a non-empty tuple or list of (step,
    task) tuples or lists, steps by ``_is_step`` and strictly increasing, each
    task a name in ``tasks``.  Returns them as tuples; raises ValidationError."""
    if not isinstance(pairs, (tuple, list)) or not pairs:
        raise ValidationError("boundaries must be a non-empty list of pairs")
    if not all(isinstance(pair, (tuple, list)) and len(pair) == 2 for pair in pairs):
        raise ValidationError("each boundary must be a (global_step, task) pair")
    steps = [step for step, _ in pairs]
    if not all(map(_is_step, steps)):
        raise ValidationError("boundary steps must be integers that fit in 64 bits")
    if any(b >= a for b, a in zip(steps, steps[1:])):
        raise ValidationError("boundaries must be strictly increasing")
    unknown = [task for _, task in pairs if not (isinstance(task, str) and task in tasks)]
    if unknown:
        raise ValidationError(f"unknown task {unknown[0]!r}: not in the task name table")
    return tuple(map(tuple, pairs))


def parse_boundaries(path) -> tuple[TaskSet, tuple[tuple[int, str], ...]]:
    """Read a boundaries JSON: {"tasks": [...], "boundaries": [[step, task], ...]}.

    The pairs follow ``_boundaries``; a fault raises SchemaError on the
    ``boundaries`` field."""
    doc = _load_json_object(path, "boundaries file")
    _check_keys(doc, ("tasks", "boundaries"), "boundaries file")
    taskset = TaskSet(names=tuple(_string_list(doc["tasks"], "tasks")))
    try:
        return taskset, _boundaries(doc["boundaries"], taskset.names)
    except ValidationError as exc:
        raise SchemaError(str(exc), field="boundaries") from None


def parse_raw_log(metrics_path, boundaries_path):
    """Read a raw metrics CSV plus its boundaries JSON.

    Returns (TaskSet, Curriculum, list of RawLog), one log per algorithm in
    first-appearance order.  RawLog sorts each log's records by
    global_step, so later rows win ties at the same step.
    """
    taskset, boundaries = parse_boundaries(boundaries_path)
    curriculum = Curriculum(
        entries=tuple(taskset.index(t) for _, t in boundaries),
        n_tasks=taskset.n,
    )
    per_algo, _ = _read_records(
        metrics_path, RAW_HEADER, "raw log", taskset.names, cells=False
    )
    logs = [RawLog(algo, rec, boundaries, taskset.names) for algo, rec in per_algo.items()]
    return taskset, curriculum, logs


def downsample_to_boundaries(raw: RawLog) -> PerformanceMatrix:
    """Collapse a raw log to one column per curriculum phase.

    Rows follow ``raw.tasks`` and columns ``raw.boundaries``.  Entry (j, l)
    takes task j's metric from the latest record at or before the end of
    phase l; cells with no such record are masked out.
    """
    if len(raw.records) == 0:
        raise ValidationError(f"raw log for {raw.algorithm!r} has no records")
    codes, steps, metrics = (raw.records[f] for f in ("task", "step", "metric"))
    # phase l ends right before the next phase starts; the last phase is open
    ends = np.array([b for b, _ in raw.boundaries[1:]], dtype=np.int64) - 1
    m = len(raw.boundaries)
    # each record's phase is the first whose end is at or after its step:
    # cut the step-sorted records after each phase end
    cuts = np.searchsorted(steps, ends, side="right")
    phases = np.repeat(np.arange(m), np.diff(cuts, prepend=0, append=len(steps)))
    # records are sorted by step, so of two rows at one step the later has
    # the larger index: the latest record per (task, phase), carried
    # forward into the phases that log nothing for that task.  Cells are
    # indexed flat, as ufunc.at is about 10x faster with one index array.
    latest = np.full(len(raw.tasks) * m, -1)
    np.maximum.at(latest, codes * m + phases, np.arange(len(steps)))
    latest = latest.reshape(len(raw.tasks), m)
    np.maximum.accumulate(latest, axis=1, out=latest)
    mask = latest >= 0
    values = np.where(mask, metrics[latest], 0.0)
    return PerformanceMatrix(algorithm=raw.algorithm, values=values, mask=mask)


def normalize_minmax(matrix: PerformanceMatrix, task_names=None) -> PerformanceMatrix:
    """Affinely map each task row's observed values onto [0, 1], by that
    row's own min and max.

    Masked entries are untouched and rows with no observations pass
    through.  A row whose observed values are all equal, or span more
    than a float holds, is an error (no scale to infer); ``task_names``,
    one per task row, improves that message.
    """
    if task_names is not None:
        what = f"matrix for {matrix.algorithm!r}"
        _same_tasks(what, matrix.n_tasks, "list of task names", len(task_names))
    mask = matrix.mask
    vmin = np.min(matrix.values, axis=1, where=mask, initial=np.inf)
    vmax = np.max(matrix.values, axis=1, where=mask, initial=-np.inf)
    with np.errstate(over="ignore"):
        span = vmax - vmin
    # an empty row's span is -inf, so it passes; a finite span keeps x - vmin finite
    degenerate = np.flatnonzero((span == 0) | (span == np.inf))
    if degenerate.size:
        j = int(degenerate[0])
        name = task_names[j] if task_names is not None else f"task index {j}"
        why = "constant values" if span[j] == 0 else "value range overflows a float"
        raise NormalizationError(f"task {name}: {why}, nothing to normalize", task=str(name))
    values = matrix.values.copy()
    np.subtract(values, vmin[:, None], out=values, where=mask)
    np.divide(values, span[:, None], out=values, where=mask)
    return PerformanceMatrix(algorithm=matrix.algorithm, values=values, mask=mask)
