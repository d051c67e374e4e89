"""Slow reference implementations used to check the vectorized code.

Everything in here is deliberately written with plain Python loops and
the math module so that a bug in the numpy code cannot hide in a shared
helper.  Keep these dumb.

The CSV readers at the end are a frozen copy of dataio's row-by-row
readers from before they gained a fast path: the row path must keep
accepting, rejecting and reporting exactly what they do.
"""

import csv
import math

from latentperf.errors import ParseError, ValidationError


def scaled_sigmoid_ref(x):
    # 2 / (1 + e^-x) - 1, with the usual split to avoid overflow
    if x >= 0:
        return 2.0 / (1.0 + math.exp(-x)) - 1.0
    e = math.exp(x)
    return (e - 1.0) / (e + 1.0)


def forward_ref(transfer, difficulty, gamma, h, lam, entries, n):
    """Predicted performance curves for one algorithm, as nested lists.

    transfer is an n*n nested list indexed [trained][affected].  Returns
    curves[task][step] over len(entries) steps.
    """
    m = len(entries)
    exp = [0.0] * n
    curves = [[0.0] * m for _ in range(n)]
    for l in range(m):
        i = entries[l]
        perf_i = scaled_sigmoid_ref(exp[i] / difficulty[i])
        new = [0.0] * n
        for j in range(n):
            new[j] = exp[j] * h + transfer[i][j] * (gamma + perf_i * lam)
        exp = new
        for j in range(n):
            curves[j][l] = scaled_sigmoid_ref(exp[j] / difficulty[j])
    return curves


def loss_ref(transfer, difficulty, algos, entries, observed, masks, n):
    """Sum of squared residuals over all algorithms, tasks and steps.

    algos is a list of (gamma, h, lam) triples; observed[a][task][step]
    and masks[a][task][step] follow forward_ref's layout.
    """
    total = 0.0
    for a, (gamma, h, lam) in enumerate(algos):
        pred = forward_ref(transfer, difficulty, gamma, h, lam, entries, n)
        for j in range(n):
            for l in range(len(entries)):
                if masks[a][j][l]:
                    r = pred[j][l] - observed[a][j][l]
                    total += r * r
    return total


def gradient_tangent_ref(transfer, difficulty, algos, entries, observed, masks, n):
    """Exact gradient of loss_ref by forward mode, as a flat list.

    Every value of forward_ref's recurrence carries its derivative along
    each packed coordinate: transfer row by row, difficulty, then gamma, h
    and lambda per algorithm.
    """
    p = len(algos)
    size = n * n + n + 3 * p

    def unit(k):
        t = [0.0] * size
        t[k] = 1.0
        return t

    def combo(*terms):
        # sum of coefficient * tangent over (coefficient, tangent) pairs
        return [sum(c * t[k] for c, t in terms) for k in range(size)]

    def perf(e, de, j):
        # performance on task j and its tangent, from experience e and de
        d = difficulty[j]
        s = scaled_sigmoid_ref(e / d)
        slope = 0.5 * (1.0 - s * s)
        return s, combo((slope / d, de), (-slope * e / (d * d), unit(n * n + j)))

    grad = [0.0] * size
    for a, (gamma, h, lam) in enumerate(algos):
        k_gamma = n * n + n + a
        k_h = k_gamma + p
        k_lam = k_h + p
        exp = [0.0] * n
        dexp = [[0.0] * size for _ in range(n)]
        for l in range(len(entries)):
            i = entries[l]
            perf_i, dperf_i = perf(exp[i], dexp[i], i)
            gain = gamma + perf_i * lam
            dgain = combo((1.0, unit(k_gamma)), (lam, dperf_i), (perf_i, unit(k_lam)))
            dexp = [
                combo(
                    (h, dexp[j]),
                    (exp[j], unit(k_h)),
                    (transfer[i][j], dgain),
                    (gain, unit(i * n + j)),
                )
                for j in range(n)
            ]
            exp = [exp[j] * h + transfer[i][j] * gain for j in range(n)]
            for j in range(n):
                if masks[a][j][l]:
                    s, ds = perf(exp[j], dexp[j], j)
                    r = s - observed[a][j][l]
                    grad = combo((1.0, grad), (2.0 * r, ds))
    return grad


def fd_gradient(f, theta, eps=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    grad = [0.0] * len(theta)
    for k in range(len(theta)):
        up = list(theta)
        dn = list(theta)
        up[k] += eps
        dn[k] -= eps
        grad[k] = (f(up) - f(dn)) / (2.0 * eps)
    return grad


def relative_errors(approx, exact, floor=1e-3):
    return [
        abs(a - e) / max(abs(a), abs(e), floor)
        for a, e in zip(approx, exact)
    ]


def downsample_ref(records, boundaries, task_names):
    """Phase-end values of one raw log, as values[task][phase] and
    mask[task][phase] nested lists.

    records are (step, task, value) sorted by step, equal steps in file
    order; boundaries are (start step, trained task) per phase.  Phase l
    ends one step before phase l+1 starts and the last phase never ends.
    A later record at or before the end overwrites an earlier one.
    """
    m = len(boundaries)
    values = [[0.0] * m for _ in task_names]
    mask = [[False] * m for _ in task_names]
    for j, name in enumerate(task_names):
        for l in range(m):
            for step, task, value in records:
                if task != name:
                    continue
                if l == m - 1 or step <= boundaries[l + 1][0] - 1:
                    values[j][l] = value
                    mask[j][l] = True
    return values, mask


# ---------------------------------------------------------------------------
# frozen CSV readers

_STEP_LIMIT = 2**63


def read_rows_ref(path, header, what):
    """(line number, algorithm, step, task, value) per data row."""
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
                lineno = reader.line_num
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


def read_cells_ref(path, task_names=None):
    """A curves CSV's {algorithm: {(step, task): value}}, its task names
    (both in first-appearance order) and its largest step."""
    header = ("algorithm", "step", "task", "performance")
    cells = {}
    task_order = {}
    known = set(task_names) if task_names is not None else None
    max_step = -1
    for lineno, algo, step, task, perf in read_rows_ref(path, header, "curves file"):
        if step < 0:
            raise ParseError(f"step {step} is negative", line=lineno)
        if known is not None and task not in known:
            raise ParseError(f"unknown task {task!r}", line=lineno)
        algo_cells = cells.setdefault(algo, {})
        task_order[task] = None
        if (step, task) in algo_cells:
            raise ParseError(
                f"duplicate cell for ({algo}, step {step}, {task})", line=lineno
            )
        algo_cells[step, task] = perf
        max_step = max(max_step, step)
    return cells, tuple(task_order), max_step


def check_curve_span_ref(cells, max_step, m):
    """load_dataset's check that no curve outruns the curriculum."""
    if max_step >= m:
        longest = max(cells, key=lambda algo: max(step for step, _ in cells[algo]))
        raise ValidationError(
            f"curves for {longest!r} span {max_step + 1} steps, "
            f"curriculum has {m}"
        )


def curve_cells_ref(cells, task_names):
    """Per algorithm, {(task row, step): value}: what its matrix holds."""
    rows = {name: j for j, name in enumerate(task_names)}
    return [
        (algo, {(rows[task], step): v for (step, task), v in algo_cells.items()})
        for algo, algo_cells in cells.items()
    ]


def read_raw_log_ref(path, task_names):
    """A raw log's rows per algorithm, in first-appearance order, as
    (step, task index, metric) stably sorted by step."""
    header = ("algorithm", "global_step", "task", "metric")
    known = {name: j for j, name in enumerate(task_names)}
    rows = {}
    for lineno, algo, step, task, metric in read_rows_ref(path, header, "raw log"):
        j = known.get(task)
        if j is None:
            raise ParseError(f"unknown task {task!r}", line=lineno)
        rows.setdefault(algo, []).append((step, j, metric))
    return [(algo, sorted(r, key=lambda row: row[0])) for algo, r in rows.items()]
