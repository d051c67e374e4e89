"""Tables and plots for fitted parameters.

Tables render two ways: ``markdown()`` for humans (values rounded to two
decimals) and ``to_json()`` for machines (full precision).  Plots are
SVG strings built by hand so equal inputs give byte-identical output.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import ValidationError
from .model import (
    ALGORITHM_FIELDS,
    AlgorithmProperties,
    Curriculum,
    ScenarioParams,
    TaskSet,
    _algorithm_record,
    _same_tasks,
)

COMPARISON_PARAMETERS = tuple(ALGORITHM_FIELDS)


@dataclass(frozen=True)
class Table:
    """A rendered table plus its full-precision machine form."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    machine: dict

    def markdown(self) -> str:
        def line(cells):
            # a "|" inside a cell would start a new one
            return "| " + " | ".join(c.replace("|", r"\|") for c in cells) + " |"

        lines = [f"### {self.title}", "", line(self.headers)]
        lines.append("|" + "|".join(" --- " for _ in self.headers) + "|")
        lines.extend(line(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.machine, indent=2) + "\n"


def _fmt2(v: float) -> str:
    s = f"{float(v):.2f}"
    return "0.00" if s == "-0.00" else s


def _fmt_rank(r: float) -> str:
    return str(int(r)) if r == int(r) else f"{r:.1f}"


def property_table(algorithms: Iterable[AlgorithmProperties]) -> Table:
    """One row per algorithm with its gamma, h, and lambda estimates."""
    records = [_algorithm_record(a) for a in algorithms]
    if not records:
        raise ValidationError("no algorithms to tabulate")
    names = [r["name"] for r in records]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate algorithm names in property table")
    return Table(
        title="Estimated algorithm properties",
        headers=("algorithm", *ALGORITHM_FIELDS),
        rows=tuple(
            (r["name"], *(_fmt2(r[key]) for key in ALGORITHM_FIELDS)) for r in records
        ),
        machine={"table": "algorithm_properties", "algorithms": records},
    )


def transfer_table(params: ScenarioParams, taskset: TaskSet) -> Table:
    """Task-by-task transfer matrix; the self-transfer diagonal is bolded."""
    _same_tasks("parameter set", params.n, "task set", taskset.n)
    a = params.tasks.transfer
    rows = []
    for i, name in enumerate(taskset.names):
        cells = [name]
        for j in range(taskset.n):
            text = _fmt2(a[i, j])
            cells.append(f"**{text}**" if i == j else text)
        rows.append(tuple(cells))
    machine = {
        "table": "task_transfer",
        "tasks": list(taskset.names),
        "transfer_matrix": [[float(v) for v in row] for row in a],
    }
    return Table(
        title="Estimated task transfer",
        headers=("trained task", *taskset.names),
        rows=tuple(rows),
        machine=machine,
    )


def difficulty_table(params: ScenarioParams, taskset: TaskSet) -> Table:
    _same_tasks("parameter set", params.n, "task set", taskset.n)
    d = params.tasks.difficulty
    machine = {
        "table": "task_difficulty",
        "tasks": list(taskset.names),
        "difficulty": [float(v) for v in d],
    }
    return Table(
        title="Estimated task difficulty",
        headers=("", *taskset.names),
        rows=(("difficulty", *(_fmt2(v) for v in d)),),
        machine=machine,
    )


def _average_ranks(values) -> list[float]:
    """Rank 1 goes to the largest value; ties share the average position,
    ``1 + #greater + (#equal - 1) / 2``."""
    return [
        1 + sum(w > v for w in values) + (sum(w == v for w in values) - 1) / 2
        for v in values
    ]


def _spearman(x_ranks, y_ranks) -> float:
    x = np.asarray(x_ranks)
    y = np.asarray(y_ranks)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = float(np.sqrt(np.sum(xd * xd) * np.sum(yd * yd)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xd * yd) / denom)


def comparison_table(
    estimates: Mapping[str, Iterable[AlgorithmProperties]], parameter: str
) -> Table:
    """Compare one algorithm property across datasets.

    ``estimates`` maps a dataset label to that dataset's algorithms.
    Rows are algorithms (first-appearance order), columns datasets; each
    cell shows the value with the within-column rank, e.g. ``0.96 (1)``.
    Algorithms missing from a dataset leave a blank cell.  The machine
    output carries full-precision values, ranks, and the Spearman rank
    correlation for every pair of datasets (over their shared algorithms;
    null when fewer than two are shared).
    """
    if parameter not in COMPARISON_PARAMETERS:
        raise ValidationError(
            f"parameter must be one of {COMPARISON_PARAMETERS}, got {parameter!r}"
        )
    if not estimates:
        raise ValidationError("no estimates to compare")
    field = ALGORITHM_FIELDS[parameter]
    per_label: dict[str, dict[str, float]] = {}
    for label, algorithms in estimates.items():
        values = per_label[label] = {}
        for a in algorithms:
            if a.name in values:
                raise ValidationError(
                    f"duplicate algorithm {a.name!r} under {label!r}"
                )
            values[a.name] = float(getattr(a, field))
    labels = list(per_label)
    algo_order = list(dict.fromkeys(n for values in per_label.values() for n in values))

    def ranks_of(label, names) -> list[float]:
        return _average_ranks([per_label[label][n] for n in names])

    ranks = {}
    for label, values in per_label.items():
        names = [n for n in algo_order if n in values]
        ranks[label] = dict(zip(names, ranks_of(label, names)))

    def cell(label, name) -> str:
        if name not in per_label[label]:
            return ""
        return f"{_fmt2(per_label[label][name])} ({_fmt_rank(ranks[label][name])})"

    rows = tuple((name, *(cell(l, name) for l in labels)) for name in algo_order)
    spearman = {}
    for la, lb in itertools.combinations(labels, 2):
        shared = [n for n in algo_order if n in per_label[la] and n in per_label[lb]]
        spearman[f"{la}|{lb}"] = (
            _spearman(ranks_of(la, shared), ranks_of(lb, shared))
            if len(shared) >= 2 else None
        )

    machine = {
        "table": "comparison",
        "parameter": parameter,
        "datasets": labels,
        "algorithms": algo_order,
        "values": per_label,
        "ranks": ranks,
        "spearman": spearman,
    }
    return Table(
        title=f"Cross-dataset comparison of {parameter}",
        headers=("algorithm", *labels),
        rows=rows,
        machine=machine,
    )


# ---------------------------------------------------------------------------
# SVG curve plots

_PANEL_W = 150.0
_PANEL_H = 100.0
_GAP = 14.0
_LEFT = 80.0
_TOP = 34.0
_BOTTOM = 26.0

_OBSERVED_COLOR = "#1f77b4"
_PREDICTED_COLOR = "#d62728"
_BAND_COLOR = "#2ca02c"


def _coords(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _series_fragments(values, mask, to_x, to_y, color, dashed) -> list[str]:
    """Polyline per contiguous observed run; lone points become dots."""
    out = []
    dash = ' stroke-dasharray="5 3"' if dashed else ""
    for observed, run in itertools.groupby(range(len(mask)), key=mask.__getitem__):
        if not observed:
            continue
        steps = list(run)
        xs = [to_x(k) for k in steps]
        ys = [to_y(values[k]) for k in steps]
        if len(xs) == 1:
            out.append(
                f'<circle cx="{xs[0]:.2f}" cy="{ys[0]:.2f}" r="2" fill="{color}"/>'
            )
        else:
            out.append(
                f'<polyline points="{_coords(xs, ys)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"{dash}/>'
            )
    return out


def plot_curves(observed, predicted, curriculum: Curriculum, taskset: TaskSet) -> str:
    """Render an algorithm-by-task grid of performance curves as SVG.

    Columns are headed by ``taskset``'s names.  Observed curves are
    solid, predicted curves dashed, and each phase where a task was
    trained is shaded behind its panel.  ``predicted`` is empty, which
    draws observed curves only, or holds one matrix per observed matrix,
    paired with it by position (names are not compared).  Output bytes are
    a pure function of the inputs.
    """
    observed, predicted = list(observed), list(predicted)
    if not observed:
        raise ValidationError("nothing to plot")
    if predicted and len(predicted) != len(observed):
        raise ValidationError(
            f"{len(predicted)} predicted matrices for {len(observed)} observed"
        )
    n, what = observed[0].n_tasks, f"matrix for {observed[0].algorithm!r}"
    _same_tasks(what, n, "curriculum", curriculum.n_tasks)
    _same_tasks(what, n, "task set", taskset.n)
    m = curriculum.m
    kinds = [""] * len(observed) + ["predicted "] * len(predicted)
    for kind, mat in zip(kinds, observed + predicted):
        if mat.values.shape != (n, m):
            raise ValidationError(
                f"{kind}curves for {mat.algorithm!r} have shape {mat.values.shape}, "
                f"expected {(n, m)}"
            )

    all_vals = [mat.values[mat.mask] for mat in (*observed, *predicted)]
    lo = min([-1.0] + [float(v.min()) for v in all_vals if v.size])
    hi = max([1.0] + [float(v.max()) for v in all_vals if v.size])

    p = len(observed)
    width = _LEFT + n * _PANEL_W + (n - 1) * _GAP + 10
    height = _TOP + p * _PANEL_H + (p - 1) * _GAP + _BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        "<style>text{font-family:monospace;font-size:10px;fill:#444}</style>",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for j, name in enumerate(taskset.names):
        cx = _LEFT + j * (_PANEL_W + _GAP) + _PANEL_W / 2
        parts.append(
            f'<text x="{cx:.2f}" y="{_TOP - 8:.2f}" text-anchor="middle">'
            f"{escape(name, quote=False)}</text>"
        )
    for a, mat in enumerate(observed):
        y0 = _TOP + a * (_PANEL_H + _GAP)
        parts.append(
            f'<text x="{_LEFT - 8:.2f}" y="{y0 + _PANEL_H / 2:.2f}" '
            f'text-anchor="end">{escape(mat.algorithm, quote=False)}</text>'
        )
        pred = predicted[a] if predicted else None
        for j in range(n):
            x0 = _LEFT + j * (_PANEL_W + _GAP)

            def to_x(step, x0=x0):
                return x0 + (step + 0.5) / m * _PANEL_W

            def to_y(v, y0=y0):
                return y0 + (hi - v) / (hi - lo) * _PANEL_H

            parts.append(f'<g id="panel-{a}-{j}">')
            for l in range(m):
                if curriculum.entries[l] == j:
                    bx = x0 + l / m * _PANEL_W
                    parts.append(
                        f'<rect class="band" x="{bx:.2f}" y="{y0:.2f}" '
                        f'width="{_PANEL_W / m:.2f}" height="{_PANEL_H:.2f}" '
                        f'fill="{_BAND_COLOR}" opacity="0.15"/>'
                    )
            parts.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{_PANEL_W:.2f}" '
                f'height="{_PANEL_H:.2f}" fill="none" stroke="#999"/>'
            )
            zero_y = to_y(0.0)
            parts.append(
                f'<line x1="{x0:.2f}" y1="{zero_y:.2f}" x2="{x0 + _PANEL_W:.2f}" '
                f'y2="{zero_y:.2f}" stroke="#ddd"/>'
            )
            parts.extend(
                _series_fragments(
                    mat.values[j], mat.mask[j], to_x, to_y, _OBSERVED_COLOR, False
                )
            )
            if pred is not None:
                parts.extend(
                    _series_fragments(
                        pred.values[j], pred.mask[j], to_x, to_y,
                        _PREDICTED_COLOR, True,
                    )
                )
            parts.append("</g>")
        parts.append(
            f'<text x="{_LEFT - 8:.2f}" y="{y0 + 10:.2f}" text-anchor="end">'
            f"{_fmt2(hi)}</text>"
        )
        parts.append(
            f'<text x="{_LEFT - 8:.2f}" y="{y0 + _PANEL_H:.2f}" text-anchor="end">'
            f"{_fmt2(lo)}</text>"
        )
    legend_y = height - 8
    parts.append(
        f'<line x1="{_LEFT:.2f}" y1="{legend_y - 4:.2f}" x2="{_LEFT + 24:.2f}" '
        f'y2="{legend_y - 4:.2f}" stroke="{_OBSERVED_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(f'<text x="{_LEFT + 30:.2f}" y="{legend_y:.2f}">observed</text>')
    if predicted:
        lx = _LEFT + 110
        parts.append(
            f'<line x1="{lx:.2f}" y1="{legend_y - 4:.2f}" x2="{lx + 24:.2f}" '
            f'y2="{legend_y - 4:.2f}" stroke="{_PREDICTED_COLOR}" stroke-width="1.5" '
            f'stroke-dasharray="5 3"/>'
        )
        parts.append(f'<text x="{lx + 30:.2f}" y="{legend_y:.2f}">predicted</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
