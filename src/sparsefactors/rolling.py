"""Rolling-window estimation over a macro panel and heat-map exports.

Each trailing window is re-standardized and treated as a fresh panel: factor
counts per requested method, then screening and strength estimation at the
SVT-selected factor count. Windows step one period at a time; the right
endpoint labels each record.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, SELECTORS
from .panel import Panel, standardize
from .pca import decompose, pc_fit
from .screening import DEFAULT_C, screen, strengths, threshold_value

HEATMAP_CENSOR = 3.0


@dataclass(frozen=True)
class RollingResult:
    """Per-window factor counts and strengths.

    ``strength_series[w]`` has length ``r_hat_series["wz"][w]`` (empty when
    the window is degenerate, i.e. the SVT rule found no factors).
    """

    window_length: int
    endpoints: tuple
    r_hat_series: dict
    strength_series: tuple
    notes: tuple


@dataclass(frozen=True)
class HeatmapExport:
    """Censored absolute screened loadings with display labels.

    Values are ``min(|lambda_hat|, 3)``; row labels carry the group number
    when the panel has one; column labels give the strength rank and the
    estimated strength in parentheses.
    """

    values: np.ndarray
    row_labels: tuple
    column_labels: tuple


def _window_strengths(win: Panel, r_hat: int, thr: float, eig):
    if r_hat == 0:
        return ()
    fit = pc_fit(win, r_hat, eig=eig)
    est = strengths(screen(fit, thr), win.n_series)
    return tuple(sorted(est.alpha_hat, reverse=True))


def rolling_analysis(
    panel: Panel,
    window: int = 120,
    methods=("wz", "bn", "ed"),
    rmax: int = DEFAULT_RMAX,
    c_multiplier: float = DEFAULT_C,
) -> RollingResult:
    """Estimate factor counts and strengths on every trailing window.

    Windows are ``[t - window + 1, t]`` for ``t = window .. T``; each is
    re-standardized before estimation. Strengths are computed at the
    SVT-selected count (the "wz" method is always run for that purpose) and
    windows with no detected factor are flagged.
    """
    if window > panel.n_periods:
        raise InvalidArgumentError(f"window {window} exceeds panel length {panel.n_periods}")
    if window < 10:
        raise InvalidArgumentError(f"window must be at least 10 periods, got {window}")
    methods = tuple(dict.fromkeys(tuple(methods) + ("wz",)))  # ensure wz, keep order
    unknown = [m for m in methods if m not in SELECTORS]
    if unknown:
        raise InvalidArgumentError(f"unknown methods {unknown}")
    thr = threshold_value(panel.n_series, window, c_multiplier)  # every window is N x window
    endpoints, notes, strengths_out = [], [], []
    r_series: dict = {m: [] for m in methods}
    for t in range(window, panel.n_periods + 1):
        sl = slice(t - window, t)
        win = Panel(
            values=panel.values[:, sl],
            series_ids=panel.series_ids,
            time_ids=panel.time_ids[sl],
            group_ids=panel.group_ids,
        )
        win = standardize(win)
        eig = decompose(win)
        for m in methods:
            r_series[m].append(SELECTORS[m](win, rmax=rmax, eig=eig).r_hat)
        r_wz = r_series["wz"][-1]
        strengths_out.append(_window_strengths(win, r_wz, thr, eig))
        endpoints.append(panel.time_ids[t - 1])
        notes.append("degenerate: r_hat = 0" if r_wz == 0 else "")
    return RollingResult(
        window_length=window,
        endpoints=tuple(endpoints),
        r_hat_series={m: tuple(v) for m, v in r_series.items()},
        strength_series=tuple(strengths_out),
        notes=tuple(notes),
    )


def rolling_to_csv(result: RollingResult) -> str:
    """One row per window endpoint: r_hat per method, then the sorted strengths."""
    methods = sorted(result.r_hat_series)
    max_r = max((len(s) for s in result.strength_series), default=0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["endpoint"]
        + [f"r_hat_{m}" for m in methods]
        + [f"alpha_{k + 1}" for k in range(max_r)]
        + ["note"]
    )
    for i, ep in enumerate(result.endpoints):
        row = [ep] + [result.r_hat_series[m][i] for m in methods]
        alphas = result.strength_series[i]
        row += [repr(float(a)) for a in alphas] + [""] * (max_r - len(alphas))
        row.append(result.notes[i])
        w.writerow(row)
    return buf.getvalue()


def subperiod_heatmap(
    panel: Panel,
    time_range: tuple | None = None,
    rmax: int = DEFAULT_RMAX,
    r: int | None = None,
    c_multiplier: float = DEFAULT_C,
) -> HeatmapExport:
    """Screened-loading magnitudes on a subperiod, right-censored at 3.

    ``time_range`` is a pair of time labels (inclusive); the subperiod is
    standardized, fitted (SVT-selected count unless ``r`` is given),
    screened, and ``|lambda_hat|`` is clipped to [0, 3]. Columns are labeled
    by strength rank with the strength estimate in parentheses.
    """
    if time_range is None:
        lo, hi = 0, panel.n_periods - 1
    else:
        try:
            lo = panel.time_ids.index(time_range[0])
            hi = panel.time_ids.index(time_range[1])
        except ValueError as exc:
            raise InvalidArgumentError(f"time label not in panel: {exc}") from exc
        if lo > hi:
            raise InvalidArgumentError(f"empty time range {time_range}")
    sub = Panel(
        values=panel.values[:, lo : hi + 1],
        series_ids=panel.series_ids,
        time_ids=panel.time_ids[lo : hi + 1],
        group_ids=panel.group_ids,
    )
    sub = standardize(sub)
    limit = min(sub.n_series, sub.n_periods)
    if r is not None and not 1 <= r <= limit:  # only an SVT-selected count may be 0
        raise InvalidArgumentError(f"r must be in [1, {limit}], got {r}")
    thr = threshold_value(sub.n_series, sub.n_periods, c_multiplier)
    eig = decompose(sub)
    if r is None:
        r = SELECTORS["wz"](sub, rmax=rmax, eig=eig).r_hat
    if r == 0:
        values = np.zeros((sub.n_series, 0))
        cols: tuple = ()
    else:
        fit = pc_fit(sub, r, eig=eig)
        sp = screen(fit, thr)
        est = strengths(sp, sub.n_series)
        values = np.minimum(np.abs(sp.lambda_hat), HEATMAP_CENSOR)
        order = np.argsort([-a for a in est.alpha_hat], kind="stable")
        rank_of = {int(col): pos + 1 for pos, col in enumerate(order)}
        cols = tuple(
            f"pc{k + 1} (rank {rank_of[k]}, alpha={est.alpha_hat[k]:.3f})" for k in range(r)
        )
    if panel.group_ids is not None:
        rows = tuple(f"#{g} {name}" for g, name in zip(panel.group_ids, panel.series_ids))
    else:
        rows = tuple(panel.series_ids)
    return HeatmapExport(values=values, row_labels=rows, column_labels=cols)


def heatmap_to_csv(export: HeatmapExport) -> str:
    """CSV with '#'-prefixed metadata lines, then one row per series."""
    buf = io.StringIO()
    buf.write(f"# censored |screened loading| heat map, right-censored at {HEATMAP_CENSOR}\n")
    buf.write(f"# columns: {len(export.column_labels)}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["series"] + list(export.column_labels))
    for label, row in zip(export.row_labels, export.values):
        w.writerow([label] + [repr(float(v)) for v in row])
    return buf.getvalue()
