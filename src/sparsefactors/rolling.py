"""Rolling-window estimation over a macro panel and heat-map exports.

Each trailing window is re-standardized and treated as a fresh panel: factor
counts per requested method, then screening and strength estimation at the
SVT-selected factor count. Windows step one period at a time; the right
endpoint labels each record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _blas
from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, check_rmax
from .panel import Panel, csv_text, standardize
from .screening import DEFAULT_C, estimate, threshold_value

HEATMAP_CENSOR = 3.0


@dataclass(frozen=True)
class RollingResult:
    """Per-window factor counts and strengths.

    ``strength_series[w]`` has length ``r_hat_series["wz"][w]`` (empty when
    the window is degenerate, i.e. the SVT rule found no factors). ``run`` is how the
    windows ran, in ``MetricsReport.run``'s shape; equality ignores it, since the
    windows' results do not depend on it.
    """

    window_length: int
    endpoints: tuple
    r_hat_series: dict
    strength_series: tuple
    notes: tuple
    run: dict = field(compare=False)


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


def rolling_analysis(
    panel: Panel,
    window: int = 120,
    methods=("wz", "bn", "ed"),
    rmax: int = DEFAULT_RMAX,
    c_multiplier: float = DEFAULT_C,
) -> RollingResult:
    """Estimate factor counts and strengths on every trailing window.

    Windows are ``[t - window + 1, t]`` for ``t = window .. T``; each is
    re-standardized before estimation. One ``estimate`` per window runs each
    method once; "wz" is always run, since the strengths are computed at its
    count, and windows with no detected factor are flagged. Windows run through
    ``_blas.pinned_map`` on as many threads as the BLAS had (one when it is not
    recognised); the result is the same for any thread count.
    """
    if window > panel.n_periods:
        raise InvalidArgumentError(f"window {window} exceeds panel length {panel.n_periods}")
    if window < 10:
        raise InvalidArgumentError(f"window must be at least 10 periods, got {window}")
    methods = tuple(dict.fromkeys(tuple(methods) + ("wz",)))  # ensure wz, keep order
    check_rmax(methods, rmax, panel.n_series, window)  # bad arguments fail before any thread
    threshold_value(panel.n_series, window, c_multiplier)
    ends = range(window, panel.n_periods + 1)

    def one_window(t):
        """(r_hat per method, strengths sorted nonincreasing) of window ``t``."""
        sl = slice(t - window, t)
        win = Panel._adopt(panel.values[:, sl], panel.series_ids, panel.time_ids[sl],
                           panel.group_ids)
        # every rule on the window's one decomposition; est.r is the "wz" count
        est = estimate(standardize(win), methods=methods, rmax=rmax, c=c_multiplier)
        r_hats = tuple(res.r_hat for res in est.counts.values())
        strengths = () if est.fit is None else tuple(sorted(est.strength.alpha_hat, reverse=True))
        return r_hats, strengths

    windows, run = _blas.pinned_map(one_window, ends, _blas.threads() or 1)
    r_hats, strengths_out = zip(*windows)
    return RollingResult(
        window_length=window,
        endpoints=tuple(panel.time_ids[t - 1] for t in ends),
        r_hat_series=dict(zip(methods, zip(*r_hats))),
        strength_series=strengths_out,
        notes=tuple("" if s else "degenerate: r_hat = 0" for s in strengths_out),
        run=run,
    )


def rolling_to_csv(result: RollingResult) -> str:
    """One row per window endpoint: r_hat per method, then the sorted strengths."""
    methods = sorted(result.r_hat_series)
    max_r = max((len(s) for s in result.strength_series), default=0)
    head = (["endpoint"] + [f"r_hat_{m}" for m in methods]
            + [f"alpha_{k + 1}" for k in range(max_r)] + ["note"])
    return csv_text([head] + [
        [ep] + [result.r_hat_series[m][i] for m in methods]
        + list(alphas) + [""] * (max_r - len(alphas)) + [result.notes[i]]
        for i, (ep, alphas) in enumerate(zip(result.endpoints, result.strength_series))])


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
        for label in time_range:
            if label not in panel.time_ids:
                raise InvalidArgumentError(f"time label {label!r} not in panel")
        lo, hi = map(panel.time_ids.index, time_range)
        if lo > hi:
            raise InvalidArgumentError(f"empty time range {time_range}")
    sub = Panel._adopt(panel.values[:, lo : hi + 1], panel.series_ids,
                       panel.time_ids[lo : hi + 1], panel.group_ids)
    est = estimate(standardize(sub), r, rmax=rmax, c=c_multiplier)
    if est.fit is None:
        values = np.zeros((sub.n_series, 0))
        cols: tuple = ()
    else:
        alpha = est.strength.alpha_hat
        values = np.minimum(np.abs(est.sparse.lambda_hat), HEATMAP_CENSOR)
        order = np.argsort([-a for a in alpha], kind="stable")
        rank_of = {int(col): pos + 1 for pos, col in enumerate(order)}
        cols = tuple(
            f"pc{k + 1} (rank {rank_of[k]}, alpha={alpha[k]:.3f})" for k in range(est.r)
        )
    if panel.group_ids is not None:
        rows = tuple(f"#{g} {name}" for g, name in zip(panel.group_ids, panel.series_ids))
    else:
        rows = tuple(panel.series_ids)
    return HeatmapExport(values=values, row_labels=rows, column_labels=cols)


def heatmap_to_csv(export: HeatmapExport) -> str:
    """CSV with '#'-prefixed metadata lines, then one row per series."""
    return (f"# censored |screened loading| heat map, right-censored at {HEATMAP_CENSOR}\n"
            f"# columns: {len(export.column_labels)}\n"
            + csv_text([["series"] + list(export.column_labels)]
                       + [[label] + row
                          for label, row in zip(export.row_labels, export.values.tolist())]))
