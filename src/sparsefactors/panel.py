"""Panel data container, CSV ingestion, variable transformations, standardization.

A :class:`Panel` holds an N x T matrix of observations (rows are
cross-sectional units / series, columns are time periods) together with its
labels. All entries are finite; series with missing observations are dropped
at ingestion time, never imputed.

Transformation codes follow the public FRED-QD convention:

====  =================================
code  transformation
====  =================================
1     level (no transformation)
2     first difference
3     second difference
4     log
5     first difference of log
6     second difference of log
7     first difference of growth rate
====  =================================
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InsufficientSampleError,
    InvalidArgumentError,
    PanelParseError,
    TransformError,
)

VALID_TCODES = (1, 2, 3, 4, 5, 6, 7)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Panel:
    """Immutable N x T data panel with series/time labels.

    Parameters
    ----------
    values : ndarray, shape (N, T)
        Observations; rows are series, columns are time periods.
    series_ids : tuple of str
        N series names.
    time_ids : tuple of str
        T time labels.
    group_ids : tuple of int, optional
        Small integer group id per series (1-13 in the FRED-QD use case).
    """

    values: np.ndarray
    series_ids: tuple
    time_ids: tuple
    group_ids: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "series_ids", tuple(self.series_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))
        if self.group_ids is not None:
            object.__setattr__(self, "group_ids", tuple(int(g) for g in self.group_ids))
        if self.values.ndim != 2:
            raise InvalidArgumentError("Panel values must be a 2-d matrix")
        n, t = self.values.shape
        if len(self.series_ids) != n:
            raise InvalidArgumentError(f"{len(self.series_ids)} series labels for {n} rows")
        if len(self.time_ids) != t:
            raise InvalidArgumentError(f"{len(self.time_ids)} time labels for {t} columns")
        if self.group_ids is not None and len(self.group_ids) != n:
            raise InvalidArgumentError(f"{len(self.group_ids)} group ids for {n} rows")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("Panel values must be finite (no missing entries)")

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


@dataclass
class DropReport:
    """Names and reasons for series dropped during ingestion."""

    dropped: list = field(default_factory=list)  # (name, reason) pairs

    def add(self, name: str, reason: str) -> None:
        self.dropped.append((name, reason))

    def __len__(self) -> int:
        return len(self.dropped)


def _parse_cell(text: str) -> float:
    """Parse one CSV cell; empty, unparseable or non-finite cells become NaN."""
    try:
        value = float(text)
    except ValueError:
        return np.nan
    return value if math.isfinite(value) else np.nan


def ingest_csv(source, orientation: str = "series_in_rows") -> tuple[Panel, DropReport]:
    """Read a labeled CSV into a Panel, dropping any series with gaps.

    Parameters
    ----------
    source : bytes, str, file-like, or path-like
        CSV content. First row holds time labels and first column series
        names when ``orientation="series_in_rows"``; transposed layout with
        ``"series_in_columns"``. An optional second column named ``group``
        carries integer group ids.
    orientation : {"series_in_rows", "series_in_columns"}

    Returns
    -------
    (Panel, DropReport)
        The panel (no missing entries) and the list of dropped series with
        reasons.

    Raises
    ------
    PanelParseError
        Text that is not UTF-8 or not CSV, an empty file, duplicate series
        labels, or fewer than 2 time points.
    """
    if orientation not in ("series_in_rows", "series_in_columns"):
        raise InvalidArgumentError(f"unknown orientation {orientation!r}")
    reader = csv.reader(io.StringIO(_as_text(source)))
    try:
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    except csv.Error as exc:
        raise PanelParseError(f"malformed CSV: {exc}", location=f"line {reader.line_num}") from None
    if not rows:
        raise PanelParseError("empty file")
    if orientation == "series_in_columns":
        width = max(len(r) for r in rows)
        rows = [r + [""] * (width - len(r)) for r in rows]
        rows = [list(col) for col in zip(*rows)]

    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    if not body:
        raise PanelParseError("no series rows after the header")

    has_group = len(header) >= 2 and header[1].lower() == "group"
    first_data_col = 2 if has_group else 1
    time_ids = tuple(header[first_data_col:])
    if len(time_ids) < 2:
        raise PanelParseError("fewer than 2 time points", location="header row")

    names, groups, data = [], [], []
    report = DropReport()
    seen = set()
    for i, row in enumerate(body):
        name = row[0].strip() if row else ""
        if not name:
            raise PanelParseError("missing series name", location=f"row {i + 2}")
        if name in seen:
            raise PanelParseError(f"duplicate series {name!r}", location=f"row {i + 2}")
        seen.add(name)
        cells = row[first_data_col:]
        if len(cells) < len(time_ids):
            cells = cells + [""] * (len(time_ids) - len(cells))
        vals = np.array([_parse_cell(c) for c in cells[: len(time_ids)]])
        if np.isnan(vals).any():
            report.add(name, "missing, unparseable or non-finite observations")
            continue
        names.append(name)
        if has_group:
            try:
                group = float(row[1])
            except ValueError:
                group = math.nan
            if not group.is_integer():  # also refuses inf and nan
                raise PanelParseError(
                    f"group id {row[1]!r} is not an integer", location=f"row {i + 2}"
                )
            groups.append(int(group))
        data.append(vals)

    if not data:
        raise PanelParseError("all series were dropped (missing observations everywhere)")
    panel = Panel(
        values=np.vstack(data),
        series_ids=tuple(names),
        time_ids=time_ids,
        group_ids=tuple(groups) if has_group else None,
    )
    return panel, report


def _as_text(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    elif not isinstance(source, (bytes, str)):
        with open(source, "rb") as fh:
            source = fh.read()
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelParseError("not UTF-8 text", location=f"byte {exc.start}") from None


def export_csv(panel: Panel) -> str:
    """Serialize a Panel back to the ingestion CSV layout (series in rows).

    Floats are rendered with :func:`repr` so finite decimals round-trip
    bit-exactly through ``ingest_csv``.
    """
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    # csv quotes only the characters of its line terminator: a row holding "\r" needs QUOTE_ALL
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    groups = panel.group_ids
    rows = [["series"] + (["group"] if groups is not None else []) + list(panel.time_ids)]
    for i, name in enumerate(panel.series_ids):
        rows.append([name] + ([str(groups[i])] if groups is not None else [])
                    + [repr(float(v)) for v in panel.values[i]])
    for row in rows:
        (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
    return buf.getvalue()


def apply_tcode(series, code: int) -> np.ndarray:
    """Apply one FRED-QD transformation code to a single series.

    Output length is the input length minus the differencing order of the
    code (0, 1, 2, 0, 1, 2, 2 for codes 1-7). Code 1 returns the input
    unchanged.

    Raises
    ------
    TransformError
        Nonpositive value under a log-based code (4-7), naming the index.
    InvalidArgumentError
        Unknown code or series shorter than 3 observations.
    """
    if code not in VALID_TCODES:
        raise InvalidArgumentError(f"transformation code must be in 1..7, got {code}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise InvalidArgumentError("apply_tcode expects a 1-d series")
    if x.size < 3:
        raise InvalidArgumentError(f"series too short for transformation (length {x.size} < 3)")
    if code in (4, 5, 6, 7):
        bad = np.nonzero(x <= 0)[0]
        if bad.size:
            raise TransformError(
                f"nonpositive value {x[bad[0]]!r} under log-based code {code}",
                index=int(bad[0]),
            )
    if code == 1:
        return x.copy()
    if code == 2:
        return np.diff(x)
    if code == 3:
        return np.diff(x, n=2)
    if code == 4:
        return np.log(x)
    if code == 5:
        return np.diff(np.log(x))
    if code == 6:
        return np.diff(np.log(x), n=2)
    # code 7: first difference of the exact growth rate
    growth = x[1:] / x[:-1] - 1.0
    return np.diff(growth)


def align_and_trim(panel: Panel, codes) -> Panel:
    """Transform every series by its code and align on a common sample.

    All transformed series are truncated to a common length of ``T - 2``
    (two initial observations are lost to the highest differencing order),
    dropping leading observations so every series starts at the same time
    index.

    Raises
    ------
    InsufficientSampleError
        If the trimmed panel would have fewer than 10 periods.
    """
    codes = list(codes)
    if len(codes) != panel.n_series:
        raise InvalidArgumentError(f"{len(codes)} codes for {panel.n_series} series")
    t_out = panel.n_periods - 2
    if t_out < 10:
        raise InsufficientSampleError(
            f"only {t_out} periods would remain after trimming (minimum 10)"
        )
    out = np.empty((panel.n_series, t_out))
    for i, code in enumerate(codes):
        z = apply_tcode(panel.values[i], code)
        out[i] = z[len(z) - t_out :]
    return Panel(
        values=out,
        series_ids=panel.series_ids,
        time_ids=panel.time_ids[2:],
        group_ids=panel.group_ids,
    )


def standardize(panel: Panel) -> Panel:
    """Demean each series and scale it to unit sample variance (ddof=1).

    Raises
    ------
    InsufficientSampleError
        If the panel has fewer than 2 periods (the sample variance needs 2).
    DegenerateSeriesError
        If some series is constant, or its mean or variance overflows, naming it.
    """
    return replace(panel, values=_standardized(panel)[0])


def _standardized(panel: Panel) -> tuple[np.ndarray, np.ndarray]:
    """``(values, sd)`` of ``standardize``: the standardized N x T values and the
    per-series sample standard deviations (ddof=1, shape (N,)) they were divided by,
    bitwise ``panel.values.std(axis=1, ddof=1)``. Raises as ``standardize`` does."""
    if panel.n_periods < 2:
        raise InsufficientSampleError(
            f"standardizing needs at least 2 periods, got {panel.n_periods}")
    x = panel.values
    with np.errstate(over="ignore", invalid="ignore"):  # np.std(ddof=1)'s arithmetic, mean taken once
        dev = x - x.mean(axis=1, keepdims=True)
        sd = np.sqrt(np.add.reduce(dev * dev, axis=1) / (panel.n_periods - 1))
    bad = np.nonzero(~((0.0 < sd) & (sd < np.inf)))[0]  # 0, inf, or NaN from an inf mean
    if bad.size:
        why = "is constant" if sd[bad[0]] == 0.0 else "overflows in its mean or variance"
        raise DegenerateSeriesError(
            f"series {panel.series_ids[bad[0]]!r} {why} and cannot be standardized"
        )
    dev /= sd[:, None]
    return dev, sd
