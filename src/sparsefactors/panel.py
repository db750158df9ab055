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
import math
import numbers
import types
from dataclasses import dataclass, field

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
    """A read-only float copy of ``a``, so no later write to ``a`` reaches the checked values.
    The copy keeps a C- or F-contiguous ``a``'s order and makes any other view contiguous, so
    BLAS reads it in place and forms ``X'X`` and ``XX'`` exactly symmetric (of some strided
    views numpy multiplies two copies, a product symmetric only to roundoff)."""
    a = np.array(a, dtype=float, order="K")
    a.setflags(write=False)
    return a


def _group_id(value, position: int) -> int:
    """``value`` as an int when it is an integral number other than a bool (``3``,
    ``np.int64(3)`` and ``3.0`` are; ``1.5``, ``True`` and ``"3"`` are not)."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise InvalidArgumentError(f"group id {value!r} at position {position} is not an integer")


@dataclass(frozen=True)
class Panel:
    """Immutable N x T data panel with series/time labels.

    Parameters
    ----------
    values : ndarray, shape (N, T)
        Observations; rows are series, columns are time periods. The panel keeps a
        read-only copy, C- or F-contiguous as the given array is (any other view is made
        contiguous), so BLAS reads it in place; the caller's array stays writeable, and
        a later change to it does not reach the panel.
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
            groups = tuple(_group_id(g, i) for i, g in enumerate(self.group_ids))
            object.__setattr__(self, "group_ids", groups)
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

    def _derived(self, values: np.ndarray, time_ids: tuple | None = None) -> Panel:
        """A panel of this one's series and group ids over ``values``, made without the checks
        of ``__post_init__``: ``values`` must be derived from this panel's checked values, as a
        slice of its columns labelled ``time_ids``, or as its standardization (finite, same
        shape, time ids kept). Read-only like every panel's values."""
        values.setflags(write=False)
        derived = object.__new__(Panel)
        derived.__dict__.update(values=values, series_ids=self.series_ids,
                                time_ids=self.time_ids if time_ids is None else time_ids,
                                group_ids=self.group_ids)
        return derived

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

    Rows are parsed into floats as they are read; no cell strings are kept.
    A file with several faults reports the first one in reading order.

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
    rows = _csv_rows(_as_text(source))
    header = next(rows, None)
    if header is None:
        raise PanelParseError("empty file")
    read = _series_in_rows if orientation == "series_in_rows" else _series_in_columns
    return read(header, rows)


def _lines(text: str):
    """Lines of ``text`` as iterating ``io.StringIO(text)`` yields them: split on "\\n" only,
    each keeping its newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _csv_rows(text: str):
    """The CSV rows of ``text`` that hold a non-blank cell, read one line at a time."""
    reader = csv.reader(_lines(text))
    try:
        for row in reader:
            if row and any(c.strip() for c in row):
                yield row
    except csv.Error as exc:
        raise PanelParseError(f"malformed CSV: {exc}", location=f"line {reader.line_num}") from None


def _labels(header: list) -> tuple[bool, tuple]:
    """``(has_group, time_ids)`` of a header: its stripped cells after the corner cell and
    the optional ``group`` cell."""
    header = [c.strip() for c in header]
    has_group = len(header) >= 2 and header[1].lower() == "group"
    return has_group, tuple(header[2 if has_group else 1:])


def _series_in_rows(header: list, rows) -> tuple[Panel, DropReport]:
    """``ingest_csv`` for series in rows: each row is parsed and checked as it is read."""
    has_group, time_ids = _labels(header)
    first, t = (2 if has_group else 1), len(time_ids)

    def series():
        for row in rows:
            cells = row[first : first + t]
            if len(cells) < t:
                cells += [""] * (t - len(cells))
            group = row[1] if has_group and len(row) > 1 else ""
            yield row[0].strip(), group, np.fromiter(map(_parse_cell, cells), float, t)

    return _checked_panel(time_ids, has_group, series())


def _series_in_columns(header: list, rows) -> tuple[Panel, DropReport]:
    """``ingest_csv`` for series in columns: each row (one period, or the group row) is
    parsed as it is read, and the series are checked once the whole file is read."""
    first_cells, groups, periods = [header[0]], None, []
    for row in rows:
        first_cells.append(row[0])
        if groups is None and not periods and row[0].strip().lower() == "group":
            groups = row
        else:
            periods.append(np.fromiter(map(_parse_cell, row[1:]), float, len(row) - 1))
    width = max([len(header), len(groups or ())] + [len(p) + 1 for p in periods])
    block = np.full((len(periods), width - 1), np.nan)
    for k, period in enumerate(periods):
        block[k, : len(period)] = period
    del periods  # the block holds them, and _checked_panel's vstack makes one more N x T copy
    values = block.T
    has_group, time_ids = _labels(first_cells)

    def series():
        for j in range(1, width):
            name = header[j].strip() if j < len(header) else ""
            group = groups[j] if groups is not None and j < len(groups) else ""
            yield name, group, values[j - 1]

    return _checked_panel(time_ids, has_group, series())


def _checked_panel(time_ids: tuple, has_group: bool, series) -> tuple[Panel, DropReport]:
    """The panel and drop report of ``series``, ``(name, group cell, values)`` per series in
    file order, each checked as it arrives."""
    if len(time_ids) < 2:
        raise PanelParseError("fewer than 2 time points", location="header row")
    names, groups, data = [], [], []
    report = DropReport()
    seen = set()
    for i, (name, group_cell, vals) in enumerate(series):
        if not name:
            raise PanelParseError("missing series name", location=f"row {i + 2}")
        if name in seen:
            raise PanelParseError(f"duplicate series {name!r}", location=f"row {i + 2}")
        seen.add(name)
        if np.isnan(vals).any():
            report.add(name, "missing, unparseable or non-finite observations")
            continue
        names.append(name)
        if has_group:
            try:
                group = float(group_cell)
            except ValueError:
                group = math.nan
            if not group.is_integer():  # also refuses inf and nan
                raise PanelParseError(
                    f"group id {group_cell!r} is not an integer", location=f"row {i + 2}"
                )
            groups.append(int(group))
        data.append(vals)

    if not seen:
        raise PanelParseError("no series rows after the header")
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
    groups = panel.group_ids
    head = ["series"] + (["group"] if groups is not None else [])
    return csv_text([head + list(panel.time_ids)] + [
        [name] + ([groups[i]] if groups is not None else []) + row
        for i, (name, row) in enumerate(zip(panel.series_ids, panel.values.tolist()))])


def csv_text(rows) -> str:
    """``rows`` as CSV text in the one dialect of every table the package writes.

    Lines end in "\\n". A float cell (a numpy one too) is written as ``repr(float(v))``,
    which reads back bit for bit; any other cell as csv writes it (None as ""). csv quotes
    only the characters of its own line terminator, so a row with a string cell holding
    "\\r" is written with every cell quoted, and reads back intact.
    """
    lines = []
    sink = types.SimpleNamespace(write=lines.append)  # csv.writer writes a row in one call
    plain = csv.writer(sink, lineterminator="\n")
    quoted = csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        row = [float(v) if isinstance(v, np.floating) else v for v in row]  # str(float) is repr
        plain.writerow(row)
        if "\r" in lines[-1]:  # only a string cell can hold one
            lines.pop()
            quoted.writerow(row)
    return "".join(lines)


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
    TransformError
        If a transformed value is not finite, naming the series, its code and the period.
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        for i, code in enumerate(codes):
            z = apply_tcode(panel.values[i], code)
            out[i] = z[len(z) - t_out :]
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, k = bad[0]
        raise TransformError(f"series {panel.series_ids[i]!r} overflows under code {codes[i]} "
                             f"at period {panel.time_ids[k + 2]!r}", index=int(k + 2))
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
    return panel._derived(_standardized(panel)[0])


def _standardized(panel: Panel) -> tuple[np.ndarray, np.ndarray]:
    """``(values, sd)`` of ``standardize``: the standardized N x T values and the
    per-series sample standard deviations (ddof=1, shape (N,)) they were divided by,
    bitwise ``panel.values.std(axis=1, ddof=1)``. Raises as ``standardize`` does."""
    if panel.n_periods < 2:
        raise InsufficientSampleError(
            f"standardizing needs at least 2 periods, got {panel.n_periods}")
    x = panel.values
    with np.errstate(over="ignore", invalid="ignore"):  # np.std(ddof=1)'s arithmetic, mean taken once
        mean = x.mean(axis=1)
        dev = x - mean[:, None]
        sd = np.sqrt(np.add.reduce(dev * dev, axis=1) / (panel.n_periods - 1))
    tiny = sd <= 1e-8 * np.abs(mean)  # sd 0, or ~1e-17 |c| where a constant c's mean is inexact
    constant = sd == 0.0
    constant[tiny] |= np.ptp(x[tiny], axis=1) == 0.0
    bad = np.nonzero(constant | ~(sd < np.inf))[0]  # constant, or sd inf or NaN from an inf mean
    if bad.size:
        why = "is constant" if constant[bad[0]] else "overflows in its mean or variance"
        raise DegenerateSeriesError(
            f"series {panel.series_ids[bad[0]]!r} {why} and cannot be standardized"
        )
    dev /= sd[:, None]
    return dev, sd
