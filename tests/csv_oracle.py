"""Materializing CSV panel reader used as a reference oracle for ``ingest_csv``.

A copy of the reader that ``ingest_csv`` replaced: it splits the whole text
into rows of cell strings, transposes them for ``series_in_columns``, and only
then parses numbers. It shares no parsing code with the package; only the
result types and the error classes are the package's.
"""

import csv
import io
import math

import numpy as np

from sparsefactors import InvalidArgumentError, Panel, PanelParseError
from sparsefactors.panel import DropReport


def _parse_cell(text):
    try:
        value = float(text)
    except ValueError:
        return np.nan
    return value if math.isfinite(value) else np.nan


def _as_text(source):
    source = source.read() if hasattr(source, "read") else source
    if isinstance(source, str):
        return source
    if not isinstance(source, bytes):
        raise InvalidArgumentError(f"source {type(source).__name__} is not str, bytes or file-like")
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PanelParseError("not UTF-8 text", location=f"byte {exc.start}") from None


def reference_ingest_csv(source, orientation="series_in_rows"):
    """``(Panel, DropReport)`` of a CSV panel, or the error ``ingest_csv`` raised for it."""
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
    for j, label in enumerate(time_ids):
        if label in time_ids[:j]:
            raise PanelParseError(f"duplicate time label {label!r}", location="header row")

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
            if not group.is_integer():
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
