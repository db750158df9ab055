"""Command-line entry point.

Subcommands: ``simulate``, ``estimate``, ``select-r``, ``strengths``,
``rolling``, ``heatmap``. ``simulate`` options can also come from a JSON
config file (``--config``), with command-line flags taking precedence.

Each command maps its arguments to its output files and the resolved
configuration. :func:`run_cli` alone writes them atomically (temp file +
rename) together with a ``manifest.json`` holding the resolved
configuration, the seed actually used, package versions, and wall time, and
maps the outcome to an exit status: 0 success; 1 for any
:class:`~sparsefactors.errors.SparseFactorsError`, i.e. a bad file, flag or
config value (the library raises :class:`InvalidArgumentError` for those),
reported on one line naming it; 2 for anything else, which is a bug.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import secrets
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidArgumentError, SparseFactorsError
from .factor_count import DEFAULT_RMAX, diagnostics_json, select_r, select_r_svt
from .panel import VALID_TCODES, align_and_trim, ingest_csv, standardize
from .pca import decompose, export_pc_fit, pc_fit
from .rolling import heatmap_to_csv, rolling_analysis, rolling_to_csv, subperiod_heatmap
from .screening import DEFAULT_C, screen, sparse_summary, threshold_value
from .simulate import ALL_TASKS, SimConfig, run_replications


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def _write_outputs(outdir: Path, files: dict, manifest: dict) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            _atomic_write(outdir / name, content)
        manifest["outputs"] = sorted(files)
        _atomic_write(outdir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise InvalidArgumentError(
            f"cannot write output directory {outdir}: {exc.strerror}") from None


def _manifest(subcommand: str, resolved: dict, t0: float) -> dict:
    return {
        "subcommand": subcommand,
        "config": resolved,
        "seed": resolved.get("seed"),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "sparsefactors": __version__},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }


def _read_text(path, what: str) -> str:
    """Contents of a UTF-8 input file; an unreadable or undecodable file is a bad argument."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(
            f"{what} file {path} is not UTF-8 text (byte {exc.start})") from None


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidArgumentError(f"config file {path} must hold a JSON object, "
                                   f"not {type(cfg).__name__}")
    return cfg


def _items(value) -> list:
    """Entries of a comma-separated flag or of a config-file list."""
    return value.split(",") if isinstance(value, str) else list(value)


def _convert(convert, value, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"invalid {what}: {value!r}") from None


# simulate's options: key -> converter of a flag or config-file value (None: passed on as
# given, for SimConfig to check). A key given neither as a flag nor in the config file takes
# its default (see _resolve), so an explicit 0 is kept.
_SIMULATE_OPTIONS = {
    "N": int, "T": int, "r": int, "alpha": lambda v: tuple(float(a) for a in _items(v)),
    "seed": int, "burn_in": int, "support_mode": None, "standardize": None,
    "contiguous_ranges": lambda v: tuple(tuple(rg) for rg in v),
    "reps": int, "rmax": int, "c": float, "tasks": lambda v: sorted(_items(v)), "workers": int,
}
# simulate's keys that are run_replications keywords, with the keyword each one fills
_RUN_KEYWORDS = {"rmax": "rmax", "c": "c_multiplier", "tasks": "tasks", "workers": "workers"}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values with flags (flags win), fill in defaults and convert each value.

    The defaults are SimConfig's field defaults, run_replications' keyword defaults, and the
    CLI's own: 100 replications and a seed drawn per run (None here).
    """
    file_cfg = _load_config_file(args.config)
    run = inspect.signature(run_replications).parameters
    defaults = {**{f.name: f.default for f in fields(SimConfig) if f.default is not MISSING},
                **{key: run[keyword].default for key, keyword in _RUN_KEYWORDS.items()},
                "seed": None, "reps": 100}
    resolved = {}
    for key, convert in _SIMULATE_OPTIONS.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            if key not in defaults:
                raise InvalidArgumentError(f"simulate requires {key} (flag or config file)")
            value = defaults[key]
        if value is not None and convert is not None:
            value = _convert(convert, value, f"value for {key}")
        resolved[key] = value
    return resolved


def _load_panel(args):
    panel, report = ingest_csv(_read_text(args.data, "data"), orientation=args.orientation)
    for name, reason in report.dropped:
        print(f"dropped series {name}: {reason}", file=sys.stderr)
    if args.tcodes is not None:
        panel = align_and_trim(panel, _read_tcodes(args.tcodes, panel.series_ids))
    return standardize(panel)


def _read_tcodes(path, series_ids) -> list:
    reader = csv.reader(io.StringIO(_read_text(path, "tcodes")))
    mapping = {}
    try:
        for row in reader:
            if not row or row[0].strip().lower() in ("series", ""):
                continue
            where = f"tcodes file {path}, row {reader.line_num}"
            if len(row) < 2:
                raise InvalidArgumentError(f"{where}: no transformation code")
            code = _convert(int, row[1], f"code in {where}")
            if code not in VALID_TCODES:
                raise InvalidArgumentError(f"{where}: code {code} is not in 1..7")
            mapping[row[0].strip()] = code
    except csv.Error as exc:
        raise InvalidArgumentError(f"tcodes file {path}, row {reader.line_num}: {exc}") from None
    missing = [s for s in series_ids if s not in mapping]
    if missing:
        raise InvalidArgumentError(
            f"tcodes file {path} has no code for {len(missing)} series (first: {missing[0]})"
        )
    return [mapping[s] for s in series_ids]


def _cmd_simulate(args) -> tuple[dict, dict]:
    resolved = _resolve(args)
    if resolved["seed"] is None:
        resolved["seed"] = secrets.randbits(63)  # recorded in the manifest so the run is replayable
    config = SimConfig(**{f.name: resolved[f.name] for f in fields(SimConfig)})
    report = run_replications(config, resolved["reps"],
                              **{kw: resolved[key] for key, kw in _RUN_KEYWORDS.items()})
    files = {"report.json": json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"}
    files.update(_report_tables(report, config))
    return files, resolved


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _report_tables(report, config) -> dict:
    agg, nt = report.aggregates, [config.N, config.T]
    files = {}
    if agg.get("r_hat"):
        files["factor_counts.csv"] = _csv_text(
            [["N", "T", "method", "rmse", "bias", "mean"]]
            + [nt + [m, s["rmse"], s["bias"], s["mean"]] for m, s in sorted(agg["r_hat"].items())]
        )
    if agg.get("mean_tr_f") is not None:
        files["estimation.csv"] = _csv_text([
            ["N", "T", "tr_f", "tr_lambda", "rmse_c"],
            nt + [agg["mean_tr_f"], agg["mean_tr_lambda"], agg["mean_rmse_c"]],
        ])
    if agg.get("fdr") is not None:
        files["support_recovery.csv"] = _csv_text(
            [["N", "T", "factor", "fdr", "power"]]
            + [nt + [k, f, p] for k, (f, p) in enumerate(zip(agg["fdr"], agg["power"]), start=1)]
            + [nt + ["overall", agg["mean_fdr_overall"], agg["mean_power_overall"]]]
        )
    if agg.get("alpha_hat") is not None:
        files["strengths.csv"] = _csv_text(
            [["N", "T", "factor", "alpha_true", "rmse", "bias", "mean"]]
            + [nt + [k + 1, config.alpha[k], s["rmse"], s["bias"], s["mean"]]
               for k, s in enumerate(agg["alpha_hat"])]
        )
    return files


def _cmd_estimate(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    eig = decompose(panel)
    r = args.r
    if r is None:
        r = select_r_svt(panel, rmax=args.rmax, eig=eig).r_hat
        if r == 0:
            raise SparseFactorsError("SVT rule detected no factors; pass --r to force a fit")
    fit = pc_fit(panel, r, eig=eig)
    sp = screen(fit, threshold_value(panel.n_series, panel.n_periods, args.c))
    tables = export_pc_fit(fit, panel)
    files = {
        "factors.csv": tables["factors"],
        "loadings.csv": tables["loadings"],
        "eigenvalues.csv": tables["eigenvalues"],
        "screened_loadings.csv": _csv_text(
            [["series"] + [f"pc{k + 1}" for k in range(r)]]
            + [[name] + [repr(float(v)) for v in row]
               for name, row in zip(panel.series_ids, sp.lambda_hat)]
        ),
        "strengths.json": json.dumps(sparse_summary(sp, panel.n_series, args.c), indent=2) + "\n",
    }
    return files, _data_config(args, r=r)


def _cmd_select_r(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    methods = args.methods.split(",")
    results = select_r(panel, methods, rmax=args.rmax)
    files = {
        "r_hat.csv": _csv_text([methods, [results[m].r_hat for m in methods]]),
        "diagnostics.json": json.dumps(diagnostics_json(results), indent=2, sort_keys=True) + "\n",
    }
    return files, _data_config(args, methods=methods)


def _cmd_strengths(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    eig = decompose(panel)
    r = select_r_svt(panel, rmax=args.rmax, eig=eig).r_hat if args.r is None else args.r
    thr = threshold_value(panel.n_series, panel.n_periods, args.c)
    if args.r is None and r == 0:  # an explicit 0 is rejected by pc_fit
        summary = {"threshold": None, "counts": [], "alpha_hat": [], "labels": [],
                   "note": "degenerate: no factors detected"}
    else:
        sp = screen(pc_fit(panel, r, eig=eig), thr)
        summary = sparse_summary(sp, panel.n_series, args.c)
    return {"strengths.json": json.dumps(summary, indent=2) + "\n"}, _data_config(args, r=r)


def _cmd_rolling(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    methods = args.methods.split(",")
    result = rolling_analysis(panel, window=args.window, methods=methods, rmax=args.rmax,
                              c_multiplier=args.c)
    files = {"rolling.csv": rolling_to_csv(result)}
    return files, _data_config(args, window=args.window, methods=methods)


def _cmd_heatmap(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    time_range = None
    if args.start is not None or args.end is not None:
        if args.start is None or args.end is None:
            raise InvalidArgumentError("--start and --end must be given together")
        time_range = (args.start, args.end)
    export = subperiod_heatmap(
        panel, time_range=time_range, rmax=args.rmax, r=args.r, c_multiplier=args.c
    )
    files = {"heatmap.csv": heatmap_to_csv(export)}
    return files, _data_config(args, r=len(export.column_labels), start=args.start, end=args.end)


_DATA_KEYS = ("data", "orientation", "tcodes", "rmax", "c")


def _data_config(args, **own) -> dict:
    """Manifest configuration of a data command: the shared data flags plus its own keys."""
    return {**{key: getattr(args, key) for key in _DATA_KEYS}, **own}


def _add_data_flags(p) -> None:
    p.add_argument("--data", required=True, help="panel CSV path")
    p.add_argument("--orientation", default="series_in_rows",
                   choices=["series_in_rows", "series_in_columns"])
    p.add_argument("--tcodes", help="optional CSV of series,transform-code pairs")
    p.add_argument("--rmax", type=int, default=DEFAULT_RMAX)
    p.add_argument("--c", type=float, default=DEFAULT_C, help="screening threshold multiplier")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefactors",
        description="Weak factor models with sparse loadings: PC estimation, "
                    "screening, strengths, factor counts, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run seeded Monte Carlo replications")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--N", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", help="comma-separated strengths, e.g. 0.9,0.75,0.6")
    p.add_argument("--seed", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--support-mode", dest="support_mode")
    p.add_argument("--standardize", action="store_const", const=True, default=None)
    p.add_argument("--reps", type=int)
    p.add_argument("--rmax", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--tasks", help="comma-separated subset of " + ",".join(sorted(ALL_TASKS)))
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="PC fit + screening on a panel CSV")
    _add_data_flags(p)
    p.add_argument("--r", type=int, help="number of factors (default: SVT-selected)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select-r", help="estimate the number of factors")
    _add_data_flags(p)
    p.add_argument("--methods", default="wz,bn,ed,ah",
                   help="comma-separated subset of wz,bn,ed,ah")
    p.set_defaults(func=_cmd_select_r)

    p = sub.add_parser("strengths", help="screened factor strengths of a panel")
    _add_data_flags(p)
    p.add_argument("--r", type=int)
    p.set_defaults(func=_cmd_strengths)

    p = sub.add_parser("rolling", help="rolling-window factor counts and strengths")
    _add_data_flags(p)
    p.add_argument("--window", type=int, default=120, help="window length")
    p.add_argument("--methods", default="wz,bn,ed",
                   help="comma-separated subset of wz,bn,ed,ah")
    p.set_defaults(func=_cmd_rolling)

    p = sub.add_parser("heatmap", help="censored screened-loading heat map export")
    _add_data_flags(p)
    p.add_argument("--start", help="first time label of the subperiod")
    p.add_argument("--end", help="last time label of the subperiod")
    p.add_argument("--r", type=int)
    p.set_defaults(func=_cmd_heatmap)
    return parser


def run_cli(argv=None) -> int:
    """Run one subcommand and write its outputs; return the exit status (0, 1 or 2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostic; map its exit 2 onto "user error"
        return 0 if not exc.code else 1
    t0 = time.monotonic()
    try:
        files, resolved = args.func(args)
        _write_outputs(Path(args.out), files, _manifest(args.subcommand, resolved, t0))
    except SparseFactorsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not a bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
