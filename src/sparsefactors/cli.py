"""Command-line entry point.

Subcommands: ``simulate``, ``estimate``, ``select-r``, ``strengths``,
``rolling``, ``heatmap``. Options can come from a JSON config file
(``--config``) with command-line flags taking precedence. Every run writes
its outputs atomically (temp file + rename) plus a ``manifest.json`` with
the fully resolved configuration, the seed actually used, package versions,
and wall time. Exit status: 0 success, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SparseFactorsError
from .factor_count import DEFAULT_RMAX, diagnostics_json, select_r, select_r_svt
from .panel import align_and_trim, ingest_csv, standardize
from .pca import eig_sym_desc, export_pc_fit, gram, pc_fit
from .rolling import heatmap_to_csv, rolling_analysis, rolling_to_csv, subperiod_heatmap
from .screening import screen, sparse_summary, threshold_value
from .simulate import ALL_TASKS, SimConfig, run_replications


class UserError(Exception):
    """Bad input or flags; reported on stderr with exit status 1."""


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def _write_outputs(outdir: Path, files: dict, manifest: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        _atomic_write(outdir / name, content)
    manifest["outputs"] = sorted(files)
    _atomic_write(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest(subcommand: str, resolved: dict, seed, t0: float) -> dict:
    return {
        "subcommand": subcommand,
        "config": resolved,
        "seed": seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "sparsefactors": __version__,
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
    }


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UserError(f"config file is not valid JSON: {exc}") from None


def _resolve(args: argparse.Namespace, keys, defaults) -> dict:
    """Merge config-file values with flags; flags win when explicitly given.

    ``defaults`` fills only keys given nowhere: an explicit 0 is kept.
    """
    file_cfg = _load_config_file(getattr(args, "config", None))
    resolved = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        resolved[key] = defaults.get(key) if value is None else value
    return resolved


def _load_panel(args) -> object:
    if args.data is None:
        raise UserError("--data is required")
    try:
        with open(args.data, "rb") as fh:
            panel, report = ingest_csv(fh, orientation=args.orientation)
    except FileNotFoundError:
        raise UserError(f"cannot read data file: {args.data}") from None
    if len(report):
        for name, reason in report.dropped:
            print(f"dropped series {name}: {reason}", file=sys.stderr)
    if args.tcodes is not None:
        codes = _read_tcodes(args.tcodes, panel.series_ids)
        panel = align_and_trim(panel, codes)
    return standardize(panel)


def _read_tcodes(path, series_ids) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UserError(f"cannot read tcodes file: {path}") from None
    mapping = {}
    for row in csv.reader(io.StringIO(text)):
        if not row or row[0].strip().lower() in ("series", ""):
            continue
        mapping[row[0].strip()] = int(row[1])
    missing = [s for s in series_ids if s not in mapping]
    if missing:
        raise UserError(f"tcodes file missing {len(missing)} series (first: {missing[0]})")
    return [mapping[s] for s in series_ids]


def _seed_of(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return secrets.randbits(63)  # recorded in the manifest so the run is replayable


def _cmd_simulate(args) -> None:
    t0 = time.monotonic()
    keys = ("N", "T", "r", "alpha", "seed", "burn_in", "support_mode",
            "contiguous_ranges", "standardize", "reps", "rmax", "c", "tasks", "workers")
    defaults = {"burn_in": 100, "support_mode": "random", "standardize": False, "reps": 100,
                "rmax": DEFAULT_RMAX, "c": 1.0, "workers": 1}
    resolved = _resolve(args, keys, defaults)
    for req in ("N", "T", "r", "alpha"):
        if resolved[req] is None:
            raise UserError(f"simulate requires {req} (flag or config file)")
    if isinstance(resolved["alpha"], str):
        resolved["alpha"] = [float(a) for a in resolved["alpha"].split(",")]
    seed = int(resolved["seed"]) if resolved["seed"] is not None else _seed_of(args)
    resolved["seed"] = seed
    reps = int(resolved["reps"])
    rmax = int(resolved["rmax"])
    c_mult = float(resolved["c"])
    workers = int(resolved["workers"])
    tasks = resolved["tasks"]
    if tasks is None:
        tasks = sorted(ALL_TASKS)
    elif isinstance(tasks, str):
        tasks = tasks.split(",")
    try:
        config = SimConfig(
            N=int(resolved["N"]),
            T=int(resolved["T"]),
            r=int(resolved["r"]),
            alpha=tuple(resolved["alpha"]),
            seed=seed,
            burn_in=int(resolved["burn_in"]),
            support_mode=resolved["support_mode"],
            contiguous_ranges=tuple(tuple(rg) for rg in resolved["contiguous_ranges"])
            if resolved["contiguous_ranges"]
            else None,
            standardize=bool(resolved["standardize"]),
        )
        report = run_replications(
            config, reps, tasks=tasks, rmax=rmax, c_multiplier=c_mult, workers=workers
        )
    except ValueError as exc:
        raise UserError(str(exc)) from None
    resolved.update({"reps": reps, "rmax": rmax, "c": c_mult, "tasks": sorted(tasks)})
    files = {"report.json": json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"}
    files.update(_report_tables(report, config))
    _write_outputs(Path(args.out), files, _manifest("simulate", resolved, seed, t0))


def _report_tables(report, config) -> dict:
    agg = report.aggregates
    files = {}
    if agg.get("r_hat"):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["N", "T", "method", "rmse", "bias", "mean"])
        for m, stats in sorted(agg["r_hat"].items()):
            w.writerow([config.N, config.T, m, stats["rmse"], stats["bias"], stats["mean"]])
        files["factor_counts.csv"] = buf.getvalue()
    if agg.get("mean_tr_f") is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["N", "T", "tr_f", "tr_lambda", "rmse_c"])
        w.writerow([config.N, config.T, agg["mean_tr_f"], agg["mean_tr_lambda"], agg["mean_rmse_c"]])
        files["estimation.csv"] = buf.getvalue()
    if agg.get("fdr") is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["N", "T", "factor", "fdr", "power"])
        for k, (f, p) in enumerate(zip(agg["fdr"], agg["power"]), start=1):
            w.writerow([config.N, config.T, k, f, p])
        w.writerow([config.N, config.T, "overall", agg["mean_fdr_overall"], agg["mean_power_overall"]])
        files["support_recovery.csv"] = buf.getvalue()
    if agg.get("alpha_hat") is not None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["N", "T", "factor", "alpha_true", "rmse", "bias", "mean"])
        for k, stats in enumerate(agg["alpha_hat"]):
            w.writerow([config.N, config.T, k + 1, config.alpha[k],
                        stats["rmse"], stats["bias"], stats["mean"]])
        files["strengths.csv"] = buf.getvalue()
    return files


def _cmd_estimate(args) -> None:
    t0 = time.monotonic()
    panel = _load_panel(args)
    eig = eig_sym_desc(gram(panel))
    try:
        if args.r is None:
            r = select_r_svt(panel, rmax=args.rmax, eig=eig).r_hat
            if r == 0:
                raise UserError("SVT rule detected no factors; pass --r to force a fit")
        else:
            r = args.r
        fit = pc_fit(panel, r, eig=eig)
        sp = screen(fit, threshold_value(panel.n_series, panel.n_periods, args.c))
    except ValueError as exc:
        raise UserError(str(exc)) from None
    tables = export_pc_fit(fit, panel)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["series"] + [f"pc{k + 1}" for k in range(r)])
    for name, row in zip(panel.series_ids, sp.lambda_hat):
        w.writerow([name] + [repr(float(v)) for v in row])
    files = {
        "factors.csv": tables["factors"],
        "loadings.csv": tables["loadings"],
        "eigenvalues.csv": tables["eigenvalues"],
        "screened_loadings.csv": buf.getvalue(),
        "strengths.json": json.dumps(sparse_summary(sp, panel.n_series, args.c), indent=2) + "\n",
    }
    resolved = {"data": args.data, "orientation": args.orientation, "r": r,
                "rmax": args.rmax, "c": args.c, "tcodes": args.tcodes}
    _write_outputs(Path(args.out), files, _manifest("estimate", resolved, None, t0))


def _cmd_select_r(args) -> None:
    t0 = time.monotonic()
    panel = _load_panel(args)
    methods = args.methods.split(",")
    try:
        results = select_r(panel, methods, rmax=args.rmax)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(methods)
    w.writerow([results[m].r_hat for m in methods])
    files = {
        "r_hat.csv": buf.getvalue(),
        "diagnostics.json": json.dumps(diagnostics_json(results), indent=2, sort_keys=True) + "\n",
    }
    resolved = {"data": args.data, "orientation": args.orientation,
                "rmax": args.rmax, "methods": methods, "tcodes": args.tcodes}
    _write_outputs(Path(args.out), files, _manifest("select-r", resolved, None, t0))


def _cmd_strengths(args) -> None:
    t0 = time.monotonic()
    panel = _load_panel(args)
    eig = eig_sym_desc(gram(panel))
    try:
        r = select_r_svt(panel, rmax=args.rmax, eig=eig).r_hat if args.r is None else args.r
        thr = threshold_value(panel.n_series, panel.n_periods, args.c)
        if r == 0:
            summary = {"threshold": None, "counts": [], "alpha_hat": [], "labels": [],
                       "note": "degenerate: no factors detected"}
        else:
            sp = screen(pc_fit(panel, r, eig=eig), thr)
            summary = sparse_summary(sp, panel.n_series, args.c)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    files = {"strengths.json": json.dumps(summary, indent=2) + "\n"}
    resolved = {"data": args.data, "orientation": args.orientation, "r": r,
                "rmax": args.rmax, "c": args.c, "tcodes": args.tcodes}
    _write_outputs(Path(args.out), files, _manifest("strengths", resolved, None, t0))


def _cmd_rolling(args) -> None:
    t0 = time.monotonic()
    panel = _load_panel(args)
    methods = args.methods.split(",")
    try:
        result = rolling_analysis(panel, window=args.window, methods=methods, rmax=args.rmax,
                                  c_multiplier=args.c)
    except ValueError as exc:
        raise UserError(str(exc)) from None
    files = {"rolling.csv": rolling_to_csv(result)}
    resolved = {"data": args.data, "orientation": args.orientation, "window": args.window,
                "rmax": args.rmax, "methods": methods, "tcodes": args.tcodes}
    _write_outputs(Path(args.out), files, _manifest("rolling", resolved, None, t0))


def _cmd_heatmap(args) -> None:
    t0 = time.monotonic()
    panel = _load_panel(args)
    time_range = None
    if args.start is not None or args.end is not None:
        if args.start is None or args.end is None:
            raise UserError("--start and --end must be given together")
        time_range = (args.start, args.end)
    try:
        export = subperiod_heatmap(
            panel, time_range=time_range, rmax=args.rmax, r=args.r, c_multiplier=args.c
        )
    except ValueError as exc:
        raise UserError(str(exc)) from None
    files = {"heatmap.csv": heatmap_to_csv(export)}
    resolved = {"data": args.data, "orientation": args.orientation, "rmax": args.rmax,
                "start": args.start, "end": args.end, "tcodes": args.tcodes}
    _write_outputs(Path(args.out), files, _manifest("heatmap", resolved, None, t0))


def _add_data_flags(p) -> None:
    p.add_argument("--data", help="panel CSV path")
    p.add_argument("--orientation", default="series_in_rows",
                   choices=["series_in_rows", "series_in_columns"])
    p.add_argument("--tcodes", help="optional CSV of series,transform-code pairs")
    p.add_argument("--rmax", type=int, default=DEFAULT_RMAX)
    p.add_argument("--c", type=float, default=1.0, help="screening threshold multiplier")
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
    p.add_argument("--support-mode", dest="support_mode",
                   choices=["random", "contiguous"])
    p.add_argument("--standardize", action="store_const", const=True, default=None)
    p.add_argument("--reps", type=int)
    p.add_argument("--rmax", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--tasks", help="comma-separated subset of "
                                   "wz,bn,ed,ah,fit,sparsity,rotation")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate, contiguous_ranges=None)

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostic; map its exit 2 onto "user error"
        return 0 if not exc.code else 1
    try:
        args.func(args)
        return 0
    except (UserError, SparseFactorsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
