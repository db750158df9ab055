"""Command-line entry point.

Subcommands: ``simulate``, ``estimate``, ``select-r``, ``strengths``,
``rolling``, ``heatmap``. ``simulate`` options can also come from a JSON
config file (``--config``), with command-line flags taking precedence.

Each command maps its arguments to its output files and the resolved
configuration; the two batch commands, ``simulate`` and ``rolling``, add how the
batch ran: ``workers``, the threads its replications or windows ran on, and the
BLAS thread count they ran on. ``simulate --workers`` is a thread count with a
floor of two, capped by the usable CPUs and by ``--reps``, so ``--workers 1``
runs, and records, two threads on a machine with two or more CPUs.
:func:`run_cli` alone writes them atomically (temp file + rename) together
with a ``manifest.json`` holding the resolved configuration, the seed
actually used, package versions, the BLAS vendor, its OpenBLAS core name and thread
count (None when the BLAS is not recognised), a batch's ``workers``, and wall time, and
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

from . import __version__, _blas
from .errors import InvalidArgumentError, SparseFactorsError
from .factor_count import DEFAULT_RMAX, METHODS, diagnostics_json, select_r
from .panel import VALID_TCODES, align_and_trim, csv_text, ingest_csv, standardize
from .pca import export_pc_fit
from .rolling import heatmap_to_csv, rolling_analysis, rolling_to_csv, subperiod_heatmap
from .screening import DEFAULT_C, estimate, sparse_summary
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


def _manifest(subcommand: str, resolved: dict, t0: float, run: dict | None = None) -> dict:
    """The manifest; a batch's ``run`` gives its workers and the BLAS count its units ran on."""
    return {
        "subcommand": subcommand,
        "config": resolved,
        "seed": resolved.get("seed"),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "sparsefactors": __version__},
        "blas": {"vendor": _blas.vendor(), "core": _blas.core(),
                 "threads": _blas.threads() if run is None else run["blas_threads"]},
        **({} if run is None else {"workers": run["workers"]}),
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


def _integer(value) -> int:
    """An integer flag or config value; a boolean or a number with a fractional part is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _real(value) -> float:
    """A real-number flag or config value; a boolean is refused."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


# simulate's options, each a config-file key and a flag (--burn-in for burn_in): key ->
# (converter of a flag or config-file value, None to pass it on as given for SimConfig to
# check; the flag's help, None for a key of the config file only). A key given neither as a
# flag nor in the config file takes its default (see _resolve), so an explicit 0 is kept.
_SIMULATE_OPTIONS = {
    "N": (_integer, "number of series"),
    "T": (_integer, "number of periods"),
    "r": (_integer, "number of factors"),
    "alpha": (lambda v: tuple(_real(a) for a in _items(v)),
              "comma-separated strengths, e.g. 0.9,0.75,0.6"),
    "seed": (_integer, "base seed (default: drawn and recorded in the manifest)"),
    "burn_in": (_integer, "burn-in periods of the factor AR(1)"),
    "standardize": (None, "standardize each simulated series before estimation"),
    "contiguous_ranges": (lambda v: tuple(tuple(rg) for rg in v), None),
    "reps": (_integer, "number of replications"),
    "rmax": (_integer, "largest factor count the selectors consider"),
    "c": (_real, "screening threshold multiplier"),
    "tasks": (lambda v: sorted(_items(v)),
              "comma-separated subset of " + ",".join(sorted(ALL_TASKS))),
    "workers": (_integer, "threads that each draw and estimate whole replications; at least 2 "
                          "are used, at most the usable CPUs and --reps (default 1)"),
}
# simulate's keys that are run_replications keywords, with the keyword each one fills
_RUN_KEYWORDS = {"rmax": "rmax", "c": "c_multiplier", "tasks": "tasks", "workers": "workers"}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values with flags (flags win), fill in defaults and convert each value.
    A config-file key that names no option is refused.

    The defaults are SimConfig's field defaults, run_replications' keyword defaults, and the
    CLI's own: 100 replications and a seed drawn per run (None here).
    """
    file_cfg = _load_config_file(args.config)
    unknown = sorted(set(file_cfg) - set(_SIMULATE_OPTIONS))
    if unknown:
        raise InvalidArgumentError(f"config file {args.config} has unknown key(s) "
                                   + ", ".join(map(repr, unknown)))
    run = inspect.signature(run_replications).parameters
    defaults = {**{f.name: f.default for f in fields(SimConfig) if f.default is not MISSING},
                **{key: run[keyword].default for key, keyword in _RUN_KEYWORDS.items()},
                "seed": None, "reps": 100}
    resolved = {}
    for key, (convert, _) in _SIMULATE_OPTIONS.items():
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
        for k, row in enumerate(reader):
            name = row[0].strip() if row else ""
            if not name or (k == 0 and name.lower() == "series"):  # a header is the first row only
                continue
            where = f"tcodes file {path}, row {reader.line_num}"
            if len(row) < 2:
                raise InvalidArgumentError(f"{where}: no transformation code")
            code = _convert(int, row[1], f"code in {where}")
            if code not in VALID_TCODES:
                raise InvalidArgumentError(f"{where}: code {code} is not in 1..7")
            if name in mapping:
                raise InvalidArgumentError(f"{where}: a second code for series {name!r}")
            mapping[name] = code
    except csv.Error as exc:
        raise InvalidArgumentError(f"tcodes file {path}, row {reader.line_num}: {exc}") from None
    missing = [s for s in series_ids if s not in mapping]
    if missing:
        raise InvalidArgumentError(
            f"tcodes file {path} has no code for {len(missing)} series (first: {missing[0]})"
        )
    return [mapping[s] for s in series_ids]


def _cmd_simulate(args) -> tuple[dict, dict, dict]:
    resolved = _resolve(args)
    if resolved["seed"] is None:
        resolved["seed"] = secrets.randbits(63)  # recorded in the manifest so the run is replayable
    config = SimConfig(**{f.name: resolved[f.name] for f in fields(SimConfig)})
    report = run_replications(config, resolved["reps"],
                              **{kw: resolved[key] for key, kw in _RUN_KEYWORDS.items()})
    files = {"report.json": json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"}
    files.update(_report_tables(report, config))
    return files, resolved, report.run


def _report_tables(report, config) -> dict:
    agg, nt = report.aggregates, [config.N, config.T]
    files = {}
    if agg.get("r_hat"):
        files["factor_counts.csv"] = csv_text(
            [["N", "T", "method", "rmse", "bias", "mean"]]
            + [nt + [m, s["rmse"], s["bias"], s["mean"]] for m, s in sorted(agg["r_hat"].items())]
        )
    if agg.get("mean_tr_f") is not None:
        files["estimation.csv"] = csv_text([
            ["N", "T", "tr_f", "tr_lambda", "rmse_c"],
            nt + [agg["mean_tr_f"], agg["mean_tr_lambda"], agg["mean_rmse_c"]],
        ])
    if agg.get("fdr") is not None:
        files["support_recovery.csv"] = csv_text(
            [["N", "T", "factor", "fdr", "power"]]
            + [nt + [k, f, p] for k, (f, p) in enumerate(zip(agg["fdr"], agg["power"]), start=1)]
            + [nt + ["overall", agg["mean_fdr_overall"], agg["mean_power_overall"]]]
        )
    if agg.get("alpha_hat") is not None:
        files["strengths.csv"] = csv_text(
            [["N", "T", "factor", "alpha_true", "rmse", "bias", "mean"]]
            + [nt + [k + 1, config.alpha[k], s["rmse"], s["bias"], s["mean"]]
               for k, s in enumerate(agg["alpha_hat"])]
        )
    return files


def _cmd_estimate(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    est = estimate(panel, args.r, rmax=args.rmax, c=args.c)
    if est.fit is None:
        raise SparseFactorsError("SVT rule detected no factors; pass --r to force a fit")
    tables = export_pc_fit(est.fit, panel)
    files = {
        "factors.csv": tables["factors"],
        "loadings.csv": tables["loadings"],
        "eigenvalues.csv": tables["eigenvalues"],
        "screened_loadings.csv": csv_text(
            [["series"] + [f"pc{k + 1}" for k in range(est.r)]]
            + [[name] + row for name, row in zip(panel.series_ids, est.sparse.lambda_hat.tolist())]
        ),
        "strengths.json": json.dumps(sparse_summary(est, args.c), indent=2) + "\n",
    }
    return files, _data_config(args, r=est.r)


def _cmd_select_r(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    methods = args.methods.split(",")
    results = select_r(panel, methods, rmax=args.rmax)
    files = {
        "r_hat.csv": csv_text([methods, [results[m].r_hat for m in methods]]),
        "diagnostics.json": json.dumps(diagnostics_json(results), indent=2, sort_keys=True) + "\n",
    }
    return files, _data_config(args, methods=methods)


def _cmd_strengths(args) -> tuple[dict, dict]:
    panel = _load_panel(args)
    est = estimate(panel, args.r, rmax=args.rmax, c=args.c)
    summary = json.dumps(sparse_summary(est, args.c), indent=2) + "\n"
    return {"strengths.json": summary}, _data_config(args, r=est.r)


def _cmd_rolling(args) -> tuple[dict, dict, dict]:
    panel = _load_panel(args)
    methods = args.methods.split(",")
    result = rolling_analysis(panel, window=args.window, methods=methods, rmax=args.rmax,
                              c_multiplier=args.c)
    files = {"rolling.csv": rolling_to_csv(result)}
    return files, _data_config(args, window=args.window, methods=methods), result.run


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
    for key, (_, help_) in _SIMULATE_OPTIONS.items():
        flag = "--" + key.replace("_", "-")  # a string, converted in _resolve like a config value
        if key == "standardize":
            p.add_argument(flag, action="store_const", const=True, help=help_)
        elif help_ is not None:
            p.add_argument(flag, help=help_)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="PC fit + screening on a panel CSV")
    _add_data_flags(p)
    p.add_argument("--r", type=int, help="number of factors (default: SVT-selected)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select-r", help="estimate the number of factors")
    _add_data_flags(p)
    p.add_argument("--methods", default=",".join(METHODS),
                   help="comma-separated subset of " + ",".join(METHODS))
    p.set_defaults(func=_cmd_select_r)

    p = sub.add_parser("strengths", help="screened factor strengths of a panel")
    _add_data_flags(p)
    p.add_argument("--r", type=int)
    p.set_defaults(func=_cmd_strengths)

    p = sub.add_parser("rolling", help="rolling-window factor counts and strengths")
    _add_data_flags(p)
    p.add_argument("--window", type=int, default=120, help="window length")
    p.add_argument("--methods", default="wz,bn,ed",
                   help="comma-separated subset of " + ",".join(METHODS))
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
        files, resolved, *run = args.func(args)  # run: how a batch ran
        _write_outputs(Path(args.out), files, _manifest(args.subcommand, resolved, t0, *run))
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
