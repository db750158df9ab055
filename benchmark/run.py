#!/usr/bin/env python3
"""sparsefactors benchmark: Monte Carlo throughput, the rolling CLI, and a traced per-layer run.

Run from the repository root (it imports the package from ``src/`` of the
same checkout and sets no BLAS or OpenMP thread variable)::

    python3 benchmark/run.py --workload mc_square --seed 1 --seconds 30 --trace 0

Workloads (see ``benchmark/README.md`` for why each exists):

* ``mc_square``   -- ``run_replications`` at N = T = 400, ``workers=1``;
* ``mc_wide``     -- ``run_replications`` at N = 100, T = 1000, ``workers=1``;
* ``rolling_cli`` -- ``sparsefactors rolling`` through ``run_cli`` on a
  248 x 260 panel CSV written by the benchmark, window 120.

Every workload is a closed loop in one process: the next unit (one batch of
replications, or one CLI invocation) starts when the previous one finished.
Every unit's output is checked. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` measures half the time untraced and half with every layer's
public functions wrapped (see ``tracer.py``), and reports per-layer metrics;
on ``mc_square`` a third of it goes to untraced ``workers=2`` batches for the
pool speedup. The exit status is 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, installed_wrappers, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_spans"

# the documented data-generating process, all estimators
R_TRUE = 3
ALPHA = (0.9, 0.75, 0.6)
RMAX = 8
SETUP_PROBES = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (span name, module, attribute): each layer's public functions, traced at every site holding them
TRACED = (
    ("panel.ingest_csv", "panel", "ingest_csv"),
    ("panel.standardize", "panel", "standardize"),
    ("pca.gram", "pca", "gram"),
    ("pca.eig_sym_desc", "pca", "eig_sym_desc"),
    ("pca.pc_fit", "pca", "pc_fit"),
    ("factor_count.wz", "factor_count", "select_r_svt"),
    ("factor_count.bn", "factor_count", "select_r_icp1"),
    ("factor_count.ed", "factor_count", "select_r_ed"),
    ("factor_count.ah", "factor_count", "select_r_ah"),
    ("screening.screen", "screening", "screen"),
    ("screening.strengths", "screening", "strengths"),
    ("screening.symm_diff_ratio", "screening", "symm_diff_ratio"),
    ("simulate.gen_factors", "simulate", "gen_factors"),
    ("simulate.gen_loadings", "simulate", "gen_loadings"),
    ("simulate.gen_errors", "simulate", "gen_errors"),
    ("simulate.simulate_panel", "simulate", "simulate_panel"),
    ("simulate.run_replications", "simulate", "run_replications"),
    ("metrics.trace_stat_f", "metrics", "trace_stat_f"),
    ("metrics.trace_stat_lambda", "metrics", "trace_stat_lambda"),
    ("metrics.rmse_c", "metrics", "rmse_c"),
    ("metrics.fdr_power", "metrics", "fdr_power"),
    ("metrics.pooled_fdr_power", "metrics", "pooled_fdr_power"),
    ("metrics.rotation_q", "metrics", "rotation_q"),
    ("metrics.aggregate", "metrics", "aggregate"),
    ("rolling.rolling_analysis", "rolling", "rolling_analysis"),
    ("rolling.rolling_to_csv", "rolling", "rolling_to_csv"),
    ("cli.run_cli", "cli", "run_cli"),
)
PER_REP_METRIC_SPANS = tuple(
    name for name, _, _ in TRACED if name.startswith("metrics.") and name != "metrics.aggregate"
)


def _count_gram(args, kwargs, result):
    # computed multiply-adds of the Gram product: the panel's N*T times the output dimension
    n, t = (args[0] if args else kwargs["panel"]).values.shape
    return {"gram_flops": n * t * result.shape[0]}


def _count_eig(args, kwargs, result):
    return {"eig_dim_sum": len(result.values)}


COUNTERS = {"pca.gram": _count_gram, "pca.eig_sym_desc": _count_eig}


class Package:
    """The sparsefactors modules of this checkout, imported from ``src/``, by layer name."""

    def __init__(self):
        if not (SRC / "sparsefactors" / "__init__.py").is_file():
            raise SystemExit(f"benchmark: no sparsefactors sources under {SRC}; run from a full checkout")
        sys.path.insert(0, str(SRC))
        import sparsefactors

        if Path(sparsefactors.__file__).resolve().parent != SRC / "sparsefactors":
            raise SystemExit(f"benchmark: imported sparsefactors from {sparsefactors.__file__}, not {SRC}")
        for layer in sorted({mod for _, mod, _ in TRACED}):
            setattr(self, layer, importlib.import_module(f"sparsefactors.{layer}"))

    def modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "sparsefactors"]

    def targets(self) -> list:
        return [
            (name, getattr(getattr(self, mod), attr), COUNTERS.get(name))
            for name, mod, attr in TRACED
        ]

    def assert_untraced(self) -> None:
        left = installed_wrappers(self.modules())
        if left:
            raise RuntimeError(f"tracing wrappers still installed: {left}")


class MonteCarlo:
    """Closed loop over seeded ``run_replications`` batches of one design, ``workers=1``.

    With ``pool_probe`` the traced run also times untraced batches with
    ``workers=2`` for ``simulate.pool.speedup``; their aggregates must equal
    the serial ones (the documented workers-invariance).
    """

    unit_name = "replication"

    def __init__(self, n, t, batch, pool_probe=False):
        self.n, self.t, self.batch, self.pool_probe = n, t, batch, pool_probe
        self.workers = 1
        self.reference = None  # canonical aggregates of the first measured batch
        self.accuracy = None

    def setup(self, pkg: Package, seed: int, tmp: Path) -> None:
        self.pkg = pkg
        self.config = pkg.simulate.SimConfig(N=self.n, T=self.t, r=R_TRUE, alpha=ALPHA, seed=seed)
        self.unit(reps=1)  # warm-up

    def work_per_unit(self) -> int:
        return self.batch

    def unit(self, reps=None):
        return self.pkg.simulate.run_replications(
            self.config, reps or self.batch, rmax=RMAX, workers=self.workers
        )

    def check(self, report) -> int:
        """Failed replications in one batch; the whole batch fails if its aggregates differ
        from the first batch's (same seed, so they must be identical)."""
        agg = report.aggregates
        canon = json.dumps(agg, sort_keys=True)
        if self.reference is None:
            self.reference = canon
            self.accuracy = agg["mean_tr_f"]
        failed = sum(rec.error is not None for rec in report.per_rep)
        return self.batch if canon != self.reference else failed

    def final_check(self) -> tuple[int, int]:
        """Nothing beyond the per-batch checks."""
        return 0, 0

    def with_workers(self, workers: int) -> "MonteCarlo":
        """The same design, seed and reference aggregates run with ``workers`` processes."""
        clone = MonteCarlo(self.n, self.t, self.batch)
        clone.pkg, clone.config, clone.workers = self.pkg, self.config, workers
        clone.reference, clone.accuracy = self.reference, self.accuracy
        return clone


class RollingCli:
    """Closed loop over ``sparsefactors rolling`` invocations through ``run_cli``."""

    unit_name = "window"

    def __init__(self, n, t, window, methods):
        self.n, self.t, self.window, self.methods = n, t, window, methods
        self.reference = None
        self.accuracy = None

    def setup(self, pkg: Package, seed: int, tmp: Path) -> None:
        self.pkg = pkg
        self.data = tmp / "panel.csv"
        self.out = tmp / "roll"
        self.data_bytes = write_panel_csv(self.data, self.n, self.t, seed)
        self.argv = [
            "rolling", "--data", str(self.data), "--window", str(self.window),
            "--rmax", str(RMAX), "--methods", ",".join(self.methods), "--out", str(self.out),
        ]
        self.check(self.unit())  # warm-up; its rolling.csv is the byte reference

    def work_per_unit(self) -> int:
        return self.t - self.window + 1

    def unit(self):
        return self.pkg.cli.run_cli(self.argv)

    def check(self, status) -> int:
        """Windows of one invocation, all failed on a non-zero exit or different bytes."""
        try:
            produced = (self.out / "rolling.csv").read_bytes()
        except FileNotFoundError:
            produced = None
        if self.reference is None and status == 0 and produced is not None:
            self.reference = produced
            self.accuracy = rolling_accuracy(produced.decode("utf-8"))
        ok = status == 0 and produced == self.reference
        return 0 if ok else self.work_per_unit()

    def final_check(self) -> tuple[int, int]:
        """The CLI's bytes must equal the same pipeline called in-process."""
        panel, rolling = self.pkg.panel, self.pkg.rolling
        with open(self.data, "rb") as fh:
            data, _ = panel.ingest_csv(fh)
        result = rolling.rolling_analysis(
            panel.standardize(data), window=self.window, methods=self.methods, rmax=RMAX
        )
        same = rolling.rolling_to_csv(result).encode("utf-8") == self.reference
        return self.work_per_unit(), 0 if same else self.work_per_unit()


WORKLOADS = {
    # batch sizes keep one unit near 0.5 s, so a run holds dozens of units
    "mc_square": lambda: MonteCarlo(400, 400, batch=8, pool_probe=True),
    "mc_wide": lambda: MonteCarlo(100, 1000, batch=3),
    "rolling_cli": lambda: RollingCli(248, 260, window=120, methods=("wz", "bn", "ed")),
}


def write_panel_csv(path: Path, n: int, t: int, seed: int) -> int:
    """Write an N x T panel CSV (series in rows, a group column, quarterly labels).

    The draws follow the documented DGP (AR(1) leader factor, correlated
    followers, exact ``floor(N^alpha)`` supports, unit-variance t(5) errors)
    but come from the benchmark's own generator, so the rolling workload's
    input does not change when the package's simulator does. Returns the size
    in bytes.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 2305])
    burn = 100
    f1 = np.zeros(burn + t)
    shocks = rng.standard_normal(burn + t)
    for s in range(1, burn + t):
        f1[s] = 0.5 * f1[s - 1] + shocks[s]
    f = np.empty((t, R_TRUE))
    f[:, 0] = f1[burn:]
    for k in range(2, R_TRUE + 1):
        f[:, k - 1] = (-0.8) ** k * f[:, 0] + rng.standard_normal(t)
    lam = np.zeros((n, R_TRUE))
    for k, a in enumerate(ALPHA):
        m = int(math.floor(n**a))
        lam[rng.choice(n, size=m, replace=False), k] = rng.standard_normal(m)
    x = lam @ f.T + rng.standard_t(5, size=(n, t)) * math.sqrt(3.0 / 5.0)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["series", "group"] + [f"{1959 + q // 4}Q{q % 4 + 1}" for q in range(t)])
    for i, row in enumerate(x):
        w.writerow([f"S{i + 1:03d}", 1 + 13 * i // n] + [repr(float(v)) for v in row])
    data = buf.getvalue().encode("utf-8")
    path.write_bytes(data)
    return len(data)


def rolling_accuracy(text: str) -> float:
    """One minus the mean ``|alpha_hat_k - alpha_k|`` over every window of rolling.csv.

    Each window's strengths are sorted nonincreasing, as are the true ones, so
    the k-th estimate is paired with the k-th true strength for k up to
    ``min(r_hat, r)``. Reads 0 when no window has an estimate.
    """
    errors = []
    for row in csv.DictReader(io.StringIO(text)):
        estimates = [float(row[f"alpha_{k + 1}"]) for k in range(R_TRUE) if row.get(f"alpha_{k + 1}")]
        errors += [abs(a - b) for a, b in zip(estimates, ALPHA)]
    return 1.0 - statistics.fmean(errors) if errors else 0.0


def closed_loop(work, seconds: float):
    """Run ``work.unit`` back to back for ``seconds``; returns unit times and failed work."""
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        out = work.unit()
        times.append(time.perf_counter() - t0)
        failed += work.check(out)
    return times, failed


def high_percentile(values) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it (median if none)."""
    n = len(values)
    q = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    ordered = sorted(values)
    return q, ordered[min(n - 1, math.ceil(q / 100 * n) - 1)]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the package, generate the inputs and run one warm-up unit."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchtmp-") as tmp:
        t0 = time.perf_counter()
        WORKLOADS[workload]().setup(Package(), seed, Path(tmp))
        return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """``SETUP_PROBES`` set-ups, each in a fresh interpreter so the import is cold."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mib() -> float:
    """Peak resident memory of this process (the end-to-end runs start no workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine and library facts that shape the numbers, recorded as found."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
    }


def per_layer(tracer: Tracer, units: int, csv_bytes: int) -> dict:
    """Per-unit layer metrics from the traced spans and counters (0 where a layer did not run)."""
    table = summarize(tracer.spans)

    def stat(name, key):
        return table.get(name, {}).get(key, 0)

    def ms(name):
        return stat(name, "total_s") * 1e3 / units

    def self_ms(name):
        return stat(name, "self_s") * 1e3 / units

    eig_calls = stat("pca.eig_sym_desc", "calls")
    ingest_s = stat("panel.ingest_csv", "total_s")
    return {
        "simulate.gen_errors.ms": ms("simulate.gen_errors"),
        "simulate.gen_factors.ms": ms("simulate.gen_factors"),
        "simulate.gen_loadings.ms": ms("simulate.gen_loadings"),
        "simulate.simulate_panel.self_ms": self_ms("simulate.simulate_panel"),
        "pca.eig_sym_desc.ms": ms("pca.eig_sym_desc"),
        "pca.eig_sym_desc.dim": tracer.counts.get("eig_dim_sum", 0) / eig_calls if eig_calls else 0,
        "pca.gram.ms": ms("pca.gram"),
        "pca.gram.flops": tracer.counts.get("gram_flops", 0) / units,
        "pca.pc_fit.calls": stat("pca.pc_fit", "calls") / units,
        "pca.pc_fit.self_ms": self_ms("pca.pc_fit"),
        "factor_count.wz.self_ms": self_ms("factor_count.wz"),
        "factor_count.bn.self_ms": self_ms("factor_count.bn"),
        "factor_count.ed.self_ms": self_ms("factor_count.ed"),
        "factor_count.ah.self_ms": self_ms("factor_count.ah"),
        "screening.screen.ms": ms("screening.screen"),
        "screening.strengths.ms": ms("screening.strengths"),
        "metrics.self_ms": sum(self_ms(name) for name in PER_REP_METRIC_SPANS),
        "metrics.aggregate.ms": ms("metrics.aggregate"),
        "panel.ingest_csv.ms": ms("panel.ingest_csv"),
        "panel.ingest_csv.mb_per_s": (
            csv_bytes * stat("panel.ingest_csv", "calls") / ingest_s / 1e6 if ingest_s else 0
        ),
        "panel.standardize.ms": ms("panel.standardize"),
        "rolling.rolling_analysis.self_ms": self_ms("rolling.rolling_analysis"),
        "rolling.rolling_to_csv.ms": ms("rolling.rolling_to_csv"),
        "cli.run_cli.self_ms": self_ms("cli.run_cli"),
        "simulate.run_replications.unattributed_ms": self_ms("simulate.run_replications"),
    }


UNITS = {
    "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB", "accuracy": "share",
    "pca.eig_sym_desc.dim": "count", "pca.gram.flops": "count", "pca.pc_fit.calls": "count",
    "panel.ingest_csv.mb_per_s": "MB/s", "simulate.pool.speedup": "ratio",
    "trace.overhead_share": "share",
}


def rate(work, times) -> float:
    return work.work_per_unit() / statistics.median(times)


def run(args) -> int:
    pkg = Package()
    work = WORKLOADS[args.workload]()
    print("environment " + json.dumps(environment(), sort_keys=True))
    tally = {"attempted": 0, "failed": 0}

    def loop(w, seconds):
        times, bad = closed_loop(w, seconds)
        tally["attempted"] += len(times) * w.work_per_unit()
        tally["failed"] += bad
        return times

    samples, setups = {}, None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchtmp-") as tmp:
        work.setup(pkg, args.seed, Path(tmp))
        pkg.assert_untraced()
        if not args.trace:
            samples["untraced"] = loop(work, args.seconds)
        else:
            pooled = getattr(work, "pool_probe", False)
            share = args.seconds / (3 if pooled else 2)
            samples["untraced"] = loop(work, share)
            if pooled:
                samples["untraced_pool"] = loop(work.with_workers(2), share)
            tracer = Tracer()
            with tracer:
                tracer.install(pkg.targets(), pkg.modules())
                samples["traced"] = loop(work, share)
            pkg.assert_untraced()
        checked, bad = work.final_check()
        tally["attempted"] += checked
        tally["failed"] += bad

    if not args.trace:
        rss = peak_rss_mib()
        setups = setup_seconds(args.workload, args.seed)
        metrics = {
            "units_per_s": rate(work, samples["untraced"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "accuracy": work.accuracy,
        }
    else:
        metrics = per_layer(
            tracer, len(samples["traced"]) * work.work_per_unit(), getattr(work, "data_bytes", 0)
        )
        metrics["simulate.pool.speedup"] = (
            rate(work, samples["untraced_pool"]) / rate(work, samples["untraced"])
            if "untraced_pool" in samples else 0
        )
        metrics["trace.overhead_share"] = (
            statistics.fmean(samples["traced"]) / statistics.fmean(samples["untraced"]) - 1.0
        )
        dump_spans(tracer, args)

    attempted, failed = tally["attempted"], tally["failed"]
    report_lines(args, work, samples, metrics, attempted, failed, setups)
    correct = failed == 0 and work.accuracy is not None
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "ms")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def report_lines(args, work, samples, metrics, attempted, failed, setups) -> None:
    per = work.work_per_unit()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}; "
          f"one unit = {per} {work.unit_name}s")
    for phase, times in samples.items():
        q, tail = high_percentile(times)
        print(f"  {phase}: {len(times)} units, unit time median {statistics.median(times):.4f} s, "
              f"p{q} {tail:.4f} s -> {per / statistics.median(times):.3f} {work.unit_name}s/s")
    if setups:
        print(f"  setup_s samples ({len(setups)} fresh processes): "
              + ", ".join(f"{s:.4f}" for s in setups))
    if not args.trace:
        label = "reps_per_s" if work.unit_name == "replication" else "windows_per_s"
        accuracy = "tr_f_mean" if work.unit_name == "replication" else "strength_score"
        print(f"  {label} = units_per_s = {metrics['units_per_s']:.4f} 1/s; "
              f"{accuracy} = accuracy = {metrics['accuracy']}")
    print(f"  failed_share = {failed / attempted if attempted else 0:.4f} ({failed} of {attempted} "
          f"{work.unit_name}s)")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {UNITS.get(name, 'ms')}")


def dump_spans(tracer: Tracer, args) -> None:
    """Write the traced run's raw spans, then a per-name summary to stderr."""
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"{args.workload}-seed{args.seed}.json"
    rows = [[sp.name, sp.start, sp.end, sp.parent] for sp in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}))
    for name, row in sorted(summarize(tracer.spans).items()):
        print(f"span {name:32s} calls {row['calls']:7d} total {row['total_s']:9.4f} s "
              f"self {row['self_s']:9.4f} s", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
