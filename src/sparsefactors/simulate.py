"""Synthetic weak-factor panels and the seeded replication harness.

The data-generating process: factor 1 is a Gaussian AR(1) with coefficient
0.5 (initialized at its stationary law and burned in for 100 periods); factor k >= 2 equals
``(-0.8)^k`` times factor 1 plus an independent standard normal. Loadings
are iid N(0,1) on a support of exactly ``floor(N^alpha_k)`` units per factor
(an N x r boolean mask), uniformly random or given as ``contiguous_ranges``,
zero elsewhere. Errors have unit-variance Student-t(5) marginals mixed through
the blockwise Cholesky factor of a block-diagonal covariance: 4 x 4 identity blocks except
``floor(N^0.3)`` randomly chosen blocks with Toeplitz ``0.5^|m-n|`` correlation.

The panel is built in one N x T array: the common component ``Lambda0 F0'``, to which
the errors are added as they are drawn, 64 rows at a time. It is handed to its
:class:`~sparsefactors.panel.Panel` without a copy, so a raw draw holds one N x T array.

Every draw is a pure function of ``(seed, shape parameters)``: replication i
derives its generator streams from ``(seed, i, stream_id)``, so it is the same
on any thread. A batch maps whole replications (draw, estimate, metrics) over a
pool of threads with the BLAS on one thread, so it aggregates identically for
any pool size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from . import _blas, metrics as met
from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, METHODS, check_rmax
from .panel import Panel, _standardized
from .screening import DEFAULT_C, estimate, symm_diff_ratio, threshold_value

_STREAM_FACTORS = 0
_STREAM_LOADINGS = 1
_STREAM_ERRORS = 2
_BURN_IN = 100  # periods of factor 1's AR(1) drawn and discarded before the T kept

ALL_TASKS = frozenset(METHODS) | {"fit", "sparsity", "rotation"}


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated design, checked on construction.

    ``alpha`` must be nonincreasing with every entry in (0.5, 1]. Supports
    are uniformly random unless ``contiguous_ranges`` gives per-factor
    (start, stop) index ranges (half-open, 0-based), whose lengths must equal
    ``floor(N^alpha_k)``. ``seed`` is a non-negative integer.

    ``standardize`` controls whether the simulated panel is standardized
    per series before estimation; the default (False) matches the scale on
    which the reference Monte Carlo tables are reproducible.
    """

    N: int
    T: int
    r: int
    alpha: tuple
    seed: int
    contiguous_ranges: tuple | None = None
    standardize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if self.N < 4:  # gen_errors' minimum; a negative N would make N**alpha complex below
            raise InvalidArgumentError(f"N must be at least 4, got {self.N}")
        if self.r < 1:
            raise InvalidArgumentError(f"r must be positive, got {self.r}")
        if len(self.alpha) != self.r:
            raise InvalidArgumentError(f"alpha has {len(self.alpha)} entries for r = {self.r}")
        if any(a2 > a1 for a1, a2 in zip(self.alpha, self.alpha[1:])):
            raise InvalidArgumentError("alpha must be nonincreasing")
        if any(not 0.5 < a <= 1.0 for a in self.alpha):
            raise InvalidArgumentError("every alpha must lie in (0.5, 1]")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.standardize, bool):
            raise InvalidArgumentError(f"standardize must be true or false, got {self.standardize!r}")
        if self.contiguous_ranges is not None:
            _check_ranges(self.N, self.alpha, self.contiguous_ranges)


@dataclass(frozen=True)
class SimTruth:
    """Ground truth behind one simulated panel, in factored form.

    The common component ``Lambda0 @ F0.T`` is not stored: the metrics read the
    r-column factors and loadings, and ``support0`` is their N x r support mask.
    ``scale`` is the per-series standard deviation removed by standardization
    (ones for a raw panel).
    """

    F0: np.ndarray
    Lambda0: np.ndarray
    support0: np.ndarray
    scale: np.ndarray
    standardized: bool = False

    def on_estimation_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """(loadings, factors) whose product is the common component on the estimation scale:
        ``(Lambda0, F0)`` raw, ``(Lambda0 / scale, F0 - mean_t F0)`` standardized, since
        centring each series of ``Lambda0 F0'`` over time centres the factors."""
        if not self.standardized:
            return self.Lambda0, self.F0
        return self.Lambda0 / self.scale[:, None], self.F0 - self.F0.mean(axis=0)


def _rng(seed_entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(seed_entropy)))


def support_size(n: int, alpha: float) -> int:
    return int(math.floor(n**alpha))


def _check_ranges(n: int, alpha, ranges) -> None:
    """Require one integer (start, stop) within [0, N] per factor, of length ``floor(N^alpha_k)``."""
    if len(ranges) != len(alpha):
        raise InvalidArgumentError(
            f"contiguous_ranges has {len(ranges)} entries for {len(alpha)} factors")
    for k, (a, rg) in enumerate(zip(alpha, ranges)):
        m = support_size(n, a)
        if not (len(rg) == 2 and all(isinstance(i, (int, np.integer)) for i in rg)
                and 0 <= rg[0] and rg[1] <= n and rg[1] - rg[0] == m):
            raise InvalidArgumentError(f"contiguous_ranges[{k}] must be integers (start, stop) "
                                       f"within [0, {n}], expected {m} units, got {rg}")


def gen_factors(t: int, r: int, seed) -> np.ndarray:
    """T x r factor paths: AR(1) leader plus correlated followers.

    ``seed`` is a tuple of non-negative integers, the entropy of the random stream.
    """
    rng = _rng(seed)
    innov = rng.standard_normal(_BURN_IN + t)
    f1 = [rng.normal(0.0, math.sqrt(4.0 / 3.0))]  # stationary start, var 1/(1-0.25)
    for v in innov[1:].tolist():  # Python floats: the same arithmetic without numpy's scalar overhead
        f1.append(0.5 * f1[-1] + v)
    out = np.empty((t, r))
    out[:, 0] = f1[_BURN_IN:]
    for k in range(2, r + 1):
        out[:, k - 1] = (-0.8) ** k * out[:, 0] + rng.standard_normal(t)
    return out


def gen_loadings(n: int, alpha, seed, ranges=None):
    """N x r sparse loading matrix plus its N x r boolean support mask.

    Each factor's support has exactly ``floor(N^alpha_k)`` units, chosen
    uniformly without replacement (independently across factors), or taken
    verbatim from ``ranges``, one (start, stop) per factor, when it is given;
    nonzero entries are iid standard normal. ``seed`` is a tuple of
    non-negative integers, the entropy of the random stream.
    """
    alpha = tuple(float(a) for a in alpha)
    r = len(alpha)
    if ranges is not None:
        _check_ranges(n, alpha, ranges)
    rng = _rng(seed)
    lam = np.zeros((n, r))
    support = np.zeros((n, r), dtype=bool)
    for k, a in enumerate(alpha):
        m = support_size(n, a)
        if ranges is not None:
            idx = np.arange(*ranges[k])
        else:
            idx = rng.choice(n, size=m, replace=False)
        lam[idx, k] = rng.standard_normal(m)
        support[idx, k] = True  # from the indices: a drawn loading may be 0.0
    return lam, support


def toeplitz_block() -> np.ndarray:
    idx = np.arange(4)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def gen_errors(n: int, t: int, seed):
    """N x T idiosyncratic errors and the start rows of their correlated 4 x 4 blocks.

    Innovations are Student-t(5) scaled by sqrt(3/5) to unit variance. The rows of the
    ``floor(N^0.3)`` correlated blocks are mixed through the Cholesky factor of the Toeplitz
    block; all other rows, the trailing N mod 4 among them, are left unmixed (identity
    blocks). ``seed`` is a tuple of non-negative integers, the entropy of the random stream.
    """
    e = np.full((n, t), -0.0)  # -0.0 + v is v, bit for bit, for every v
    return e, _add_errors(e, seed)


def _add_errors(x: np.ndarray, seed) -> tuple:
    """Add ``gen_errors``' N x T errors to ``x`` in place and return their block starts. They
    are drawn, scaled and mixed 64 rows at a time (a correlated block never straddles two
    draws), bit for bit the values of one whole draw, and no N x T array of them is held."""
    n, t = x.shape
    if n < 4:
        raise InvalidArgumentError(f"N must be at least 4, got {n}")
    rng = _rng(seed)
    n_full = n // 4
    n_corr = int(math.floor(n**0.3))
    chosen = rng.choice(n_full, size=min(n_corr, n_full), replace=False)
    starts = tuple(4 * b for b in sorted(chosen.tolist()))
    chol = np.linalg.cholesky(toeplitz_block())
    for lo in range(0, n, 64):
        e = rng.standard_t(5, size=(min(64, n - lo), t))
        e *= math.sqrt(3.0 / 5.0)
        for s in starts:
            if lo <= s < lo + 64:
                e[s - lo : s - lo + 4] = chol @ e[s - lo : s - lo + 4]
        x[lo : lo + len(e)] += e
    return starts


@lru_cache(maxsize=8)
def _labels(prefix: str, count: int) -> tuple:
    """``prefix`` followed by 1, 2, ..., ``count`` zero-padded to three digits. Built once per
    design: formatting them is pure Python, which a drawing thread would run under the GIL
    that the estimating threads need."""
    return tuple(f"{prefix}{i + 1:03d}" for i in range(count))


def simulate_panel(config: SimConfig, rep: int = 0) -> tuple[Panel, SimTruth]:
    """Assemble one panel ``X = Lambda0 F0' + e`` from independent sub-streams.

    The three generators draw from streams derived deterministically from
    ``(config.seed, rep, stream_id)``; the same seed always reproduces the
    same panel bit-for-bit.
    """
    base = (config.seed, rep)
    f0 = gen_factors(config.T, config.r, (*base, _STREAM_FACTORS))
    lam0, support0 = gen_loadings(config.N, config.alpha, (*base, _STREAM_LOADINGS),
                                  config.contiguous_ranges)
    x = lam0 @ f0.T  # the common component, to which the errors are added in place
    _add_errors(x, (*base, _STREAM_ERRORS))
    panel = Panel._adopt(x, _labels("s", config.N), _labels("t", config.T))
    scale = np.ones(config.N)
    if config.standardize:
        values, scale = _standardized(panel)
        panel = Panel._adopt(values, panel.series_ids, panel.time_ids)
    truth = SimTruth(F0=f0, Lambda0=lam0, support0=support0, scale=scale,
                     standardized=config.standardize)
    return panel, truth


def _replicate(config, tasks, rmax, c, rep) -> met.ReplicationRecord:
    """The record of replication ``rep``, which the calling thread draws and estimates."""
    rec = met.ReplicationRecord(rep=rep)
    try:  # a failed draw or estimate is this replication's error cell, not a batch abort
        panel, truth = simulate_panel(config, rep)
        return _replicate_inner(config, panel, truth, tasks, rmax, c, rec)
    except Exception as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _replicate_inner(config, panel, truth, tasks, rmax, c, rec) -> met.ReplicationRecord:
    est = estimate(panel, config.r, [m for m in METHODS if m in tasks], rmax=rmax, c=c)
    rec.r_hat = {m: res.r_hat for m, res in est.counts.items()}
    if not tasks & {"fit", "sparsity", "rotation"}:
        return rec  # est.fit unread: no fit, so r may exceed min(N, T) here
    fit = est.fit
    if "fit" in tasks:
        lam0, f0 = truth.on_estimation_scale()
        rec.tr_f = met.trace_stat_f(f0, fit.factors)
        rec.tr_lambda = met.trace_stat_lambda(lam0, fit.loadings)
        rec.rmse_c = met.rmse_c(lam0, f0, fit.loadings, fit.factors)
        rec.eigvals = tuple(float(v) for v in fit.eigvals)
    if "sparsity" in tasks:
        support = est.sparse.support
        rec.alpha_hat = est.strength.alpha_hat
        rec.fdr, rec.power = met.fdr_power(truth.support0, support)
        rec.sym_diff = symm_diff_ratio(truth.support0, support, config.alpha)
        rec.fdr_overall, rec.power_overall = met.pooled_fdr_power(truth.support0, support)
    if "rotation" in tasks:
        _, summary = met.rotation_q(fit.factors, truth.F0)
        rec.q_lower_abs = summary["lower_abs"]
        rec.q_min_sv = summary["min_singular_value"]
    return rec


def run_replications(
    config: SimConfig,
    R: int,
    tasks=ALL_TASKS,
    rmax: int = DEFAULT_RMAX,
    c_multiplier: float = DEFAULT_C,
    workers: int = 1,
) -> met.MetricsReport:
    """Run R seeded replications of the requested estimators and aggregate.

    ``tasks`` is a subset of :data:`ALL_TASKS`: the factor-count rules of
    :data:`~sparsefactors.factor_count.METHODS` plus "fit", "sparsity" and
    "rotation". Replication i always uses streams derived from
    ``(config.seed, i)``, and the whole batch runs with the BLAS on one thread
    (restored afterwards), so the report is identical for any worker count.
    Each of ``workers`` threads draws and estimates whole replications.
    ``workers`` has a floor of two, so that one replication's draw overlaps
    another's estimate (``workers=1`` runs two threads), and is capped by the
    usable CPUs and by R: one usable CPU or R = 1 runs one thread.
    ``report.run`` records the threads used and the BLAS thread count the
    replications ran on (None when the BLAS is not recognised).
    """
    if R < 1:
        raise InvalidArgumentError(f"R must be positive, got {R}")
    if rmax < 1:
        raise InvalidArgumentError(f"rmax must be positive, got {rmax}")
    if workers < 1:
        raise InvalidArgumentError(f"workers must be positive, got {workers}")
    tasks = frozenset(tasks)
    unknown = tasks - ALL_TASKS
    if unknown:
        raise InvalidArgumentError(f"unknown tasks {sorted(unknown)}; choose from {sorted(ALL_TASKS)}")
    if counts := tasks & set(METHODS):
        check_rmax(counts, rmax, config.N, config.T)
    n_min = min(config.N, config.T)  # the fit reads r factors
    if tasks - counts and config.r > n_min:
        raise InvalidArgumentError(f"r must be at most min(N, T) = {n_min}, got {config.r}")
    threshold_value(config.N, config.T, c_multiplier)  # a bad c fails before any replication
    replicate = partial(_replicate, config, tasks, rmax, c_multiplier)
    records, run = _blas.pinned_map(replicate, range(R), max(workers, 2))
    agg = met.aggregate(records, config.r, config.alpha)
    report_config = {**asdict(config), "rmax": rmax, "c_multiplier": c_multiplier,
                     "tasks": sorted(tasks)}
    return met.MetricsReport(config=report_config, per_rep=records, aggregates=agg, run=run)

