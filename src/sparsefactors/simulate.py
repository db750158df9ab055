"""Synthetic weak-factor panels and the seeded replication harness.

The data-generating process: factor 1 is a Gaussian AR(1) with coefficient
0.5 (initialized at its stationary law and burned in); factor k >= 2 equals
``(-0.8)^k`` times factor 1 plus an independent standard normal. Loadings
are iid N(0,1) on a uniformly random support of exactly ``floor(N^alpha_k)``
units per factor, zero elsewhere. Errors have unit-variance Student-t(5)
marginals mixed through the blockwise Cholesky factor of a block-diagonal
covariance: 4 x 4 identity blocks except ``floor(N^0.3)`` randomly chosen
blocks with Toeplitz ``0.5^|m-n|`` correlation.

Every draw is a pure function of ``(seed, shape parameters)``: replication i
derives its generator streams from ``(seed, i, stream_id)``, so parallel and
serial runs aggregate identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import metrics as met
from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, SELECTORS, check_rmax
from .panel import Panel, standardize as _standardize_panel
from .pca import StandardizationWarning, decompose, pc_fit
from .screening import DEFAULT_C, screen, strengths, symm_diff_ratio, threshold_value

_STREAM_FACTORS = 0
_STREAM_LOADINGS = 1
_STREAM_ERRORS = 2

ALL_TASKS = frozenset(SELECTORS) | {"fit", "sparsity", "rotation"}


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated design, checked on construction.

    ``alpha`` must be nonincreasing with every entry in (0.5, 1]. Supports
    are uniformly random unless ``support_mode="contiguous"``, in which case
    ``contiguous_ranges`` gives per-factor (start, stop) index ranges
    (half-open, 0-based) whose lengths must equal ``floor(N^alpha_k)``.
    ``seed`` is a non-negative integer.

    ``standardize`` controls whether the simulated panel is standardized
    per series before estimation; the default (False) matches the scale on
    which the reference Monte Carlo tables are reproducible.
    """

    N: int
    T: int
    r: int
    alpha: tuple
    seed: int
    burn_in: int = 100
    support_mode: str = "random"
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
        if self.burn_in < 50:
            raise InvalidArgumentError(f"burn_in must be at least 50, got {self.burn_in}")
        if not isinstance(self.standardize, bool):
            raise InvalidArgumentError(f"standardize must be true or false, got {self.standardize!r}")
        if self.support_mode not in ("random", "contiguous"):
            raise InvalidArgumentError(
                f"support_mode must be 'random' or 'contiguous', got {self.support_mode!r}")
        if (self.support_mode == "contiguous") != (self.contiguous_ranges is not None):
            raise InvalidArgumentError("contiguous_ranges must be given exactly when support_mode='contiguous'")
        if self.contiguous_ranges is not None:
            _check_ranges(self.N, self.alpha, self.contiguous_ranges)


@dataclass(frozen=True)
class SimTruth:
    """Ground truth behind one simulated panel.

    ``loc``/``scale`` record the per-series location and scale removed by
    standardization (zeros and ones when the panel was left raw), so metrics
    can map the truth onto the scale the estimators saw.
    """

    F0: np.ndarray
    Lambda0: np.ndarray
    supports0: tuple
    C0: np.ndarray
    loc: np.ndarray
    scale: np.ndarray
    standardized: bool = False

    def on_estimation_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """(Lambda0, C0) mapped to the scale on which estimation ran."""
        if not self.standardized:
            return self.Lambda0, self.C0
        s = self.scale[:, None]
        lam = self.Lambda0 / s
        c0 = (self.C0 - self.C0.mean(axis=1, keepdims=True)) / s
        return lam, c0


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


def gen_factors(t: int, r: int, seed, burn_in: int = SimConfig.burn_in) -> np.ndarray:
    """T x r factor paths: AR(1) leader plus correlated followers.

    ``seed`` is a tuple of non-negative integers, the entropy of the random stream.
    """
    if burn_in < 50:
        raise InvalidArgumentError(f"burn_in must be at least 50, got {burn_in}")
    rng = _rng(seed)
    total = burn_in + t
    innov = rng.standard_normal(total)
    f1 = np.empty(total)
    f1[0] = rng.normal(0.0, math.sqrt(4.0 / 3.0))  # stationary start, var 1/(1-0.25)
    for s in range(1, total):
        f1[s] = 0.5 * f1[s - 1] + innov[s]
    out = np.empty((t, r))
    out[:, 0] = f1[burn_in:]
    for k in range(2, r + 1):
        out[:, k - 1] = (-0.8) ** k * out[:, 0] + rng.standard_normal(t)
    return out


def gen_loadings(n: int, alpha, seed, support_mode: str = SimConfig.support_mode, ranges=None):
    """N x r sparse loading matrix plus the r true support sets.

    Each factor's support has exactly ``floor(N^alpha_k)`` units, drawn
    uniformly without replacement (independently across factors) or taken
    verbatim from ``ranges`` in contiguous mode; nonzero entries are iid
    standard normal. ``seed`` is a tuple of non-negative integers, the
    entropy of the random stream.
    """
    alpha = tuple(float(a) for a in alpha)
    r = len(alpha)
    if support_mode == "contiguous":
        _check_ranges(n, alpha, ranges)
    rng = _rng(seed)
    lam = np.zeros((n, r))
    supports = []
    for k, a in enumerate(alpha):
        m = support_size(n, a)
        if support_mode == "contiguous":
            idx = np.arange(*ranges[k])
        else:
            idx = rng.choice(n, size=m, replace=False)
        lam[idx, k] = rng.standard_normal(m)
        supports.append(frozenset(int(i) for i in idx))
    return lam, tuple(supports)


def toeplitz_block(size: int = 4, rho: float = 0.5) -> np.ndarray:
    idx = np.arange(size)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gen_errors(n: int, t: int, seed):
    """N x T idiosyncratic errors and the block list of their covariance.

    Innovations are Student-t(5) scaled by sqrt(3/5) to unit variance and
    mixed blockwise through the Cholesky factor of Sigma_e. When N is not a
    multiple of 4 the trailing remainder block is an identity and is excluded
    from the correlated-block lottery. ``seed`` is a tuple of non-negative
    integers, the entropy of the random stream.
    """
    if n < 4:
        raise InvalidArgumentError(f"N must be at least 4, got {n}")
    rng = _rng(seed)
    n_full = n // 4
    n_corr = int(math.floor(n**0.3))
    chosen = set(rng.choice(n_full, size=min(n_corr, n_full), replace=False).tolist())
    toe = toeplitz_block()
    chol = np.linalg.cholesky(toe)
    z = rng.standard_t(5, size=(n, t)) * math.sqrt(3.0 / 5.0)
    e = z.copy()
    blocks = []
    for b in range(n_full):
        sl = slice(4 * b, 4 * b + 4)
        if b in chosen:
            e[sl] = chol @ z[sl]
            blocks.append((4 * b, toe.copy()))
        else:
            blocks.append((4 * b, np.eye(4)))
    if n % 4:
        blocks.append((4 * n_full, np.eye(n % 4)))
    return e, tuple(blocks)


def simulate_panel(config: SimConfig, rep: int = 0) -> tuple[Panel, SimTruth]:
    """Assemble one panel ``X = Lambda0 F0' + e`` from independent sub-streams.

    The three generators draw from streams derived deterministically from
    ``(config.seed, rep, stream_id)``; the same seed always reproduces the
    same panel bit-for-bit.
    """
    base = (config.seed, rep)
    f0 = gen_factors(config.T, config.r, (*base, _STREAM_FACTORS), config.burn_in)
    lam0, supports = gen_loadings(
        config.N,
        config.alpha,
        (*base, _STREAM_LOADINGS),
        support_mode=config.support_mode,
        ranges=config.contiguous_ranges,
    )
    e, _ = gen_errors(config.N, config.T, (*base, _STREAM_ERRORS))
    c0 = lam0 @ f0.T
    x = c0 + e
    panel = Panel(
        values=x,
        series_ids=tuple(f"s{i + 1:03d}" for i in range(config.N)),
        time_ids=tuple(f"t{s + 1:03d}" for s in range(config.T)),
    )
    loc = np.zeros(config.N)
    scale = np.ones(config.N)
    if config.standardize:
        loc = x.mean(axis=1)
        scale = x.std(axis=1, ddof=1)
        panel = _standardize_panel(panel)
    truth = SimTruth(
        F0=f0, Lambda0=lam0, supports0=supports, C0=c0,
        loc=loc, scale=scale, standardized=config.standardize,
    )
    return panel, truth


def _replicate(args) -> met.ReplicationRecord:
    config, rep, tasks, rmax, threshold = args
    rec = met.ReplicationRecord(rep=rep)
    try:
        with warnings.catch_warnings():
            # raw-scale estimation is a deliberate choice here, not an oversight
            warnings.simplefilter("ignore", StandardizationWarning)
            return _replicate_inner(config, rep, tasks, rmax, threshold, rec)
    except Exception as exc:  # failures are per-replication cells, not batch aborts
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _replicate_inner(config, rep, tasks, rmax, threshold, rec) -> met.ReplicationRecord:
    panel, truth = simulate_panel(config, rep=rep)
    eig = decompose(panel)
    for tag, select in SELECTORS.items():
        if tag in tasks:
            rec.r_hat[tag] = select(panel, rmax=rmax, eig=eig).r_hat
    if not tasks & {"fit", "sparsity", "rotation"}:
        return rec
    fit = pc_fit(panel, config.r, eig=eig)
    lam0_scaled, c0_scaled = truth.on_estimation_scale()
    if "fit" in tasks:
        rec.tr_f = met.trace_stat_f(truth.F0, fit.factors)
        rec.tr_lambda = met.trace_stat_lambda(lam0_scaled, fit.loadings)
        rec.rmse_c = met.rmse_c(c0_scaled, fit.common)
        rec.eigvals = tuple(float(v) for v in fit.eigvals)
    if "sparsity" in tasks:
        sp = screen(fit, threshold)
        rec.alpha_hat = strengths(sp, config.N).alpha_hat
        fdrs, powers, sds = [], [], []
        for k in range(config.r):
            fdp, pw = met.fdr_power(truth.supports0[k], sp.supports[k])
            fdrs.append(fdp)
            powers.append(pw)
            sds.append(
                symm_diff_ratio(truth.supports0[k], sp.supports[k], config.alpha[k], config.N)
            )
        rec.fdr = tuple(fdrs)
        rec.power = tuple(powers)
        rec.sym_diff = tuple(sds)
        rec.fdr_overall, rec.power_overall = met.pooled_fdr_power(
            truth.supports0, sp.supports, config.N
        )
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
    :data:`~sparsefactors.factor_count.SELECTORS` plus "fit", "sparsity" and
    "rotation". Replication i always uses streams derived from
    ``(config.seed, i)``, so the report is identical for any worker count.
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
    n_min = min(config.N, config.T)  # the selectors read rmax eigenvalues (AH, ED more), the fit r factors
    if tasks & SELECTORS.keys():
        if rmax > n_min:
            raise InvalidArgumentError(f"rmax must be at most min(N, T) = {n_min}, got {rmax}")
        check_rmax(tasks & SELECTORS.keys(), rmax, config.N, config.T)
    if tasks - SELECTORS.keys() and config.r > n_min:
        raise InvalidArgumentError(f"r must be at most min(N, T) = {n_min}, got {config.r}")
    threshold = threshold_value(config.N, config.T, c_multiplier)
    arglist = [(config, i, tasks, rmax, threshold) for i in range(R)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_replicate, arglist, chunksize=max(1, R // (8 * workers))))
    else:
        records = [_replicate(a) for a in arglist]
    records.sort(key=lambda rec: rec.rep)
    agg = met.aggregate(records, config.r, config.alpha)
    report_config = {**asdict(config), "rmax": rmax, "c_multiplier": c_multiplier,
                     "tasks": sorted(tasks)}
    return met.MetricsReport(config=report_config, per_rep=records, aggregates=agg)
