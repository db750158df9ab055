"""Evaluation statistics for simulated panels.

Span recovery is measured with trace statistics (invariant to invertible
column mixing, so no sign/rotation alignment is needed), common components
with an entrywise root mean squared error, and support recovery with false
discovery proportions and recall, counted on N x r boolean support masks
(column k holds factor k's units). Per-factor quantities pair estimated
columns (eigenvalue order) with true columns (strength order) by rank.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidArgumentError


def _trace_stat(a0: np.ndarray, a_hat: np.ndarray) -> float:
    a0 = np.asarray(a0, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if a0.shape[0] != a_hat.shape[0]:
        raise InvalidArgumentError(f"row dimensions differ: {a0.shape[0]} vs {a_hat.shape[0]}")
    gram_hat = a_hat.T @ a_hat
    cross = a_hat.T @ a0
    try:
        sol = np.linalg.solve(gram_hat, cross)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError(
            "estimated matrix has singular Gram; trace statistic undefined") from exc
    return float(np.trace(cross.T @ sol) / np.trace(a0.T @ a0))


def trace_stat_f(f0: np.ndarray, f_hat: np.ndarray) -> float:
    """Share of the true factors' energy captured by the estimated span.

    ``Tr(F0' Fh (Fh'Fh)^-1 Fh' F0) / Tr(F0' F0)``; equals 1 exactly when the
    spans coincide, regardless of any invertible right-multiplication.
    """
    return _trace_stat(f0, f_hat)


def trace_stat_lambda(lambda0: np.ndarray, lambda_hat: np.ndarray) -> float:
    """Trace statistic for loadings; same formula with loadings in place of factors."""
    return _trace_stat(lambda0, lambda_hat)


def rmse_c(lambda0: np.ndarray, f0: np.ndarray, lambda_hat: np.ndarray, f_hat: np.ndarray) -> float:
    """Entrywise RMSE between common components, ``||Lh Fh' - L0 F0'||_F / sqrt(NT)``.

    Computed from r x r products, never from the N x T components, as
    ``tr(Lh'Lh Fh'Fh) - 2 tr(Lh'L0 F0'Fh) + tr(L0'L0 F0'F0)`` clamped at 0; the two
    sides may have different numbers of columns. The subtraction cancels on a
    near-exact fit, so the absolute accuracy is about ``sqrt(eps)`` times the RMS
    size of the components: an exact fit reads a small value >= 0, not always 0.
    """
    l0, f0, lh, fh = (np.asarray(a, dtype=float) for a in (lambda0, f0, lambda_hat, f_hat))
    if l0.shape[0] != lh.shape[0] or f0.shape[0] != fh.shape[0] or (
            l0.shape[1] != f0.shape[1] or lh.shape[1] != fh.shape[1]):
        raise InvalidArgumentError(f"shape mismatch: {l0.shape} x {f0.shape} vs {lh.shape} x {fh.shape}")

    def tr(la, lb, fb, fa):  # tr(la'lb fb'fa), the inner product of la fa' and lb fb'
        return float(np.sum((la.T @ lb) * (fb.T @ fa).T))

    sq = tr(lh, lh, fh, fh) - 2.0 * tr(lh, l0, f0, fh) + tr(l0, l0, f0, f0)
    return float(np.sqrt(max(sq, 0.0) / (l0.shape[0] * f0.shape[0])))


def _overlap(true_support, est_support, axis=None) -> tuple:
    """``|S & Sh|``, ``|Sh|`` and ``|S|`` of two N x r support masks, counted over ``axis``."""
    s, sh = np.asarray(true_support, dtype=bool), np.asarray(est_support, dtype=bool)
    if s.ndim != 2 or s.shape != sh.shape:
        raise InvalidArgumentError(f"supports must be N x r masks of one shape, got {s.shape} and {sh.shape}")
    return np.count_nonzero(s & sh, axis=axis), np.count_nonzero(sh, axis=axis), np.count_nonzero(s, axis=axis)


def fdr_power(true_support, est_support) -> tuple[tuple, tuple]:
    """Per-factor false discovery proportions and recalls of two N x r support masks.

    Column k gives ``fdp_k = |S_k^c & Sh_k| / (|Sh_k| v 1)`` and ``power_k = |S_k & Sh_k| /
    (|S_k| v 1)``; the ``v 1`` guards give (0, 0) for an empty estimate of a nonempty truth.
    """
    hits, found, true = _overlap(true_support, est_support, axis=0)
    fdp, power = (found - hits) / np.maximum(found, 1), hits / np.maximum(true, 1)
    return tuple(fdp.tolist()), tuple(power.tolist())


def pooled_fdr_power(true_support, est_support) -> tuple[float, float]:
    """Overall FDP/recall of two N x r support masks, pooling all (unit, factor) cells."""
    hits, found, true = _overlap(true_support, est_support)
    return float((found - hits) / max(found, 1)), float(hits / max(true, 1))


def rotation_q(f_hat: np.ndarray, f0: np.ndarray) -> tuple[np.ndarray, dict]:
    """Alignment matrix ``Q = Fh' F0 / T`` with a triangularity summary.

    The summary reports the raw ``|Q_lk|`` for l > k, so trend checks across
    N can apply their own scaling, plus the smallest singular value of Q.
    """
    f_hat = np.asarray(f_hat, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    if f_hat.shape[0] != f0.shape[0]:
        raise InvalidArgumentError("factor matrices must share the time dimension")
    t = f_hat.shape[0]
    q = f_hat.T @ f0 / t
    lower = {
        (l + 1, k + 1): float(abs(q[l, k]))
        for l in range(q.shape[0])
        for k in range(q.shape[1])
        if l > k
    }
    summary = {
        "lower_abs": lower,
        "min_singular_value": float(np.linalg.svd(q, compute_uv=False)[-1]),
    }
    return q, summary


@dataclass
class ReplicationRecord:
    """Raw per-replication metric values; aggregation is a fold over these."""

    rep: int
    r_hat: dict = field(default_factory=dict)
    tr_f: float | None = None
    tr_lambda: float | None = None
    rmse_c: float | None = None
    fdr: tuple | None = None
    power: tuple | None = None
    fdr_overall: float | None = None
    power_overall: float | None = None
    alpha_hat: tuple | None = None
    sym_diff: tuple | None = None
    eigvals: tuple | None = None
    q_lower_abs: dict | None = None
    q_min_sv: float | None = None
    error: str | None = None


@dataclass
class MetricsReport:
    """Per-replication records plus exact aggregate statistics.

    ``run`` holds facts about how the batch ran (see ``run_replications``); it is not part
    of :meth:`to_json`, so the report does not depend on them.
    """

    config: dict
    per_rep: list
    aggregates: dict
    run: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # q_lower_abs has tuple keys (not JSON); aggregates["median_q_lower_abs"] summarizes it
        per_rep = [{k: v for k, v in asdict(rec).items() if k != "q_lower_abs"}
                   for rec in self.per_rep]
        return {"config": self.config, "aggregates": self.aggregates, "per_rep": per_rep}


def _rmse_bias(values: np.ndarray, target: float) -> tuple[float, float]:
    err = values - target
    return float(np.sqrt(np.mean(err**2))), float(np.mean(err))


def aggregate(records, true_r: int, alpha) -> dict:
    """Fold replication records into the aggregate block of a MetricsReport.

    Deterministic given the records; incomplete cells (failed replications or
    estimators not requested) are reported as None rather than poisoning the
    rest of the table.
    """
    ok = [rec for rec in records if rec.error is None]
    agg: dict = {
        "replications": len(records),
        "failed": len(records) - len(ok),
    }
    methods = sorted({m for rec in ok for m in rec.r_hat})
    agg["r_hat"] = {}
    for m in methods:
        vals = np.array([rec.r_hat[m] for rec in ok if m in rec.r_hat], dtype=float)
        rmse, bias = _rmse_bias(vals, true_r)
        agg["r_hat"][m] = {"rmse": rmse, "bias": bias, "mean": float(vals.mean())}
    for name in ("tr_f", "tr_lambda", "rmse_c", "fdr_overall", "power_overall"):
        vals = [getattr(rec, name) for rec in ok if getattr(rec, name) is not None]
        agg[f"mean_{name}"] = float(np.mean(vals)) if vals else None
    r = len(alpha)
    have_sup = [rec for rec in ok if rec.fdr is not None]
    if have_sup:
        agg["fdr"] = [float(np.mean([rec.fdr[k] for rec in have_sup])) for k in range(r)]
        agg["power"] = [float(np.mean([rec.power[k] for rec in have_sup])) for k in range(r)]
    have_alpha = [rec for rec in ok if rec.alpha_hat is not None]
    if have_alpha:
        agg["alpha_hat"] = []
        for k in range(r):
            vals = np.array([rec.alpha_hat[k] for rec in have_alpha])
            rmse, bias = _rmse_bias(vals, float(alpha[k]))
            agg["alpha_hat"].append({"rmse": rmse, "bias": bias, "mean": float(vals.mean())})
    have_sd = [rec for rec in ok if rec.sym_diff is not None]
    if have_sd:
        agg["median_sym_diff"] = [
            float(np.median([rec.sym_diff[k] for rec in have_sd])) for k in range(r)
        ]
    have_ev = [rec for rec in ok if rec.eigvals is not None]
    if have_ev:
        agg["median_eigvals"] = [
            float(np.median([rec.eigvals[k] for rec in have_ev])) for k in range(r)
        ]
    have_q = [rec for rec in ok if rec.q_lower_abs is not None]
    if have_q:
        keys = sorted(have_q[0].q_lower_abs)
        agg["median_q_lower_abs"] = {
            f"{l},{k}": float(np.median([rec.q_lower_abs[(l, k)] for rec in have_q]))
            for (l, k) in keys
        }
        agg["q_full_rank_share"] = float(
            np.mean([rec.q_min_sv > 0.05 for rec in have_q if rec.q_min_sv is not None])
        )
    return agg
