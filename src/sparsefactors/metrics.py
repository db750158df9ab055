"""Evaluation statistics for simulated panels.

Span recovery is measured with trace statistics (invariant to invertible
column mixing, so no sign/rotation alignment is needed), common components
with an entrywise root mean squared error, and support recovery with false
discovery proportions and recall, counted on N x r boolean support masks
(column k holds factor k's units). Per-factor quantities pair estimated
columns (eigenvalue order) with true columns (strength order) by rank.

``aggregate`` folds a batch's records into the ``aggregates`` block of ``report.json``.
``replications`` counts every replication and ``failed`` those that raised; a failed
replication enters no other key. Each other key reduces one record field over the
replications that have it (the field is None when its task was not run):

- ``r_hat``: per method, rmse, bias and mean of ``r_hat`` against the true r;
- ``mean_<field>`` for ``tr_f``, ``tr_lambda``, ``rmse_c``, ``fdr_overall``, ``power_overall``: the mean;
- ``fdr``, ``power``: per factor, the mean;
- ``alpha_hat``: per factor k, rmse, bias and mean against alpha_k;
- ``median_<field>`` for ``sym_diff``, ``eigvals`` (per factor) and ``q_lower_abs`` (per pair
  l > k, keyed "l,k"): the median;
- ``q_full_rank_share``: the share of replications with ``q_min_sv > 0.05``.

When no replication has the field, ``r_hat`` reads ``{}``, the five ``mean_*`` keys read
None and every other key is absent.
"""

from __future__ import annotations

import copy
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


def _cell(how: str, values, target):
    """One aggregate cell: the "mean", the "median", the "share" of values above 0.05, or the
    "error" (rmse, bias and mean) of estimates against their true value ``target``."""
    if how == "error":
        values = np.asarray(values, dtype=float)
        err = values - target
        return {"rmse": float(np.sqrt(np.mean(err**2))), "bias": float(np.mean(err)),
                "mean": float(values.mean())}
    if how == "share":
        return float(np.mean(np.asarray(values) > 0.05))
    return float(np.median(values) if how == "median" else np.mean(values))


_OMIT = object()  # the key is left out when no successful replication has its field

# One row per ReplicationRecord field: (field, key, reducer, its value when no replication has it)
_FOLD = (
    ("r_hat", "r_hat", "error", {}),
    ("tr_f", "mean_tr_f", "mean", None),
    ("tr_lambda", "mean_tr_lambda", "mean", None),
    ("rmse_c", "mean_rmse_c", "mean", None),
    ("fdr_overall", "mean_fdr_overall", "mean", None),
    ("power_overall", "mean_power_overall", "mean", None),
    ("fdr", "fdr", "mean", _OMIT),
    ("power", "power", "mean", _OMIT),
    ("alpha_hat", "alpha_hat", "error", _OMIT),
    ("sym_diff", "median_sym_diff", "median", _OMIT),
    ("eigvals", "median_eigvals", "median", _OMIT),
    ("q_lower_abs", "median_q_lower_abs", "median", _OMIT),
    ("q_min_sv", "q_full_rank_share", "share", _OMIT),
)


def aggregate(records, true_r: int, alpha) -> dict:
    """Fold replication records into the aggregate block of a MetricsReport, deterministically.

    Each row of ``_FOLD`` reduces its field cell by cell, the cells read off the field's type: a
    float, a per-factor tuple (target alpha_k), a per-method dict (target ``true_r``) or a
    per-pair dict, keys written "l,k"."""
    ok = [rec for rec in records if rec.error is None]
    agg: dict = {"replications": len(records), "failed": len(records) - len(ok)}
    for name, key, how, empty in _FOLD:
        values = [v for rec in ok if (v := getattr(rec, name)) is not None]
        if not values:
            if empty is not _OMIT:
                agg[key] = copy.copy(empty)
        elif isinstance(values[0], dict):
            agg[key] = {k if isinstance(k, str) else ",".join(map(str, k)):
                        _cell(how, [v[k] for v in values if k in v], true_r)
                        for k in sorted({k for v in values for k in v})}
        elif isinstance(values[0], tuple):
            agg[key] = [_cell(how, cell, float(a)) for cell, a in zip(zip(*values), alpha)]
        else:
            agg[key] = _cell(how, values, None)
    return agg
