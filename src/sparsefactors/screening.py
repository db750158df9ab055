"""Hard-threshold screening of PC loadings and factor-strength estimation.

Small loading estimates are mostly rotation contamination plus estimation
noise, so zeroing every entry with ``|loading| <= c / sqrt(ln(NT))`` recovers
the sparsity pattern (an N x r boolean mask). The count of survivors per factor
yields the strength estimate ``alpha_k = ln(count_k) / ln(N)``.

``estimate`` runs the whole chain on one panel: ``threshold_value`` ->
``decompose`` -> the count rules of ``select_r`` -> r (given, or the SVT count) ->
``pc_fit`` -> ``screen`` -> ``strengths``, the last three on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, FactorCountResult, select_r
from .metrics import _overlap
from .panel import Panel
from .pca import PcFit, SymEig, decompose, pc_fit

DEFAULT_C = 1.0  # the threshold multiplier c used unless one is given
STRONG_CUTOFF = 0.95
WEAK_CUTOFF = 0.90


@dataclass(frozen=True)
class SparseFit:
    """Screened loadings: ``lambda_hat`` keeps an entry exactly when its magnitude strictly
    exceeds ``threshold`` (> 0), so their N x r ``support`` mask is ``lambda_hat != 0``."""

    lambda_hat: np.ndarray
    threshold: float

    @property
    def support(self) -> np.ndarray:
        return self.lambda_hat != 0

    @property
    def counts(self) -> tuple:
        return tuple(np.count_nonzero(self.support, axis=0).tolist())


@dataclass(frozen=True)
class StrengthEstimate:
    """Estimated factor strengths and their classification.

    Labels follow the conservative convention: ``strong`` at alpha >= 0.95,
    ``weak`` below 0.90, ``indeterminate`` between, ``reduced`` for an empty
    support.
    """

    alpha_hat: tuple
    labels: tuple


def threshold_value(n: int, t: int, c: float = DEFAULT_C) -> float:
    """Screening threshold ``c / sqrt(ln(NT))``.

    Raises
    ------
    InvalidArgumentError
        If ``N*T <= 2`` (the log <= 1 region) or ``c`` is not a positive finite number.
    """
    if not math.isfinite(c):
        raise InvalidArgumentError(f"c must be finite, got {c}")
    if c <= 0:
        raise InvalidArgumentError(f"c must be positive, got {c}")
    nt = n * t
    if nt <= 2:
        raise InvalidArgumentError(f"N*T must be at least 3, got {nt}")
    return c / math.sqrt(math.log(nt))


def screen(fit: PcFit, threshold: float) -> SparseFit:
    """Hard-threshold each loading entry; strict inequality keeps an entry."""
    if threshold <= 0:
        raise InvalidArgumentError(f"threshold must be positive, got {threshold}")
    lam = fit.loadings
    return SparseFit(lambda_hat=np.where(np.abs(lam) > threshold, lam, 0.0),
                     threshold=float(threshold))


def _label(alpha: float, count: int) -> str:
    if count == 0:
        return "reduced"
    if alpha >= STRONG_CUTOFF:
        return "strong"
    if alpha < WEAK_CUTOFF:
        return "weak"
    return "indeterminate"


def strengths(sparse: SparseFit) -> StrengthEstimate:
    """Per-factor strength ``ln(count)/ln(N)``, N being the rows of ``sparse.lambda_hat``.

    Degenerate supports are made total: a count of 0 or 1 maps to strength 0
    (``ln 0`` is never evaluated), with label ``reduced`` when the support is
    empty.
    """
    n = sparse.lambda_hat.shape[0]
    if n < 2:
        raise InvalidArgumentError(f"N must be at least 2, got {n}")
    logn = math.log(n)
    alphas, labels = [], []
    for d in sparse.counts:
        a = math.log(d) / logn if d >= 2 else 0.0
        alphas.append(a)
        labels.append(_label(a, d))
    return StrengthEstimate(alpha_hat=tuple(alphas), labels=tuple(labels))


def symm_diff_ratio(true_support, est_support, alpha) -> tuple:
    """Per factor k, the size of the symmetric difference between column k of the two
    N x r support masks, scaled by ``N^alpha[k]``."""
    hits, found, true = _overlap(true_support, est_support, axis=0)
    if len(alpha) != len(hits) or not all(0 < a <= 1 for a in alpha):
        raise InvalidArgumentError(f"need one alpha in (0, 1] per support column, got {tuple(alpha)}")
    n = np.shape(true_support)[0]
    return tuple(d / n**a for d, a in zip((found + true - 2 * hits).tolist(), alpha))  # not np.power


@dataclass(frozen=True)
class Estimate:
    """One panel's estimate: its decomposition, factor counts, fit, screening and strengths.

    ``counts`` holds, by tag, the result of every count rule run on ``eig``; ``r`` is the
    given count or ``counts["wz"].r_hat``. ``fit``, ``sparse`` and ``strength`` are computed
    on first read and cached; they are None exactly when ``r == 0``. A given ``r`` above
    min(N, T) is refused by ``pc_fit`` when ``fit`` is read.
    """

    panel: Panel
    eig: SymEig
    r: int
    counts: dict[str, FactorCountResult]
    c: float

    @property
    def threshold(self) -> float:
        return threshold_value(self.panel.n_series, self.panel.n_periods, self.c)

    @cached_property
    def fit(self) -> PcFit | None:
        return None if self.r == 0 else pc_fit(self.panel, self.r, eig=self.eig)

    @cached_property
    def sparse(self) -> SparseFit | None:
        return None if self.fit is None else screen(self.fit, self.threshold)

    @cached_property
    def strength(self) -> StrengthEstimate | None:
        return None if self.sparse is None else strengths(self.sparse)


def estimate(panel: Panel, r: int | None = None, methods=(), rmax: int = DEFAULT_RMAX,
             c: float = DEFAULT_C) -> Estimate:
    """Decompose ``panel`` once, run the count rules of ``methods`` (and "wz" when ``r`` is
    None) on it, and take ``r`` factors, the SVT count when ``r`` is None.

    A bad ``c``, a given ``r`` below 1, and, when no rule runs, an ``rmax`` below 1 fail
    before the decomposition; the rules check ``rmax`` as ``select_r`` does.
    """
    n, t = panel.values.shape
    threshold_value(n, t, c)
    if r is not None and r < 1:
        raise InvalidArgumentError(f"r must be in [1, {min(n, t)}], got {r}")
    methods = tuple(methods) + (("wz",) if r is None and "wz" not in methods else ())
    if not methods and rmax < 1:
        raise InvalidArgumentError(f"rmax must be positive, got {rmax}")
    eig = decompose(panel)
    counts = select_r(panel, methods, rmax, eig) if methods else {}
    return Estimate(panel=panel, eig=eig, r=counts["wz"].r_hat if r is None else r,
                    counts=counts, c=c)


def sparse_summary(est: Estimate) -> dict:
    """JSON-ready summary of an estimate: threshold, ``c``, counts, strengths, labels. When
    the SVT rule found no factor the lists are empty and a ``note`` says so."""
    summary = {"threshold": est.threshold, "c_multiplier": est.c}
    if est.fit is None:
        return {**summary, "counts": [], "alpha_hat": [], "labels": [],
                "note": "degenerate: no factors detected"}
    return {**summary, "counts": list(est.sparse.counts),
            "alpha_hat": list(est.strength.alpha_hat), "labels": list(est.strength.labels)}
