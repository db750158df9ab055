"""Hard-threshold screening of PC loadings and factor-strength estimation.

Small loading estimates are mostly rotation contamination plus estimation
noise, so zeroing every entry with ``|loading| <= c / sqrt(ln(NT))`` recovers
the sparsity pattern. The count of survivors per factor yields the strength
estimate ``alpha_k = ln(count_k) / ln(N)``.

``estimate`` runs the whole chain on one panel: ``threshold_value`` ->
``decompose`` -> r (given, or ``select_r_svt``) -> ``pc_fit`` -> ``screen``
-> ``strengths``, the last three on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError
from .factor_count import DEFAULT_RMAX, FactorCountResult, select_r_svt
from .panel import Panel
from .pca import PcFit, SymEig, decompose, pc_fit

DEFAULT_C = 1.0  # the threshold multiplier c used unless one is given
STRONG_CUTOFF = 0.95
WEAK_CUTOFF = 0.90


@dataclass(frozen=True)
class SparseFit:
    """Screened loadings with per-factor support sets.

    ``lambda_hat`` keeps an entry exactly when its magnitude strictly exceeds
    ``threshold``; ``supports[k]`` is the set of surviving unit indices for
    factor k and ``counts[k]`` its size.
    """

    lambda_hat: np.ndarray
    supports: tuple
    counts: tuple
    threshold: float


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
    keep = np.abs(lam) > threshold
    lambda_hat = np.where(keep, lam, 0.0)
    supports = tuple(frozenset(np.nonzero(keep[:, k])[0].tolist()) for k in range(fit.r))
    counts = tuple(len(s) for s in supports)
    return SparseFit(
        lambda_hat=lambda_hat, supports=supports, counts=counts, threshold=float(threshold)
    )


def _label(alpha: float, count: int) -> str:
    if count == 0:
        return "reduced"
    if alpha >= STRONG_CUTOFF:
        return "strong"
    if alpha < WEAK_CUTOFF:
        return "weak"
    return "indeterminate"


def strengths(sparse: SparseFit, n: int) -> StrengthEstimate:
    """Per-factor strength ``ln(count)/ln(N)``.

    Degenerate supports are made total: a count of 0 or 1 maps to strength 0
    (``ln 0`` is never evaluated), with label ``reduced`` when the support is
    empty.
    """
    if n < 2:
        raise InvalidArgumentError(f"N must be at least 2, got {n}")
    logn = math.log(n)
    alphas, labels = [], []
    for d in sparse.counts:
        a = math.log(d) / logn if d >= 2 else 0.0
        alphas.append(a)
        labels.append(_label(a, d))
    return StrengthEstimate(alpha_hat=tuple(alphas), labels=tuple(labels))


def symm_diff_ratio(true_support, est_support, alpha: float, n: int) -> float:
    """Size of the symmetric difference between supports, scaled by ``N^alpha``."""
    if not 0 < alpha <= 1:
        raise InvalidArgumentError(f"alpha must lie in (0, 1], got {alpha}")
    a, b = frozenset(true_support), frozenset(est_support)
    return len(a ^ b) / n**alpha


@dataclass(frozen=True)
class Estimate:
    """One panel's estimate: its decomposition, factor count, fit, screening and strengths.

    ``selection`` is the SVT result that chose ``r``, or None when ``r`` was
    given. ``fit``, ``sparse`` and ``strength`` are computed on first read
    and cached; they are None exactly when SVT selected 0 factors. A given
    ``r`` (0 included) is range-checked by ``pc_fit`` when ``fit`` is read.
    """

    panel: Panel
    eig: SymEig
    r: int
    selection: FactorCountResult | None
    threshold: float

    @cached_property
    def fit(self) -> PcFit | None:
        if self.selection is not None and self.r == 0:
            return None
        return pc_fit(self.panel, self.r, eig=self.eig)

    @cached_property
    def sparse(self) -> SparseFit | None:
        return None if self.fit is None else screen(self.fit, self.threshold)

    @cached_property
    def strength(self) -> StrengthEstimate | None:
        return None if self.sparse is None else strengths(self.sparse, self.panel.n_series)


def estimate(panel: Panel, r: int | None = None, rmax: int = DEFAULT_RMAX,
             c: float = DEFAULT_C) -> Estimate:
    """Decompose ``panel`` once and take ``r`` factors, SVT-selected when ``r`` is None.

    The threshold ``c / sqrt(ln(NT))`` is computed first, so a bad ``c``
    fails even when no factor is found.
    """
    threshold = threshold_value(panel.n_series, panel.n_periods, c)
    eig = decompose(panel)
    selection = None if r is not None else select_r_svt(panel, rmax=rmax, eig=eig)
    r = r if selection is None else selection.r_hat
    return Estimate(panel=panel, eig=eig, r=r, selection=selection, threshold=threshold)


def sparse_summary(est: Estimate, c_multiplier: float) -> dict:
    """JSON-ready summary of a fitted estimate: threshold, ``c``, counts, strengths, labels."""
    return {
        "threshold": est.sparse.threshold,
        "c_multiplier": c_multiplier,
        "counts": list(est.sparse.counts),
        "alpha_hat": list(est.strength.alpha_hat),
        "labels": list(est.strength.labels),
    }
