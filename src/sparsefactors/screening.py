"""Hard-threshold screening of PC loadings and factor-strength estimation.

Small loading estimates are mostly rotation contamination plus estimation
noise, so zeroing every entry with ``|loading| <= c / sqrt(ln(NT))`` recovers
the sparsity pattern. The count of survivors per factor yields the strength
estimate ``alpha_k = ln(count_k) / ln(N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .pca import PcFit

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


def sparse_summary(sparse: SparseFit, n: int, c_multiplier: float) -> dict:
    """JSON-ready summary: threshold, its multiplier ``c``, counts, strengths, labels."""
    est = strengths(sparse, n)
    return {
        "threshold": sparse.threshold,
        "c_multiplier": c_multiplier,
        "counts": list(sparse.counts),
        "alpha_hat": list(est.alpha_hat),
        "labels": list(est.labels),
    }
