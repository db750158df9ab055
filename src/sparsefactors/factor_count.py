"""Estimators of the number of factors.

Four rules over a shared eigendecomposition of the panel Gram
(``pca.decompose``, the smaller of ``X'X/(NT)`` and ``XX'/(NT)``):

* ``select_r_svt`` - singular-value thresholding: count the eigenvalues at or
  above ``sigma2 * N^{-1/2} * sqrt(ln ln N)``.
* ``select_r_icp1`` - the IC_p1 information criterion.
* ``select_r_ed`` - Onatski's edge-distribution estimator (iterated OLS wedge
  on eigenvalue differences, slope doubled).
* ``select_r_ah`` - Ahn-Horenstein eigenvalue ratio.

Each rule is a function of the spectrum alone (SVT's and IC_p1's ``V(k)`` are its tail sums,
``pca.residual_variances``). One rank rule holds for all four: ``r_hat`` is capped at the
panel's ``numerical_rank`` q, noted ``rank-deficient: rank(X) = q`` when q < rmax +
``EXTRA_EIGENVALUES[method]``, i.e. when an eigenvalue the rule reads is roundoff.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidArgumentError
from .panel import Panel
from .pca import SymEig, decompose, numerical_rank, residual_variances

DEFAULT_RMAX = 8


@dataclass(frozen=True)
class FactorCountResult:
    """Outcome of one selection rule.

    ``diagnostics`` holds one ``(k, statistic, threshold_or_criterion)``
    triple per candidate k (the ED rule appends its iteration trace); ``notes`` holds
    ED's ``max-iterations``, then the module's rank note; ``r_hat`` is at most rank(X).
    """

    method: str
    r_hat: int
    rmax: int
    diagnostics: tuple = ()
    notes: tuple = ()


def check_rmax(methods, rmax: int, n: int, t: int) -> None:
    """Require that every rule in ``methods`` can run on an N x T panel with ``rmax``.

    Each rule reads ``rmax + EXTRA_EIGENVALUES[method]`` of the min(N, T) eigenvalues; the
    message names the rule that reads the most, the first by name among equals. The SVT rule
    ("wz") also needs N >= 16, the least N at which its threshold's ``ln ln N`` reaches 1.
    """
    m = min(n, t)
    if not 1 <= rmax <= m:
        raise InvalidArgumentError(f"rmax must be in [1, {m}], got {rmax}")
    for method in sorted(methods, key=lambda x: (-EXTRA_EIGENVALUES[x], x)):
        extra = EXTRA_EIGENVALUES[method]
        if rmax + extra > m:
            raise InvalidArgumentError(
                f"rmax must be at most min(N, T) - {extra} = {m - extra} for {method!r} "
                f"(it reads rmax + {extra} eigenvalues), got {rmax}")
    if "wz" in methods and n < 16:
        raise InvalidArgumentError(f"N must be at least 16 for the double-log threshold, got {n}")


def _svt(eig: SymEig, n: int, t: int, rmax: int):
    sigma2 = float(residual_variances(eig, rmax)[-1])
    thr = sigma2 * n**-0.5 * math.sqrt(math.log(math.log(n)))
    above = np.nonzero(eig.values[:rmax] >= thr)[0]
    r_hat = int(above.max()) + 1 if above.size else 0
    return r_hat, tuple((k + 1, float(eig.values[k]), thr) for k in range(rmax)), ()


def _icp1(eig: SymEig, n: int, t: int, rmax: int):
    penalty = (n + t) / (n * t) * math.log(n * t / (n + t))
    vks = residual_variances(eig, rmax)
    with np.errstate(divide="ignore"):  # -inf where V(k) = 0, an exact fit
        ic = np.log(vks) + np.arange(1, rmax + 1) * penalty
    r_hat = int(np.argmin(ic)) + 1  # argmin takes the lowest k on ties
    return r_hat, tuple((k + 1, float(vks[k]), float(ic[k])) for k in range(rmax)), ()


def _ed(eig: SymEig, n: int, t: int, rmax: int):
    # eigenvalues of XX'/T equal N times those of X'X/(NT) on the shared spectrum
    gamma = n * eig.values
    gaps = gamma[:rmax] - gamma[1 : rmax + 1]
    j, trace = rmax + 1, []
    for _ in range(10):
        y = gamma[j - 1 : j + 4]
        x = np.arange(j - 1, j + 4, dtype=float) ** (2.0 / 3.0)
        xc = x - x.mean()
        slope = float(xc @ (y - y.mean()) / (xc @ xc))
        delta = 2.0 * abs(slope)
        hit = np.nonzero(gaps >= delta)[0]
        candidate = int(hit.max()) + 1 if hit.size else 0
        trace.append((j, delta, candidate))
        if candidate + 1 == j:
            notes = ()
            break
        j = candidate + 1
    else:
        notes = ("max-iterations: returned last candidate",)
    diags = tuple((k + 1, float(gamma[k] - gamma[k + 1]), trace[-1][1]) for k in range(rmax))
    return candidate, diags + tuple(("iter", float(d), float(c)) for (_, d, c) in trace), notes


def _ah(eig: SymEig, n: int, t: int, rmax: int):
    mu = eig.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mu[1 : rmax + 1] > 0, mu[:rmax] / mu[1 : rmax + 1], np.inf)
    r_hat = int(np.argmax(ratios)) + 1  # lowest k on ties
    return r_hat, tuple((k + 1, float(ratios[k]), float("nan")) for k in range(rmax)), ()


# tag -> (result name, rule of the spectrum returning (r_hat, diagnostics, notes))
_RULES = {"wz": ("WZ_SVT", _svt), "bn": ("BN_ICP1", _icp1), "ed": ("ED", _ed), "ah": ("AH", _ah)}
# eigenvalues each rule reads beyond the first rmax: SVT and IC_p1 take V(rmax), the sum of
# the eigenvalues past rmax (0 by construction when none is left), AH divides by
# mu_{rmax+1}, ED regresses on the five from rmax + 1 on
EXTRA_EIGENVALUES = {"wz": 1, "bn": 1, "ed": 5, "ah": 1}


def _count(panel: Panel, methods, rmax: int, eig: SymEig | None) -> dict[str, FactorCountResult]:
    """Check ``rmax`` for every rule in ``methods``, decompose unless ``eig`` is given, and
    run each rule on the one spectrum under the rank rule of the module."""
    n, t = panel.values.shape
    check_rmax(methods, rmax, n, t)
    eig = decompose(panel) if eig is None else eig
    rank = numerical_rank(panel, eig)
    out = {}
    for m in methods:
        name, rule = _RULES[m]
        r_hat, diags, notes = rule(eig, n, t, rmax)
        if rank < rmax + EXTRA_EIGENVALUES[m]:
            notes += (f"rank-deficient: rank(X) = {rank}",)
        out[m] = FactorCountResult(name, min(r_hat, rank), rmax, diags, notes)
    return out


def select_r_svt(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Largest k whose eigenvalue clears ``sigma2 N^{-1/2} (ln ln N)^{1/2}``.

    ``sigma2 = V(rmax)`` is the mean squared residual of the rmax-factor fit,
    read off the spectrum. Returns r_hat = 0 when no eigenvalue clears the
    threshold.
    """
    return _count(panel, ("wz",), rmax, eig)["wz"]


def select_r_icp1(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """IC_p1: minimize ``ln V(k) + k ((N+T)/NT) ln(NT/(N+T))`` over k = 1..rmax (ln 0 = -inf)."""
    return _count(panel, ("bn",), rmax, eig)["bn"]


def select_r_ed(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Onatski's edge-distribution rule on eigenvalues of ``XX'/T``.

    The wedge ``delta`` is twice the absolute OLS slope of the five
    eigenvalues ``gamma_j .. gamma_{j+4}`` regressed on
    ``(j-1)^{2/3} .. (j+3)^{2/3}``; iteration starts at j = rmax + 1 and
    stops at a fixed point or after 10 rounds (note attached in that case).
    """
    return _count(panel, ("ed",), rmax, eig)["ed"]


def select_r_ah(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Eigenvalue-ratio rule: argmax of ``mu_k / mu_{k+1}`` over k = 1..rmax."""
    return _count(panel, ("ah",), rmax, eig)["ah"]


SELECTORS = {"wz": select_r_svt, "bn": select_r_icp1, "ed": select_r_ed, "ah": select_r_ah}


def select_r(panel: Panel, methods, rmax: int = DEFAULT_RMAX) -> dict[str, FactorCountResult]:
    """Run several selection rules on one shared decomposition."""
    unknown = [m for m in methods if m not in SELECTORS]
    if unknown:
        raise InvalidArgumentError(f"unknown factor-count methods {unknown}; choose from {sorted(SELECTORS)}")
    return _count(panel, methods, rmax, None)


def diagnostics_json(results: dict[str, FactorCountResult]) -> dict:
    """JSON-ready per-method diagnostics: statistic and threshold per k, chosen r, notes."""
    return {m: asdict(res) for m, res in results.items()}
