"""Estimators of the number of factors.

Four selectors over a shared eigendecomposition of the panel Gram
(``pca.decompose``, the smaller of ``X'X/(NT)`` and ``XX'/(NT)``):

* ``select_r_svt`` - singular-value thresholding: count the eigenvalues at or
  above ``sigma2 * N^{-1/2} * sqrt(ln ln N)``.
* ``select_r_icp1`` - the IC_p1 information criterion.
* ``select_r_ed`` - Onatski's edge-distribution estimator (iterated OLS wedge
  on eigenvalue differences, slope doubled).
* ``select_r_ah`` - Ahn-Horenstein eigenvalue ratio.

The residual variances ``V(k)`` behind the SVT and IC_p1 rules, and their exact-fit
floor, come from the spectrum (``pca.residual_variances``); no selector refits the panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .panel import Panel
from .pca import SymEig, decompose, numerical_rank, residual_variances

DEFAULT_RMAX = 8


@dataclass(frozen=True)
class FactorCountResult:
    """Outcome of one selection rule.

    ``diagnostics`` holds one ``(k, statistic, threshold_or_criterion)``
    triple per candidate k (the ED rule appends its iteration trace);
    ``notes`` flags degenerate paths such as rank-deficient panels.
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


def _prep(panel: Panel, method: str, rmax: int, eig: SymEig | None) -> SymEig:
    check_rmax((method,), rmax, *panel.values.shape)
    return eig if eig is not None else decompose(panel)


def _exact_fit_floor(eig: SymEig) -> float:
    """``V(k)`` at or below this is an exact fit: 1e-12 of the spectrum total ``mean(X^2)``."""
    return 1e-12 * max(float(eig.values.sum()), 1e-300)


def select_r_svt(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Largest k whose eigenvalue clears ``sigma2 N^{-1/2} (ln ln N)^{1/2}``.

    ``sigma2 = V(rmax)`` is the mean squared residual of the rmax-factor fit,
    read off the spectrum. Returns r_hat = 0 when no eigenvalue clears the
    threshold. Exactly low-rank data (sigma2 = 0) make the rule vacuous; the
    rank of X capped at rmax is returned with a note.
    """
    n = panel.n_series
    eig = _prep(panel, "wz", rmax, eig)
    sigma2 = float(residual_variances(eig, rmax)[-1])
    notes = []
    if sigma2 <= _exact_fit_floor(eig):
        r_hat = min(numerical_rank(panel, eig), rmax)
        notes.append("rank-deficient: sigma2 = 0, returned rank(X) capped at rmax")
        thr = 0.0
    else:
        thr = sigma2 * n**-0.5 * math.sqrt(math.log(math.log(n)))
        above = np.nonzero(eig.values[:rmax] >= thr)[0]
        r_hat = int(above.max()) + 1 if above.size else 0
    diags = tuple((k + 1, float(eig.values[k]), thr) for k in range(rmax))
    return FactorCountResult("WZ_SVT", r_hat, rmax, diags, tuple(notes))


def select_r_icp1(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """IC_p1: minimize ``ln V(k) + k ((N+T)/NT) ln(NT/(N+T))`` over k = 1..rmax."""
    n, t = panel.values.shape
    eig = _prep(panel, "bn", rmax, eig)
    penalty = (n + t) / (n * t) * math.log(n * t / (n + t))
    vks = residual_variances(eig, rmax)
    zero_floor = _exact_fit_floor(eig)
    if np.any(vks <= zero_floor):
        k0 = int(np.nonzero(vks <= zero_floor)[0][0]) + 1
        diags = tuple((k + 1, float(vks[k]), float("-inf")) for k in range(rmax))
        return FactorCountResult(
            "BN_ICP1", k0, rmax, diags, ("rank-deficient: exact fit at k = %d" % k0,)
        )
    ic = np.log(vks) + np.arange(1, rmax + 1) * penalty
    r_hat = int(np.argmin(ic)) + 1  # argmin takes the lowest k on ties
    diags = tuple((k + 1, float(vks[k]), float(ic[k])) for k in range(rmax))
    return FactorCountResult("BN_ICP1", r_hat, rmax, diags)


def select_r_ed(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Onatski's edge-distribution rule on eigenvalues of ``XX'/T``.

    The wedge ``delta`` is twice the absolute OLS slope of the five
    eigenvalues ``gamma_j .. gamma_{j+4}`` regressed on
    ``(j-1)^{2/3} .. (j+3)^{2/3}``; iteration starts at j = rmax + 1 and
    stops at a fixed point or after 10 rounds (note attached in that case).
    """
    n = panel.n_series
    eig = _prep(panel, "ed", rmax, eig)
    # eigenvalues of XX'/T equal N times those of X'X/(NT) on the shared spectrum
    gamma = n * eig.values
    j = rmax + 1
    r_hat = 0
    trace = []
    converged = False
    for _ in range(10):
        y = gamma[j - 1 : j + 4]
        x = np.arange(j - 1, j + 4, dtype=float) ** (2.0 / 3.0)
        xc = x - x.mean()
        slope = float(xc @ (y - y.mean()) / (xc @ xc))
        delta = 2.0 * abs(slope)
        gaps = gamma[:rmax] - gamma[1 : rmax + 1]
        hit = np.nonzero(gaps >= delta)[0]
        candidate = int(hit.max()) + 1 if hit.size else 0
        trace.append((j, delta, candidate))
        if candidate + 1 == j:
            r_hat = candidate
            converged = True
            break
        j = candidate + 1
        r_hat = candidate
    diags = tuple((k + 1, float(gamma[k] - gamma[k + 1]), trace[-1][1]) for k in range(rmax))
    diags = diags + tuple(("iter", float(d), float(c)) for (_, d, c) in trace)
    notes = () if converged else ("max-iterations: returned last candidate",)
    return FactorCountResult("ED", r_hat, rmax, diags, notes)


def select_r_ah(panel: Panel, rmax: int = DEFAULT_RMAX, eig: SymEig | None = None) -> FactorCountResult:
    """Eigenvalue-ratio rule: argmax of ``mu_k / mu_{k+1}`` over k = 1..rmax."""
    eig = _prep(panel, "ah", rmax, eig)
    mu = eig.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mu[1 : rmax + 1] > 0, mu[:rmax] / mu[1 : rmax + 1], np.inf)
    r_hat = int(np.argmax(ratios)) + 1  # lowest k on ties
    diags = tuple((k + 1, float(ratios[k]), float("nan")) for k in range(rmax))
    return FactorCountResult("AH", r_hat, rmax, diags)


SELECTORS = {
    "wz": select_r_svt,
    "bn": select_r_icp1,
    "ed": select_r_ed,
    "ah": select_r_ah,
}
# eigenvalues each rule reads beyond the first rmax: SVT and IC_p1 take V(rmax), the sum of
# the eigenvalues past rmax (0 by construction when none is left), AH divides by
# mu_{rmax+1}, ED regresses on the five from rmax + 1 on
EXTRA_EIGENVALUES = {"wz": 1, "bn": 1, "ed": 5, "ah": 1}


def select_r(panel: Panel, methods, rmax: int = DEFAULT_RMAX) -> dict[str, FactorCountResult]:
    """Run several selection rules on one shared decomposition."""
    unknown = [m for m in methods if m not in SELECTORS]
    if unknown:
        raise InvalidArgumentError(f"unknown factor-count methods {unknown}; choose from {sorted(SELECTORS)}")
    check_rmax(methods, rmax, *panel.values.shape)
    eig = decompose(panel)
    return {m: SELECTORS[m](panel, rmax=rmax, eig=eig) for m in methods}


def diagnostics_json(results: dict[str, FactorCountResult]) -> dict:
    """JSON-ready per-method diagnostics: statistic and threshold per k, chosen r."""
    out = {}
    for m, res in results.items():
        out[m] = {
            "method": res.method,
            "r_hat": res.r_hat,
            "rmax": res.rmax,
            "diagnostics": [list(d) for d in res.diagnostics],
            "notes": list(res.notes),
        }
    return out
