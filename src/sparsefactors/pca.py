"""Principal-component estimation of factors, loadings, and common components.

``decompose`` eigendecomposes the smaller of the two Gram matrices: the
N x N ``XX'/(NT)`` when N < T, the T x T ``X'X/(NT)`` (``gram``) otherwise.
Both share their nonzero eigenvalues, so the spectrum has length min(N, T)
either way. Estimated factors follow the T x T convention: ``sqrt(T)`` times
the leading eigenvectors of ``X'X/(NT)``; from an N x N decomposition they
are ``sqrt(T) X'u_k / ||X'u_k||``, the same vectors. Loadings are
``X F / T`` and the fitted common component is ``Lambda F'``.

Because ``F'F/T = I``, the mean squared residual of the k-factor fit is
``mean(X^2) - (mu_1 + ... + mu_k)``: residual variances are read off the
spectrum (``residual_variances``), never obtained by refitting.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError
from .panel import Panel


class StandardizationWarning(UserWarning):
    """Panel passed to pc_fit without prior standardization."""


@dataclass(frozen=True)
class SymEig:
    """Full symmetric eigendecomposition, eigenvalues nonincreasing.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``, sign-fixed
    so its largest-magnitude entry is positive (ties resolved to the lowest
    index). ``side`` names the panel Gram it came from: "T" for the T x T
    ``X'X/(NT)`` (vectors over periods), "N" for the N x N ``XX'/(NT)``
    (vectors over series, set by ``decompose``).
    """

    values: np.ndarray
    vectors: np.ndarray
    side: str = "T"


@dataclass(frozen=True)
class PcFit:
    """Principal-component fit with ``r`` factors.

    Attributes
    ----------
    r : int
    factors : ndarray, shape (T, r)
        ``sqrt(T)`` times the top-r eigenvectors; ``factors' factors / T = I``.
    loadings : ndarray, shape (N, r)
        ``X factors / T``.
    eigvals : ndarray, shape (r,)
        Leading eigenvalues of ``X'X/(NT)``, nonincreasing.
    values : ndarray, shape (N, T)
        The fitted panel's read-only values ``X`` (a reference, not a copy).
    common : ndarray, shape (N, T)
        ``loadings @ factors.T``, computed on first read and cached.
    resid : ndarray, shape (N, T)
        ``X - common``, computed on first read and cached.
    """

    r: int
    factors: np.ndarray
    loadings: np.ndarray
    eigvals: np.ndarray
    values: np.ndarray

    @cached_property
    def common(self) -> np.ndarray:
        return self.loadings @ self.factors.T

    @cached_property
    def resid(self) -> np.ndarray:
        return self.values - self.common


def gram(panel: Panel) -> np.ndarray:
    """T x T matrix ``X'X/(NT)``, symmetrized to kill roundoff asymmetry."""
    x = panel.values
    n, t = x.shape
    g = x.T @ x / (n * t)
    return (g + g.T) / 2.0


def eig_sym_desc(matrix: np.ndarray) -> SymEig:
    """Full eigendecomposition of a symmetric matrix, sorted nonincreasing.

    Eigenvectors are sign-normalized: the entry of largest magnitude is made
    positive, ties broken by the lowest index. Exact-tie eigenvalues keep the
    solver's order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix entries must be finite")
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    return SymEig(values=vals, vectors=_fix_signs(vecs))


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip columns in place so each largest-|entry| is positive, ties -> lowest index."""
    absv = np.abs(vecs)
    pivot = np.argmax(absv == absv.max(axis=0, keepdims=True), axis=0)
    signs = np.sign(vecs[pivot, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs *= signs
    return vecs


def decompose(panel: Panel) -> SymEig:
    """Eigendecomposition of the smaller panel Gram, ``XX'/(NT)`` when N < T, else ``gram``.

    The result has min(N, T) eigenpairs and records its ``side``; ``pc_fit``
    maps either side to the same factors. On side "N" the eigenvalues are the
    Rayleigh quotients ``||X'u_k||^2 / (NT)`` of the eigenvectors, computed
    from X itself: the Gram's length-T sums would cost the small eigenvalues
    accuracy that ``X'u_k`` keeps.
    """
    x = panel.values
    n, t = x.shape
    if n >= t:
        return eig_sym_desc(gram(panel))
    g = x @ x.T / (n * t)
    vecs = eig_sym_desc((g + g.T) / 2.0).vectors
    z = x.T @ vecs
    vals = np.einsum("ij,ij->j", z, z) / (n * t)
    order = np.argsort(-vals, kind="stable")  # keeps nonincreasing order through roundoff ties
    return SymEig(values=vals[order], vectors=vecs[:, order], side="N")


def numerical_rank(panel: Panel, eig: SymEig) -> int:
    """Rank of X read off the spectrum: the eigenvalues above ``max(N, T) * eps * mu_1``.

    ``eig`` decomposes either Gram of ``panel``. Roundoff leaves the null
    eigenvalues of a rank-deficient panel well under this tolerance (at most
    a fifth of it on random low-rank panels up to 300 x 400); a zero panel
    has rank 0.
    """
    n, t = panel.values.shape
    tol = max(n, t) * np.finfo(float).eps * eig.values[0]
    return int(np.count_nonzero(eig.values > tol))


def pc_fit(panel: Panel, r: int, eig: SymEig | None = None) -> PcFit:
    """Estimate an r-factor model by principal components.

    Parameters
    ----------
    panel : Panel
    r : int
        Number of factors, 1 <= r <= min(N, T), and at most the panel's
        ``numerical_rank`` (beyond it the factors would be roundoff).
    eig : SymEig, optional
        Precomputed ``decompose(panel)`` (or a T-side ``eig_sym_desc(gram(panel))``);
        pass it when several fits share one panel so the decomposition is done once.

    Notes
    -----
    Warns (does not refuse) when the panel is not standardized. From an
    N-side decomposition the factors are ``sqrt(T) X'u_k / ||X'u_k||`` with
    the sign rule of ``eig_sym_desc`` applied to them, which reproduces the
    T-side factors to roundoff.
    """
    x = panel.values
    n, t = x.shape
    if not 1 <= r <= min(n, t):
        raise InvalidArgumentError(f"r must be in [1, {min(n, t)}], got {r}")
    if not panel.standardized:
        warnings.warn(
            "pc_fit called on a non-standardized panel", StandardizationWarning, stacklevel=2
        )
    if eig is None:
        eig = decompose(panel)
    rank = numerical_rank(panel, eig)
    if r > rank:
        raise InvalidArgumentError(f"r = {r} exceeds the numerical rank {rank} of the panel")
    if eig.side == "N":
        z = x.T @ eig.vectors[:, :r]
        factors = _fix_signs(np.sqrt(t) * z / np.linalg.norm(z, axis=0))
    else:
        factors = np.sqrt(t) * eig.vectors[:, :r]
    return PcFit(
        r=r,
        factors=factors,
        loadings=x @ factors / t,
        eigvals=eig.values[:r].copy(),
        values=x,
    )


def residual_variances(panel: Panel, eig: SymEig, kmax: int) -> np.ndarray:
    """Mean squared residuals ``V(1..kmax)`` of the 1- to kmax-factor PC fits.

    ``V(k) = mean(X^2) - (mu_1 + ... + mu_k)`` with ``eig`` a decomposition
    of either panel Gram (``decompose``); clamped at 0, since the subtraction
    cancels to roundoff when X has rank at most k.
    """
    if not 1 <= kmax <= len(eig.values):
        raise InvalidArgumentError(f"kmax must be in [1, {len(eig.values)}], got {kmax}")
    total = float(np.mean(panel.values**2))
    return np.maximum(total - np.cumsum(eig.values[:kmax]), 0.0)


def export_pc_fit(fit: PcFit, panel: Panel) -> dict[str, str]:
    """Render a fit as three labeled CSV documents: factors, loadings, eigenvalues."""
    cols = [f"pc{k + 1}" for k in range(fit.r)]

    def table(row_label, row_ids, mat):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([row_label] + cols)
        for rid, row in zip(row_ids, mat):
            w.writerow([rid] + [repr(float(v)) for v in row])
        return buf.getvalue()

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["k", "eigenvalue"])
    for k, v in enumerate(fit.eigvals, start=1):
        w.writerow([k, repr(float(v))])
    return {
        "factors": table("time", panel.time_ids, fit.factors),
        "loadings": table("series", panel.series_ids, fit.loadings),
        "eigenvalues": buf.getvalue(),
    }
