"""Principal-component estimation of factors and loadings.

``decompose`` eigendecomposes the smaller of the two Gram matrices: the
N x N ``XX'/(NT)`` when N < T, the T x T ``X'X/(NT)`` (``gram``) otherwise.
Both share their nonzero eigenvalues, so the spectrum has length min(N, T)
either way. Estimated factors follow the T x T convention: ``sqrt(T)`` times
the leading eigenvectors of ``X'X/(NT)``; from an N x N decomposition they
are ``sqrt(T) X'u_k / ||X'u_k||``, the same vectors. Loadings are
``X F / T``; the fitted common component ``Lambda F'`` is never formed.

The spectrum sums to ``mean(X^2)`` and, as ``F'F/T = I``, the mean squared residual
``V(k)`` of the k-factor fit is its tail sum ``mu_{k+1} + ... + mu_min(N,T)``
(``residual_variances``), never obtained by refitting or by another pass over X.

The selectors read only eigenvalues and a fit only its r leading vectors, so the
smaller Gram, of either orientation and any dimension, is reduced once to tridiagonal
form (``dsytrd``) and decomposed spectrum first. One m x m buffer carries the Gram from
the product to the reduction: numpy forms ``X'X`` or ``XX'`` of the one panel array as a
symmetric rank-k update (``syrk``) and mirrors its triangle, so the product is exactly
symmetric with no symmetrization pass; it is scaled in place, and ``dsytrd`` overwrites
it with its reflectors (``_blas.tridiagonalize_in_place``). ``dsterf`` then gives every
eigenvalue (the values numpy's eigenvalues-only ``dsyevd`` call gives, bit for bit), and
``SymEig.leading(r)`` later computes the r vectors by MRRR (``dstemr``) on the
tridiagonal, mapped back through the reduction (``dormtr``). The vectors agree with
``eigh``'s to roundoff, except where r cuts through a near tie of eigenvalues. There the
r-th vector is ill-determined: it is one valid vector of the tied cluster, not
necessarily ``eigh``'s, and asking for the vectors up to the end of the cluster gives a
basis of its span. Either way the bits are the same on every call and every thread; no
tie falls back to another route. With a BLAS that is not recognised, either Gram takes
the full ``eigh`` (``eig_sym_desc``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _blas
from .errors import InvalidArgumentError
from .panel import Panel, csv_text


@dataclass(frozen=True)
class SymEig:
    """Symmetric eigendecomposition of a panel Gram, eigenvalues nonincreasing.

    ``values`` is the whole spectrum. ``decompose`` leaves ``vectors`` None and
    keeps the Gram's reduction in ``tridiagonal`` (``dsytrd``'s reflectors, ``tau``,
    diagonal and subdiagonal), from which ``leading`` computes the vectors asked
    for. Only ``eig_sym_desc`` (the fallback for an unrecognised BLAS, and the
    reference of the tests) fills ``vectors``: ``vectors[:, k]`` is the unit
    eigenvector for ``values[k]``, sign-fixed so its largest-magnitude entry is
    positive (ties resolved to the lowest index). ``side`` names the panel Gram
    it came from: "T" for the T x T ``X'X/(NT)`` (vectors over periods), "N" for
    the N x N ``XX'/(NT)`` (vectors over series).
    """

    values: np.ndarray
    vectors: np.ndarray | None
    side: str
    tridiagonal: _blas.Tridiagonal | None

    def leading(self, k: int) -> np.ndarray:
        """The first ``k`` eigenvectors as columns, sign-fixed like ``vectors``.

        Without ``vectors``, ``dstemr`` + ``dormtr`` compute just these k from
        ``tridiagonal``, the same bits on every call. Where ``values[k - 1]`` nearly
        ties ``values[k]``, the k-th column is one valid vector of the tied cluster, not
        necessarily ``eigh``'s; a ``k`` that takes in the whole cluster gives its span.
        """
        if not 1 <= k <= len(self.values):
            raise InvalidArgumentError(f"k must be in [1, {len(self.values)}], got {k}")
        if self.vectors is not None:
            return self.vectors[:, :k]
        return _fix_signs(self.tridiagonal.leading(k))


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

    The N x T common component is ``loadings @ factors.T``; no statistic of the
    package forms it (they work from factors, loadings and spectrum).
    """

    r: int
    factors: np.ndarray
    loadings: np.ndarray
    eigvals: np.ndarray


def gram(panel: Panel) -> np.ndarray:
    """T x T matrix ``X'X/(NT)``, exactly symmetric: numpy's product of an array with its own
    transpose mirrors one computed triangle into the other."""
    x = panel.values
    n, t = x.shape
    g = x.T @ x
    g /= n * t
    return g


def _checked(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidArgumentError("matrix entries must be finite")
    return m


def eig_sym_desc(matrix: np.ndarray) -> SymEig:
    """Full ``eigh`` of a symmetric matrix, sorted nonincreasing, as side "T".

    ``decompose`` falls back to it under a BLAS without the LAPACK routines of
    ``_blas.tridiagonalize_in_place``, and the tests take it as the reference.
    Eigenvectors are sign-normalized: the entry of largest magnitude is made
    positive, ties broken by the lowest index. Exact-tie eigenvalues keep the
    solver's order.
    """
    vals, vecs = np.linalg.eigh(_checked(matrix))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    return SymEig(values=vals, vectors=_fix_signs(vecs), side="T", tridiagonal=None)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip columns in place so each largest-|entry| is positive, ties -> lowest index."""
    absv = np.abs(vecs)
    pivot = np.argmax(absv == absv.max(axis=0, keepdims=True), axis=0)
    signs = np.sign(vecs[pivot, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs *= signs
    return vecs


_RESCALE = "rescale the panel, e.g. standardize it"


def decompose(panel: Panel) -> SymEig:
    """Eigendecomposition of the smaller panel Gram, ``XX'/(NT)`` when N < T, else ``gram``.

    The result has min(N, T) eigenvalues and records its ``side``; ``pc_fit``
    maps either side to the same factors. The Gram is reduced to tridiagonal form
    once, in the Gram's own buffer, which ``tridiagonal.a`` then is: the eigenvalues
    are ``dsterf``'s (bit for bit numpy's eigenvalues-only values) and ``vectors`` is
    None, since ``SymEig.leading`` computes the few vectors a fit reads from the kept
    reduction. On either side the small eigenvalues carry absolute roundoff of order
    ``eps * mu_1``, which ``numerical_rank``'s tolerance allows for. With a BLAS that
    is not recognised it is ``eig_sym_desc`` of the same Gram.

    Raises
    ------
    InvalidArgumentError
        If the Gram overflows (an entry is not finite) or underflows (``mu_1`` is below
        the smallest normal float while X has a nonzero entry), as it does for a
        unit-scale 60 x 80 panel times 1e153 or 1e-154: such a panel must be rescaled.
        A zero panel is decomposed, with rank 0.
    """
    x = panel.values
    n, t = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if n >= t:
            side, g = "T", gram(panel)
        else:
            side, g = "N", x @ x.T
            g /= n * t
    if not np.isfinite(g).all():  # X is finite, so its Gram overflowed
        raise InvalidArgumentError(f"the panel's Gram overflows (entries too large): {_RESCALE}")
    tri = _blas.tridiagonalize_in_place(g.T)  # the symmetric g's Fortran view
    if tri is None:
        eig = replace(eig_sym_desc(g), side=side)
    else:
        values = tri.eigenvalues()[::-1].copy()
        eig = SymEig(values=values, vectors=None, side=side, tridiagonal=tri)
    if eig.values[0] < np.finfo(float).tiny and x.any():  # a nonzero X whose Gram underflowed
        raise InvalidArgumentError(f"the panel's Gram underflows (entries too small): {_RESCALE}")
    return eig


def numerical_rank(panel: Panel, eig: SymEig) -> int:
    """Rank of X read off the spectrum: the eigenvalues above ``max(N, T) * eps * mu_1``.

    ``eig`` decomposes either Gram of ``panel``. Roundoff leaves the null
    eigenvalues of a rank-deficient panel well under this tolerance (at most
    0.023 of it on either side, on random panels of rank 1 to 5 from 6 x 400
    and 400 x 6 up to 100 x 1000 and 1000 x 100); a zero panel has rank 0.
    A spectrum of another panel's shape, T values on side "T" and N on side "N",
    is refused: every reader of ``eig`` calls this first.
    """
    n, t = panel.values.shape
    size = t if eig.side == "T" else n
    if len(eig.values) != size:
        raise InvalidArgumentError(
            f"the spectrum does not belong to this {n} x {t} panel: it has {len(eig.values)} "
            f"eigenvalues on side {eig.side!r}, where the panel's Gram has {size}")
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
        Precomputed ``decompose(panel)`` (or ``eig_sym_desc`` of ``gram(panel)``, side "T");
        pass it when several fits share one panel so the decomposition is done once.

    Notes
    -----
    From an N-side decomposition the factors are ``sqrt(T) X'u_k / ||X'u_k||``
    with the sign rule of ``SymEig`` applied to them, which reproduces
    the T-side factors to roundoff.
    """
    x = panel.values
    n, t = x.shape
    if not 1 <= r <= min(n, t):
        raise InvalidArgumentError(f"r must be in [1, {min(n, t)}], got {r}")
    if eig is None:
        eig = decompose(panel)
    rank = numerical_rank(panel, eig)
    if r > rank:
        raise InvalidArgumentError(f"r = {r} exceeds the numerical rank {rank} of the panel")
    vecs = eig.leading(r)
    if eig.side == "N":
        z = x.T @ vecs
        factors = _fix_signs(np.sqrt(t) * z / np.linalg.norm(z, axis=0))
    else:
        factors = np.sqrt(t) * vecs
    return PcFit(
        r=r,
        factors=factors,
        loadings=x @ factors / t,
        eigvals=eig.values[:r].copy(),
    )


def residual_variances(eig: SymEig, kmax: int) -> np.ndarray:
    """Mean squared residuals ``V(1..kmax)`` of the 1- to kmax-factor PC fits.

    ``V(k) = mu_{k+1} + ... + mu_m``, the tail sum of the m = min(N, T) eigenvalues of
    ``decompose``, summed from the smallest up; clamped at 0, since the null
    eigenvalues of a panel of rank at most k are roundoff of either sign.
    """
    if not 1 <= kmax <= len(eig.values):
        raise InvalidArgumentError(f"kmax must be in [1, {len(eig.values)}], got {kmax}")
    tails = np.append(np.cumsum(eig.values[::-1])[::-1], 0.0)  # tails[k] = V(k), tails[0] the total
    return np.maximum(tails[1 : kmax + 1], 0.0)


def export_pc_fit(fit: PcFit, panel: Panel) -> dict[str, str]:
    """Render a fit as three labeled CSV documents: factors, loadings, eigenvalues."""
    cols = [f"pc{k + 1}" for k in range(fit.r)]

    def table(row_label, row_ids, mat):
        return csv_text([[row_label] + cols]
                        + [[rid] + row for rid, row in zip(row_ids, mat.tolist())])

    return {
        "factors": table("time", panel.time_ids, fit.factors),
        "loadings": table("series", panel.series_ids, fit.loadings),
        "eigenvalues": csv_text([["k", "eigenvalue"]]
                                + [[k, v] for k, v in enumerate(fit.eigvals.tolist(), start=1)]),
    }
