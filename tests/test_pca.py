import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sparsefactors.pca as pca
from sparsefactors import (
    InvalidArgumentError,
    Panel,
    SimConfig,
    decompose,
    export_csv,
    export_pc_fit,
    numerical_rank,
    pc_fit,
    residual_variances,
    run_replications,
    select_r_ah,
    select_r_ed,
    select_r_icp1,
    select_r_svt,
    simulate_panel,
)
from sparsefactors import _blas
from sparsefactors.cli import run_cli
from sparsefactors.pca import eig_sym_desc, gram

from jacobi_oracle import jacobi_eigh


def panel_of(values):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return Panel(values, [f"s{i}" for i in range(n)], [f"t{j}" for j in range(t)])


def random_panel(n, t, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
    return panel_of(x)


class TestGram:
    def test_identity_panel(self):
        g = gram(panel_of(np.eye(2)))
        assert np.allclose(g, np.diag([0.25, 0.25]), atol=1e-15)

    def test_all_ones_panel(self):
        g = gram(panel_of(np.ones((2, 2))))
        assert np.allclose(g, np.full((2, 2), 0.5), atol=1e-15)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 8))
        expected = np.zeros((8, 8))
        for s in range(8):
            for t in range(8):
                acc = 0.0
                for i in range(6):
                    acc += x[i, s] * x[i, t]
                expected[s, t] = acc / (6 * 8)
        assert np.max(np.abs(gram(panel_of(x)) - expected)) < 1e-12

    def test_exactly_symmetric(self):
        g = gram(random_panel(7, 13, seed=2))
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("layout", ["C", "F", "column slice", "strided"])
    @pytest.mark.parametrize("n, t", [(200, 100), (100, 200)])
    def test_both_grams_exactly_symmetric_on_every_layout(self, monkeypatch, layout, n, t):
        """No symmetrization pass: the product itself is symmetric, on either side."""
        x = np.random.default_rng(n).normal(size=(n, 3 * t))
        panel = {"C": lambda: panel_of(x[:, :t]),
                 "F": lambda: panel_of(np.asfortranarray(x[:, :t])),
                 "column slice": lambda: Panel._adopt(x[:, t : 2 * t], tuple(range(n)),
                                                      tuple(range(t))),
                 "strided": lambda: panel_of(x[:, ::3])}[layout]()
        reduced, real = [], _blas.tridiagonalize_in_place

        def recording(a):
            reduced.append(a.copy())
            return real(a)

        monkeypatch.setattr(_blas, "tridiagonalize_in_place", recording)
        decompose(panel)
        for g in (gram(panel), *reduced):
            assert np.array_equal(g, g.T)
        assert len(reduced) == (_blas._lapack() is not None)


class TestEigSymDesc:
    def test_diagonal_matrix(self):
        eig = eig_sym_desc(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [3.0, 2.0, 1.0], atol=1e-14)
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(np.abs(eig.vectors), expected, atol=1e-14)
        assert np.all(eig.vectors[np.argmax(np.abs(eig.vectors), axis=0),
                                  np.arange(3)] > 0)

    def test_rank_one_matrix(self):
        v = np.array([0.6, -0.8, 0.0])
        eig = eig_sym_desc(np.outer(v, v))
        assert np.allclose(eig.values, [1.0, 0.0, 0.0], atol=1e-12)
        # sign rule flips v so its largest-magnitude entry (-0.8) becomes positive
        assert np.allclose(eig.vectors[:, 0], -v, atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            n = int(rng.integers(2, 13))
            a = rng.normal(size=(n, n))
            m = (a + a.T) / 2
            eig = eig_sym_desc(m)
            ref_vals, ref_vecs = jacobi_eigh(m)
            assert np.max(np.abs(eig.values - ref_vals)) < 1e-9
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            ref_recon = ref_vecs @ np.diag(ref_vals) @ ref_vecs.T
            assert np.max(np.abs(recon - m)) < 1e-8 * max(1.0, np.abs(m).max())
            assert np.max(np.abs(ref_recon - m)) < 1e-8 * max(1.0, np.abs(m).max())

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 9))
        eig = eig_sym_desc((a + a.T) / 2)
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(9))) < 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            eig_sym_desc(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestPcFit:
    def test_noise_free_rank_one_recovery(self):
        rng = np.random.default_rng(21)
        lam = rng.normal(size=(15, 1))
        f = rng.normal(size=(40, 1))
        c0 = lam @ f.T
        fit = pc_fit(panel_of(c0), 1)
        assert np.max(np.abs(fit.loadings @ fit.factors.T - c0)) < 1e-8
        expected_eig = np.sum(lam**2) * float((f.T @ f).item() / 40) / 15
        assert abs(fit.eigvals[0] - expected_eig) < 1e-8

    def test_invariants_hold(self):
        panel = random_panel(12, 20, seed=3)
        fit = pc_fit(panel, 4)
        t, n = 20, 12
        assert np.max(np.abs(fit.factors.T @ fit.factors / t - np.eye(4))) < 1e-8
        assert np.array_equal(fit.loadings, panel.values @ fit.factors / t)
        ll = fit.loadings.T @ fit.loadings / n
        assert np.max(np.abs(ll - np.diag(fit.eigvals))) < 1e-8
        assert np.all(np.diff(fit.eigvals) <= 1e-12)
        assert np.max(np.abs((panel.values - fit.loadings @ fit.factors.T) @ fit.factors)) < 1e-8

    def test_nested_in_larger_fit(self):
        panel = random_panel(10, 16, seed=4)
        small = pc_fit(panel, 2)
        big = pc_fit(panel, 5)
        assert np.max(np.abs(big.factors[:, :2] - small.factors)) < 1e-8
        assert np.max(np.abs(big.loadings[:, :2] - small.loadings)) < 1e-8

    def test_scaling_behaviour(self):
        panel = random_panel(9, 14, seed=5)
        scaled = panel_of(3.0 * panel.values)
        base = pc_fit(panel, 3)
        big = pc_fit(scaled, 3)
        assert np.max(np.abs(big.eigvals - 9.0 * base.eigvals)) < 1e-10
        assert np.max(np.abs(big.loadings - 3.0 * base.loadings)) < 1e-10
        assert np.max(np.abs(big.factors - base.factors)) < 1e-10

    def test_r_out_of_range(self):
        panel = random_panel(5, 8, seed=6)
        with pytest.raises(ValueError):
            pc_fit(panel, 0)
        with pytest.raises(ValueError):
            pc_fit(panel, 6)

    def test_export_headers(self):
        panel = random_panel(4, 6, seed=9)
        out = export_pc_fit(pc_fit(panel, 2), panel)
        assert out["factors"].splitlines()[0] == "time,pc1,pc2"
        assert out["loadings"].splitlines()[0] == "series,pc1,pc2"
        assert out["eigenvalues"].splitlines()[0] == "k,eigenvalue"


class TestResidualVariances:
    def variances(self, panel, kmax):
        return residual_variances(eig_sym_desc(gram(panel)), kmax)

    def test_zero_for_noise_free_rank_one(self):
        rng = np.random.default_rng(31)
        c0 = rng.normal(size=(10, 1)) @ rng.normal(size=(1, 25))
        assert self.variances(panel_of(c0), 1)[0] < 1e-12

    def test_zero_at_exact_rank(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 30))
        assert self.variances(panel_of(x), 3)[2] < 1e-10

    def test_matches_direct_residual_computation(self):
        panel = random_panel(100, 100, seed=33)
        vks = self.variances(panel, 8)
        assert vks.shape == (8,)
        for k in range(1, 9):
            fit = pc_fit(panel, k)
            direct = float(np.mean((panel.values - fit.loadings @ fit.factors.T) ** 2))
            assert 0.0 < vks[k - 1] < 1.0
            assert abs(vks[k - 1] - direct) < 1e-12

    def test_nonincreasing_and_never_negative(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(9, 2)) @ rng.normal(size=(2, 14))
        vks = self.variances(panel_of(x), 9)
        assert np.all(vks >= 0.0)
        assert np.all(np.diff(vks) <= 1e-15)

    def test_kmax_out_of_range(self):
        panel = random_panel(5, 8, seed=35)
        eig = eig_sym_desc(gram(panel))
        with pytest.raises(ValueError):
            residual_variances(eig, 0)
        with pytest.raises(ValueError):
            residual_variances(eig, 9)


class TestDecompose:
    """``decompose`` takes the smaller Gram; ``pc_fit`` maps it to the T x T convention."""

    @pytest.mark.parametrize("n, t", [(3, 400), (8, 300), (20, 60), (35, 36), (50, 120)])
    def test_n_side_matches_t_side(self, n, t):
        panel = random_panel(n, t, seed=n * t)
        small, full = decompose(panel), eig_sym_desc(gram(panel))
        assert small.side == "N" and small.values.shape == (n,) and small.vectors is None
        assert small.leading(n).shape == (n, n)
        assert np.max(np.abs(small.values - full.values[:n]) / full.values[0]) < 1e-10
        for r in sorted({1, min(3, n), n}):
            fast, slow = pc_fit(panel, r, eig=small), pc_fit(panel, r, eig=full)
            assert np.max(np.abs(fast.eigvals - slow.eigvals) / slow.eigvals) < 1e-10
            assert np.max(np.abs(fast.factors - slow.factors)) < 1e-8  # same signs
            assert np.max(np.abs(fast.loadings - slow.loadings)) < 1e-8
            assert np.max(np.abs(fast.factors.T @ fast.factors / t - np.eye(r))) < 1e-8

    @pytest.mark.parametrize("n, t", [(7, 7), (60, 20), (400, 3)])
    def test_t_side_is_the_gram_route_exactly(self, n, t):
        panel = panel_of(np.random.default_rng(n + t).normal(size=(n, t)))
        small, full = decompose(panel), eig_sym_desc(gram(panel))
        assert small.side == "T"
        assert np.array_equal(small.values, np.linalg.eigvalsh(gram(panel))[::-1])
        assert np.max(np.abs(small.leading(t) - full.vectors)) < 1e-12
        r = min(n, t, 4)
        fast, slow = pc_fit(panel, r), pc_fit(panel, r, eig=full)
        assert np.max(np.abs(fast.factors - slow.factors)) < 1e-12
        assert np.max(np.abs(fast.loadings - slow.loadings)) < 1e-12
        assert np.max(np.abs(fast.eigvals - slow.eigvals) / slow.eigvals) < 1e-12

    def test_t_side_eig_still_accepted_when_n_below_t(self):
        panel = random_panel(6, 30, seed=41)
        full = eig_sym_desc(gram(panel))
        fit = pc_fit(panel, 2, eig=full)
        assert np.array_equal(fit.factors, np.sqrt(30) * full.vectors[:, :2])

    @pytest.mark.skipif(_blas._lapack() is None, reason="LAPACKE not recognised")
    @pytest.mark.parametrize("n, t", [(400, 400), (100, 1000)])
    def test_holds_one_gram(self, peak_bytes, n, t):
        """The Gram is formed, scaled and reduced in one m x m buffer."""
        panel, m = random_panel(n, t, seed=n + t), min(n, t)
        assert peak_bytes(lambda: decompose(panel)) <= 1.25 * m * m * 8

    def test_spectrum_is_nonincreasing(self):
        for n, t in [(10, 200), (30, 31)]:
            assert np.all(np.diff(decompose(random_panel(n, t, seed=t)).values) <= 0.0)


def spectral_panel(n, t, mu, seed):
    """N x T panel whose T x T Gram has exactly the spectrum ``mu`` (length T), up to roundoff."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(n, t)))[0]
    v = np.linalg.qr(rng.normal(size=(t, t)))[0]
    return panel_of(u * np.sqrt(np.asarray(mu) * n * t) @ v.T)


class TestSpectrumFirstRoute:
    """Every panel Gram, T x T or N x N: one tridiagonal reduction, ``dsterf`` for the
    spectrum and ``dstemr`` + ``dormtr`` for the leading vectors, with no ``eigh`` fallback."""

    M = 200

    def factor_panel(self, seed):
        return simulate_panel(SimConfig(N=self.M + 20, T=self.M, r=3, alpha=(0.9, 0.75, 0.6),
                                        seed=seed))[0]

    def test_route_follows_the_gram_dimension(self):
        for m in (3, 20, 199, 200, 209):
            for n, t in [(m, m), (m + 9, m), (m, m + 1)]:
                eig = decompose(random_panel(n, t, seed=n + t))
                assert eig.side == ("T" if n >= t else "N") and len(eig.values) == min(n, t)
                assert eig.vectors is None and eig.tridiagonal is not None  # one route on either side

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fits_match_the_gram_route(self, eigh_calls, seed):
        panel = self.factor_panel(seed)
        eig, full = decompose(panel), eig_sym_desc(gram(panel))
        assert np.max(np.abs(eig.values - full.values)) < 1e-12 * full.values[0]
        eigh_calls.clear()
        for r in (1, 2, 3):
            fast, slow = pc_fit(panel, r, eig=eig), pc_fit(panel, r, eig=full)
            assert np.max(np.abs(fast.factors - slow.factors)) < 1e-12  # same signs
            assert np.max(np.abs(fast.loadings - slow.loadings)) < 1e-12
            assert np.max(np.abs(fast.eigvals - slow.eigvals) / slow.eigvals) < 1e-12
        assert eigh_calls == []  # every vector came from the reduction

    @pytest.mark.parametrize("tie", [0.0, 1e-12, 1e-9])
    def test_near_tie_falls_back_to_eigh(self, eigh_calls, tie):
        """r = 2 cuts the tie of mu_2 and mu_3: no fallback, the first vector is eigh's, the
        tied cluster's span is eigh's, and the ill-determined second vector is the same
        bits on every call."""
        m = self.M
        mu = np.concatenate([[10.0, 5.0 * (1 + tie), 5.0], np.linspace(1.0, 0.1, m - 3)])
        panel = spectral_panel(m + 20, m, mu, seed=8)
        full = eig_sym_desc(gram(panel))
        # the transposed panel's N x N Gram is this panel's T x T Gram, so it has the same
        # tie and the same eigenvectors, on side "N"
        for p, side in [(panel, "T"), (panel_of(panel.values.T), "N")]:
            eig = decompose(p)
            eigh_calls.clear()
            assert eig.side == side
            assert np.max(np.abs(eig.leading(1) - full.vectors[:, :1])) < 1e-12
            v, w = eig.leading(3), full.vectors[:, :3]
            assert np.max(np.abs(v @ v.T - w @ w.T)) < 1e-12
            first = eig.leading(2).tobytes()
            assert eig.leading(2).tobytes() == first
            assert decompose(p).leading(2).tobytes() == first
            assert eigh_calls == []

    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_r_in_the_noise_bulk_falls_back_to_eigh(self, eigh_calls, r):
        """r in the noise bulk takes the same route as any r: no ``eigh``, and the vectors
        are ``eigh``'s to well within the bulk's eigenvalue gaps."""
        panel = self.factor_panel(4)  # three factors: the 4th eigenvalue on is noise
        eig, full = decompose(panel), eig_sym_desc(gram(panel))
        eigh_calls.clear()
        fast, slow = pc_fit(panel, r, eig=eig), pc_fit(panel, r, eig=full)
        assert eigh_calls == []
        assert np.max(np.abs(eig.leading(r) - full.vectors[:, :r])) < 1e-12
        assert np.max(np.abs(fast.factors - slow.factors)) < 1e-11  # sqrt(T) times the vectors
        assert np.max(np.abs(fast.loadings - slow.loadings)) < 1e-11

    def test_rank_checked_before_any_vector_is_read(self, monkeypatch):
        panel = low_rank(self.M + 20, self.M, 2, seed=9)
        eig = decompose(panel)
        assert eig.vectors is None and numerical_rank(panel, eig) == 2
        full = pc_fit(panel, 2, eig=eig_sym_desc(gram(panel)))
        assert np.max(np.abs(pc_fit(panel, 2, eig=eig).factors - full.factors)) < 1e-12

        def unread(self, k):
            raise AssertionError("a vector was read")

        monkeypatch.setattr(pca.SymEig, "leading", unread)
        with pytest.raises(InvalidArgumentError, match="r = 3 exceeds the numerical rank 2"):
            pc_fit(panel, 3, eig=eig)

    def test_zero_panel(self):
        panel = panel_of(np.zeros((self.M, self.M)))
        eig = decompose(panel)
        assert eig.vectors is None and not eig.values.any()
        with pytest.raises(InvalidArgumentError, match="exceeds the numerical rank 0"):
            pc_fit(panel, 1, eig=eig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all-zero tridiagonal is not divided by
            vec = eig.leading(1)
        assert np.array_equal(vec, eig_sym_desc(gram(panel)).vectors[:, :1])

    def test_leading_count_checked_on_either_route(self):
        for panel in (random_panel(self.M, self.M, seed=10), random_panel(30, 20, seed=10)):
            eig = decompose(panel)
            m = len(eig.values)
            assert eig.leading(m).shape == (m, m)
            for k in (0, m + 1):
                with pytest.raises(InvalidArgumentError, match=rf"k must be in \[1, {m}\], got {k}"):
                    eig.leading(k)

    def test_nonfinite_gram_rejected(self):
        for n, t in [(self.M, self.M), (30, 20)]:  # the check runs at every T-side m
            panel = panel_of(np.full((n, t), 1e300))
            with pytest.raises(InvalidArgumentError, match="Gram overflows .*: rescale the panel"):
                decompose(panel)

    @pytest.mark.parametrize("n, t", [(30, 20), (M + 20, M), (20, 30)])
    def test_unrecognised_blas_takes_eigh(self, monkeypatch, eigh_calls, n, t):
        """Without the LAPACK routines, ``decompose`` returns ``eig_sym_desc``'s vectors of
        the same Gram, on the same side, with the same r-hat and the same fits to roundoff."""
        panel = simulate_panel(SimConfig(N=n, T=t, r=3, alpha=(0.9, 0.75, 0.6), seed=6))[0]
        selectors = (select_r_svt, select_r_icp1, select_r_ed, select_r_ah)
        fast = decompose(panel)
        r_hats = [select(panel, eig=fast).r_hat for select in selectors]
        fits = [pc_fit(panel, r, eig=fast) for r in (1, 3)]
        monkeypatch.setattr(_blas, "_lapack", lambda: None)
        eigh_calls.clear()
        slow = decompose(panel)
        assert eigh_calls == [1] and fast.vectors is None
        assert slow.side == fast.side == ("T" if n >= t else "N") and slow.tridiagonal is None
        smaller = gram(panel if n >= t else panel_of(panel.values.T))  # XX'/(NT) when N < T
        assert np.array_equal(slow.vectors, eig_sym_desc(smaller).vectors)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-12 * slow.values[0]
        assert [select(panel, eig=slow).r_hat for select in selectors] == r_hats
        for a in fits:
            b = pc_fit(panel, a.r, eig=slow)
            assert np.max(np.abs(a.factors - b.factors)) < 1e-12
            assert np.max(np.abs(a.loadings - b.loadings)) < 1e-12

    def test_vectors_byte_identical_across_calls_and_threads(self):
        barrier = threading.Barrier(2)

        def leading_after_barrier(e):
            barrier.wait(timeout=30)
            return e.leading(3).tobytes()

        panel = self.factor_panel(5)
        for p, side in [(panel, "T"), (panel_of(panel.values.T), "N")]:
            eig = decompose(p)
            assert eig.side == side
            first = eig.leading(3).tobytes()
            assert eig.leading(3).tobytes() == first
            assert decompose(p).leading(3).tobytes() == first
            with ThreadPoolExecutor(2) as pool:
                out = list(pool.map(leading_after_barrier, [eig, decompose(p)]))
            assert out == [first, first]


def low_rank(n, t, rank, seed):
    rng = np.random.default_rng(seed)
    return panel_of(5.0 * rng.normal(size=(n, rank)) @ rng.normal(size=(rank, t)))


class TestNumericalRank:
    @pytest.mark.parametrize("n, t", [(6, 400), (20, 60), (60, 20), (400, 6)])
    def test_rank_of_low_rank_panels(self, n, t):
        for rank in (1, 2, 4):
            panel = low_rank(n, t, rank, seed=rank)
            assert numerical_rank(panel, decompose(panel)) == rank
            assert numerical_rank(panel, eig_sym_desc(gram(panel))) == rank
        full = panel_of(np.random.default_rng(3).normal(size=(n, t)))
        assert numerical_rank(full, decompose(full)) == min(n, t)
        centered = random_panel(n, t, seed=3)  # per-series centering removes one dimension when T <= N
        assert numerical_rank(centered, decompose(centered)) == min(n, t - 1)

    def test_zero_panel_has_rank_zero(self):
        panel = panel_of(np.zeros((5, 9)))
        assert numerical_rank(panel, decompose(panel)) == 0
        with pytest.raises(InvalidArgumentError, match="exceeds the numerical rank 0"):
            pc_fit(panel, 1)

    @pytest.mark.parametrize("route", ["default", "eigh"])
    def test_gram_out_of_range_is_refused_on_either_route(self, monkeypatch, route):
        """Scaled by 1e-150 or 1e150 a panel keeps its rank and r-hats; scaled by 1e-170,
        1e-160 or 1e160 its Gram under- or overflows, and ``decompose`` says so."""
        if route == "eigh":
            monkeypatch.setattr(_blas, "_lapack", lambda: None)
        x = simulate_panel(SimConfig(N=60, T=80, r=3, alpha=(0.9, 0.75, 0.6), seed=5))[0].values
        selectors = (select_r_svt, select_r_icp1, select_r_ed, select_r_ah)

        def read(scale):
            panel = panel_of(scale * x)
            eig = decompose(panel)
            return numerical_rank(panel, eig), [s(panel, rmax=8, eig=eig).r_hat for s in selectors]

        assert read(1e-150) == read(1e150) == read(1.0)
        for scale, what in [(1e-170, "underflows"), (1e-160, "underflows"), (1e160, "overflows")]:
            with pytest.raises(InvalidArgumentError, match=f"Gram {what} .*: rescale the panel"):
                decompose(panel_of(scale * x))

    @pytest.mark.parametrize("n, t", [(6, 400), (400, 6), (12, 12)])
    def test_fit_beyond_rank_rejected_on_either_side(self, n, t):
        panel = low_rank(n, t, 2, seed=5)
        for eig in (decompose(panel), eig_sym_desc(gram(panel))):
            assert pc_fit(panel, 2, eig=eig).r == 2
            with pytest.raises(InvalidArgumentError, match="r = 3 exceeds the numerical rank 2"):
                pc_fit(panel, 3, eig=eig)

    @pytest.mark.parametrize("n, t", [(20, 300), (300, 20)])
    def test_estimate_beyond_rank_exits_one(self, tmp_path, capsys, n, t):
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(low_rank(n, t, 2, seed=6)), encoding="utf-8")
        assert run_cli(["estimate", "--data", str(data), "--r", "2", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["estimate", "--data", str(data), "--r", "3", "--out", str(tmp_path / "b")]) == 1
        assert "error: r = 3 exceeds the numerical rank 2 of the panel" in capsys.readouterr().err


class TestDecompositionSize:
    """Every decomposition a caller makes has dimension min(N, T), on either side, and none
    takes the full ``eigh``."""

    M = 200

    @pytest.mark.parametrize("n, t", [(20, 50), (50, 20), (M + 5, M)])
    def test_cli_commands(self, tmp_path, eig_dims, eigh_calls, n, t):
        panel, _ = simulate_panel(SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=1))
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(panel), encoding="utf-8")
        base = ["--data", str(data), "--rmax", "3"]
        for k, argv in enumerate([["estimate", "--r", "2"], ["strengths", "--r", "2"],
                                  ["select-r"], ["heatmap", "--r", "2"]]):
            assert run_cli(argv + base + ["--out", str(tmp_path / f"o{k}")]) == 0
        assert eig_dims == [min(n, t)] * 4 and eigh_calls == []

    @pytest.mark.parametrize("window", [15, 30])
    def test_rolling_windows(self, tmp_path, eig_dims, eigh_calls, window):
        self.check_rolling(tmp_path, eig_dims, eigh_calls, 20, 40, window)

    def test_rolling_windows_spectrum_first(self, tmp_path, eig_dims, eigh_calls):
        self.check_rolling(tmp_path, eig_dims, eigh_calls, self.M, self.M + 2, self.M)

    def check_rolling(self, tmp_path, eig_dims, eigh_calls, n, t, window):
        panel, _ = simulate_panel(SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=2))
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(panel), encoding="utf-8")
        argv = ["rolling", "--data", str(data), "--window", str(window), "--rmax", "3",
                "--methods", "wz,bn", "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 0
        assert eig_dims == [min(n, window)] * (t - window + 1) and eigh_calls == []

    @pytest.mark.parametrize("n, t", [(20, 60), (60, 20), (M, M)])
    def test_replications(self, eig_dims, eigh_calls, n, t):
        report = run_replications(SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=3), 2, rmax=3)
        assert report.aggregates["failed"] == 0
        assert eig_dims == [min(n, t)] * 2 and eigh_calls == []
