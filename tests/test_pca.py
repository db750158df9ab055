import numpy as np
import pytest

from sparsefactors import Panel, eig_sym_desc, export_pc_fit, gram, pc_fit, residual_variances
from sparsefactors.pca import StandardizationWarning

from jacobi_oracle import jacobi_eigh


def panel_of(values, standardized=True):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return Panel(values, [f"s{i}" for i in range(n)], [f"t{j}" for j in range(t)],
                 standardized=standardized)


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
        assert np.max(np.abs(fit.common - c0)) < 1e-8
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
        assert np.max(np.abs(fit.resid @ fit.factors)) < 1e-8
        assert np.max(np.abs(panel.values - fit.common - fit.resid)) == 0.0

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

    def test_warns_on_raw_panel(self):
        rng = np.random.default_rng(8)
        panel = panel_of(rng.normal(size=(6, 9)), standardized=False)
        with pytest.warns(StandardizationWarning):
            pc_fit(panel, 1)

    def test_export_headers(self):
        panel = random_panel(4, 6, seed=9)
        out = export_pc_fit(pc_fit(panel, 2), panel)
        assert out["factors"].splitlines()[0] == "time,pc1,pc2"
        assert out["loadings"].splitlines()[0] == "series,pc1,pc2"
        assert out["eigenvalues"].splitlines()[0] == "k,eigenvalue"


class TestResidualVariances:
    def variances(self, panel, kmax):
        return residual_variances(panel, eig_sym_desc(gram(panel)), kmax)

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
            direct = float(np.mean(pc_fit(panel, k).resid ** 2))
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
            residual_variances(panel, eig, 0)
        with pytest.raises(ValueError):
            residual_variances(panel, eig, 9)


class TestLazyFit:
    def test_common_and_resid_built_on_first_read(self):
        panel = random_panel(8, 12, seed=36)
        fit = pc_fit(panel, 2)
        assert "common" not in vars(fit) and "resid" not in vars(fit)
        assert fit.values is panel.values
        resid = fit.resid
        assert set(vars(fit)) >= {"common", "resid"}
        assert fit.resid is resid  # cached, not rebuilt
