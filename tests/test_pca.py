import numpy as np
import pytest

from sparsefactors import (
    InvalidArgumentError,
    Panel,
    SimConfig,
    decompose,
    eig_sym_desc,
    export_csv,
    export_pc_fit,
    gram,
    numerical_rank,
    pc_fit,
    residual_variances,
    run_replications,
    simulate_panel,
)
from sparsefactors.cli import run_cli
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


class TestDecompose:
    """``decompose`` takes the smaller Gram; ``pc_fit`` maps it to the T x T convention."""

    @pytest.mark.parametrize("n, t", [(3, 400), (8, 300), (20, 60), (35, 36), (50, 120)])
    def test_n_side_matches_t_side(self, n, t):
        panel = random_panel(n, t, seed=n * t)
        small, full = decompose(panel), eig_sym_desc(gram(panel))
        assert small.side == "N" and small.values.shape == (n,) and small.vectors.shape == (n, n)
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
        assert np.array_equal(small.values, full.values)
        assert np.array_equal(small.vectors, full.vectors)
        r = min(n, t, 4)
        fast, slow = pc_fit(panel, r), pc_fit(panel, r, eig=full)
        assert np.array_equal(fast.factors, slow.factors)
        assert np.array_equal(fast.loadings, slow.loadings)
        assert np.array_equal(fast.eigvals, slow.eigvals)

    def test_t_side_eig_still_accepted_when_n_below_t(self):
        panel = random_panel(6, 30, seed=41)
        full = eig_sym_desc(gram(panel))
        fit = pc_fit(panel, 2, eig=full)
        assert np.array_equal(fit.factors, np.sqrt(30) * full.vectors[:, :2])

    def test_spectrum_is_nonincreasing(self):
        for n, t in [(10, 200), (30, 31)]:
            assert np.all(np.diff(decompose(random_panel(n, t, seed=t)).values) <= 0.0)


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
    """Every decomposition a caller makes has dimension min(N, T)."""

    @pytest.mark.parametrize("n, t", [(20, 50), (50, 20)])
    def test_cli_commands(self, tmp_path, eig_dims, n, t):
        panel, _ = simulate_panel(SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=1))
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(panel), encoding="utf-8")
        base = ["--data", str(data), "--rmax", "3"]
        for k, argv in enumerate([["estimate", "--r", "2"], ["strengths", "--r", "2"],
                                  ["select-r"], ["heatmap", "--r", "2"]]):
            assert run_cli(argv + base + ["--out", str(tmp_path / f"o{k}")]) == 0
        assert eig_dims == [min(n, t)] * 4

    @pytest.mark.parametrize("window", [15, 30])
    def test_rolling_windows(self, tmp_path, eig_dims, window):
        panel, _ = simulate_panel(SimConfig(N=20, T=40, r=2, alpha=(0.9, 0.7), seed=2))
        data = tmp_path / "panel.csv"
        data.write_text(export_csv(panel), encoding="utf-8")
        argv = ["rolling", "--data", str(data), "--window", str(window), "--rmax", "3",
                "--methods", "wz,bn", "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 0
        assert eig_dims == [min(20, window)] * (40 - window + 1)

    @pytest.mark.parametrize("n, t", [(20, 60), (60, 20)])
    def test_replications(self, eig_dims, n, t):
        report = run_replications(SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=3), 2, rmax=3)
        assert report.aggregates["failed"] == 0
        assert eig_dims == [min(n, t)] * 2
