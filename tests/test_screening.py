import math
import re

import numpy as np
import pytest

from sparsefactors import (
    Panel,
    SimConfig,
    estimate,
    pc_fit,
    screen,
    select_r,
    select_r_svt,
    simulate_panel,
    standardize,
    strengths,
    symm_diff_ratio,
    threshold_value,
)
from sparsefactors.screening import SparseFit, sparse_summary
from support_oracle import mask


def fit_with_loadings(loadings):
    """Wrap a loading matrix in a PcFit-shaped object for screening tests."""
    loadings = np.asarray(loadings, dtype=float)
    n, r = loadings.shape

    class _Fit:
        pass

    fit = _Fit()
    fit.r = r
    fit.loadings = loadings
    return fit


class TestThresholdValue:
    def test_reference_value_200x200(self):
        thr = threshold_value(200, 200)
        assert abs(thr - 1.0 / math.sqrt(math.log(40000))) < 1e-15
        assert abs(thr - 0.3072) < 1e-3

    def test_linear_in_c(self):
        assert threshold_value(200, 200, c=2.0) == pytest.approx(
            2.0 * threshold_value(200, 200), abs=1e-15
        )

    def test_small_nt(self):
        assert abs(threshold_value(3, 1) - 0.9541) < 1e-3

    def test_log_domain_error(self):
        with pytest.raises(ValueError):
            threshold_value(2, 1)
        with pytest.raises(ValueError):
            threshold_value(200, 200, c=0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            threshold_value(200, 200, c=c)


class TestScreen:
    def test_everything_survives_a_tiny_threshold(self):
        lam = np.array([[1.0, -2.0], [3.0, 0.5], [-1.5, 0.9]])
        sp = screen(fit_with_loadings(lam), 0.1)
        assert np.array_equal(sp.lambda_hat, lam)
        assert sp.counts == (3, 3)

    def test_zero_loadings_give_empty_supports(self):
        sp = screen(fit_with_loadings(np.zeros((4, 2))), 0.3)
        assert sp.counts == (0, 0)
        assert not sp.support.any() and sp.support.shape == (4, 2)

    def test_hand_column(self):
        sp = screen(fit_with_loadings(np.array([[0.5], [-0.2], [0.31]])), 0.307)
        assert sp.counts == (2,)
        assert sp.support[:, 0].tolist() == [True, False, True]
        assert np.array_equal(sp.lambda_hat[:, 0], [0.5, 0.0, 0.31])

    def test_boundary_entry_is_zeroed(self):
        sp = screen(fit_with_loadings(np.array([[0.307], [0.3071]])), 0.307)
        assert sp.support[:, 0].tolist() == [False, True]

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        sp = screen(fit_with_loadings(rng.normal(size=(30, 3))), 0.5)
        again = screen(fit_with_loadings(sp.lambda_hat), sp.threshold)
        assert np.array_equal(again.lambda_hat, sp.lambda_hat)
        assert np.array_equal(again.support, sp.support)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        fit = fit_with_loadings(rng.normal(size=(50, 3)))
        small = screen(fit, 0.2)
        large = screen(fit, 0.8)
        assert not np.any(large.support & ~small.support)

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            screen(fit_with_loadings(np.ones((2, 1))), 0.0)


class TestStrengths:
    def sparse(self, counts, n):
        """Screened loadings of N = n rows whose column k has its first ``counts[k]`` rows nonzero."""
        lambda_hat = np.zeros((n, len(counts)))
        for k, c in enumerate(counts):
            lambda_hat[:c, k] = 0.5
        sp = SparseFit(lambda_hat=lambda_hat, threshold=0.3)
        assert sp.counts == tuple(counts)
        return sp

    def test_full_support_is_strong(self):
        est = strengths(self.sparse([100], 100))
        assert est.alpha_hat == (1.0,)
        assert est.labels == ("strong",)

    def test_singleton_support_maps_to_zero(self):
        est = strengths(self.sparse([1], 100))
        assert est.alpha_hat == (0.0,)

    def test_empty_support_is_reduced(self):
        est = strengths(self.sparse([0], 100))
        assert est.alpha_hat == (0.0,)
        assert est.labels == ("reduced",)

    def test_classification_bands(self):
        est = strengths(self.sparse([83, 72, 40], 100))
        a1, a2, a3 = est.alpha_hat
        assert a1 >= 0.95 and est.labels[0] == "strong"
        assert 0.90 <= a2 < 0.95 and est.labels[1] == "indeterminate"
        assert a3 < 0.90 and est.labels[2] == "weak"

    def test_alpha_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(9)
        fit = fit_with_loadings(rng.normal(size=(80, 2)))
        alphas = []
        for thr in (0.1, 0.4, 0.9, 1.5):
            est = strengths(screen(fit, thr))
            alphas.append(est.alpha_hat)
        for prev, cur in zip(alphas, alphas[1:]):
            assert all(c <= p + 1e-12 for p, c in zip(prev, cur))


class TestSymmDiffRatio:
    def test_identical_sets(self):
        s = mask(50, {1, 2, 3})
        assert symm_diff_ratio(s, s, (0.8,)) == (0.0,)

    def test_hand_example(self):
        ratio, = symm_diff_ratio(mask(10, {1, 2, 3}), mask(10, {2, 3, 4}), (1.0,))
        assert ratio == pytest.approx(0.2)

    def test_one_ratio_per_column(self):
        s0, s = mask(10, {1, 2, 3}, {1}), mask(10, {2, 3, 4}, {1, 5, 6})
        assert symm_diff_ratio(s0, s, (1.0, 0.5)) == (2 / 10, 2 / 10**0.5)

    def test_alpha_validation(self):
        s = mask(10, {1})
        with pytest.raises(ValueError):
            symm_diff_ratio(s, s, (0.0,))
        with pytest.raises(ValueError, match=r"one alpha in \(0, 1\] per support column"):
            symm_diff_ratio(mask(10, {1}, {2}), mask(10, {1}, {2}), (0.9,))


class TestOnRealFit:
    def test_screen_on_actual_pc_fit(self):
        rng = np.random.default_rng(10)
        lam = np.zeros((60, 1))
        idx = rng.choice(60, size=30, replace=False)
        lam[idx, 0] = rng.normal(size=30) * 3
        x = lam @ rng.normal(size=(1, 200)) + 0.1 * rng.normal(size=(60, 200))
        panel = Panel(x, [f"s{i}" for i in range(60)], [f"t{j}" for j in range(200)])
        sp = screen(pc_fit(panel, 1), threshold_value(60, 200))
        est = strengths(sp)
        # strong, well-separated loadings recovered nearly exactly
        assert symm_diff_ratio(lam != 0, sp.support, (1.0,))[0] < 0.1
        assert abs(est.alpha_hat[0] - math.log(30) / math.log(60)) < 0.05


class TestRobustnessBand:
    def test_mean_alpha1_stable_across_c(self):
        # threshold multipliers 0.8 and 1.2 move mean alpha_1 by < 0.05 at (200,200)
        from sparsefactors import SimConfig, run_replications

        means = {}
        for c in (0.8, 1.0, 1.2):
            cfg = SimConfig(N=200, T=200, r=3, alpha=(0.9, 0.75, 0.6), seed=314)
            rep = run_replications(cfg, 60, tasks={"sparsity"}, c_multiplier=c, workers=2)
            means[c] = rep.aggregates["alpha_hat"][0]["mean"]
        assert abs(means[0.8] - means[1.0]) < 0.05
        assert abs(means[1.2] - means[1.0]) < 0.05


def factor_panel():
    panel, _ = simulate_panel(SimConfig(N=60, T=80, r=2, alpha=(0.9, 0.8), seed=21))
    return standardize(panel)


def noise_panel():
    x = np.random.default_rng(0).normal(size=(40, 80))
    return standardize(Panel(x, [f"s{i}" for i in range(40)], [f"t{j}" for j in range(80)]))


class TestEstimate:
    def test_given_r_matches_the_chain_by_hand(self):
        panel = factor_panel()
        est = estimate(panel, 2, c=1.5)
        assert est.counts == {} and est.r == 2 and est.c == 1.5
        fit = pc_fit(panel, 2)
        sp = screen(fit, threshold_value(60, 80, 1.5))
        alpha = strengths(sp)
        assert np.array_equal(est.fit.factors, fit.factors)
        assert np.array_equal(est.fit.loadings, fit.loadings)
        assert np.array_equal(est.sparse.lambda_hat, sp.lambda_hat)
        assert np.array_equal(est.sparse.support, sp.support) and est.threshold == sp.threshold
        assert np.array_equal(est.strength.alpha_hat, alpha.alpha_hat)
        assert est.strength.labels == alpha.labels

    def test_r_none_is_the_svt_count(self):
        panel = factor_panel()
        est = estimate(panel, rmax=6)
        assert est.r == select_r_svt(panel, rmax=6).r_hat > 0
        assert list(est.counts) == ["wz"] and est.counts["wz"].r_hat == est.r
        assert est.fit.r == est.r

    def test_svt_selected_zero_has_no_fit_but_explicit_zero_raises(self, pc_fit_calls):
        panel = noise_panel()
        est = estimate(panel)
        assert est.r == 0 and est.counts["wz"].r_hat == 0
        assert est.fit is None and est.sparse is None and est.strength is None
        assert pc_fit_calls == []
        with pytest.raises(ValueError, match=r"r must be in \[1, 40\], got 0"):
            estimate(panel, 0)

    def test_decomposes_exactly_once(self, eig_dims):
        est = estimate(factor_panel())
        est.strength
        assert eig_dims == [60]

    def test_fits_only_when_fit_is_read(self, pc_fit_calls):
        est = estimate(factor_panel(), 2)
        assert pc_fit_calls == []
        est.strength
        est.fit
        assert len(pc_fit_calls) == 1

    def test_bad_c_raises_before_decomposing(self, eig_dims):
        with pytest.raises(ValueError, match="c must be positive, got 0"):
            estimate(noise_panel(), c=0.0)
        assert eig_dims == []

    @pytest.mark.parametrize("r", [0, -2])
    def test_explicit_r_below_one_raises_before_decomposing(self, eig_dims, r):
        with pytest.raises(ValueError, match=re.escape(f"r must be in [1, 40], got {r}")):
            estimate(noise_panel(), r)
        assert eig_dims == []

    def test_every_count_rule_runs_on_the_one_decomposition(self, eig_dims):
        panel = factor_panel()
        given = estimate(panel, 2, ["ed", "bn"], rmax=6)
        assert list(given.counts) == ["ed", "bn"] and given.r == 2
        assert given.counts == select_r(panel, ["ed", "bn"], rmax=6)
        chosen = estimate(panel, methods=["bn"], rmax=6)  # r is None: "wz" runs last
        assert list(chosen.counts) == ["bn", "wz"] and chosen.r == chosen.counts["wz"].r_hat
        assert eig_dims == [60] * 3  # one per estimate, and select_r's own

    @pytest.mark.parametrize("rmax", [0, -3])
    def test_rmax_below_one_raises_when_no_rule_reads_it(self, eig_dims, rmax):
        with pytest.raises(ValueError, match=f"rmax must be positive, got {rmax}"):
            estimate(noise_panel(), 2, rmax=rmax)
        assert eig_dims == []
        assert estimate(noise_panel(), 2, rmax=90).counts == {}  # above min(N, T): unread

    def test_summary_records_the_c_of_the_estimate(self):
        est = estimate(factor_panel(), c=2.0)
        summary = sparse_summary(est)
        assert summary["c_multiplier"] == 2.0 == est.c
        assert summary["threshold"] == threshold_value(60, 80, 2.0) == est.threshold
