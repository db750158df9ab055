import math

import numpy as np
import pytest

from sparsefactors import (
    Panel,
    pc_fit,
    select_r,
    select_r_ah,
    select_r_ed,
    select_r_icp1,
    select_r_svt,
)
import sparsefactors.factor_count as factor_count
from sparsefactors.factor_count import EXTRA_EIGENVALUES, SELECTORS, diagnostics_json
from sparsefactors.pca import SymEig, decompose, numerical_rank

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def panel_of(values):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    return Panel(values, [f"s{i}" for i in range(n)], [f"t{j}" for j in range(t)])


def low_rank_panel(n, t, rank, seed, noise=0.0, scale=5.0):
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(n, rank)) @ rng.normal(size=(rank, t))
    if noise:
        x = x + noise * rng.normal(size=(n, t))
    return panel_of(x)


class TestSvt:
    def test_zero_matrix_is_degenerate(self):
        res = select_r_svt(panel_of(np.zeros((20, 20))), rmax=4)
        assert res.r_hat == 0
        assert any("rank-deficient" in note for note in res.notes)

    def test_exactly_low_rank_returns_rank(self):
        res = select_r_svt(low_rank_panel(24, 30, rank=2, seed=1), rmax=5)
        assert res.r_hat == 2
        assert any("rank-deficient" in note for note in res.notes)

    def test_one_dominant_factor(self):
        res = select_r_svt(low_rank_panel(100, 100, rank=1, seed=2, noise=0.05), rmax=8)
        assert res.r_hat == 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="16"):
            select_r_svt(panel_of(np.random.default_rng(0).normal(size=(15, 20))), rmax=3)

    def test_small_n_rejected_before_decomposing(self, monkeypatch):
        monkeypatch.setattr(factor_count, "decompose", None)  # a call would raise TypeError
        panel = panel_of(np.random.default_rng(0).normal(size=(15, 20)))
        with pytest.raises(ValueError, match="N must be at least 16 for the double-log threshold, got 15"):
            select_r(panel, ["bn", "wz"], rmax=3)

    def test_scale_invariance(self):
        panel = low_rank_panel(60, 60, rank=2, seed=3, noise=1.0, scale=1.5)
        scaled = panel_of(panel.values * 7.0)
        assert select_r_svt(panel, rmax=6).r_hat == select_r_svt(scaled, rmax=6).r_hat

    def test_diagnostics_carry_threshold(self):
        res = select_r_svt(low_rank_panel(40, 40, rank=1, seed=4, noise=0.5), rmax=4)
        assert len(res.diagnostics) == 4
        ks, stats, thresholds = zip(*res.diagnostics)
        assert ks == (1, 2, 3, 4)
        assert len(set(thresholds)) == 1  # one threshold for every k
        assert all(s >= 0 for s in stats)


class TestIcp1:
    def test_noise_free_rank_two(self):
        res = select_r_icp1(low_rank_panel(24, 30, rank=2, seed=5), rmax=5)
        assert res.r_hat == 2
        assert any("rank-deficient" in note for note in res.notes)

    def test_criterion_matches_recomputation(self):
        panel = low_rank_panel(30, 40, rank=2, seed=6, noise=1.0, scale=2.0)
        res = select_r_icp1(panel, rmax=5)
        n, t = 30, 40
        penalty = (n + t) / (n * t) * math.log(n * t / (n + t))
        for k, vk, ic in res.diagnostics:
            fit = pc_fit(panel, k)
            vk_direct = float(np.mean((panel.values - fit.loadings @ fit.factors.T) ** 2))
            assert abs(vk - vk_direct) < 1e-10
            assert abs(ic - (math.log(vk_direct) + k * penalty)) < 1e-10
        best = min(res.diagnostics, key=lambda d: d[2])
        assert res.r_hat == best[0]

    def test_recovers_rank_with_noise(self):
        res = select_r_icp1(low_rank_panel(80, 80, rank=3, seed=7, noise=1.0), rmax=8)
        assert res.r_hat == 3


class TestEd:
    def test_clear_rank_three(self):
        res = select_r_ed(low_rank_panel(60, 60, rank=3, seed=8, noise=0.05), rmax=8)
        assert res.r_hat == 3

    def test_null_panel_mostly_zero(self):
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            panel = panel_of(rng.normal(size=(100, 100)))
            if select_r_ed(panel, rmax=8).r_hat == 0:
                hits += 1
        assert hits >= 160  # r_hat = 0 in at least 80% of pure-noise draws

    def test_precondition(self):
        with pytest.raises(ValueError):
            select_r_ed(panel_of(np.random.default_rng(1).normal(size=(10, 10))), rmax=8)


class TestAh:
    def test_rank_two_with_jitter(self):
        res = select_r_ah(low_rank_panel(50, 50, rank=2, seed=9, noise=0.05), rmax=6)
        assert res.r_hat == 2

    def test_exact_rank_dominates_ratios(self):
        res = select_r_ah(low_rank_panel(24, 30, rank=2, seed=10), rmax=5)
        assert res.r_hat == 2
        assert res.diagnostics[1][1] > 1e10  # eigenvalue 3 is pure roundoff

    def test_exact_zero_tail_treated_as_infinite(self):
        res = select_r_ah(panel_of(np.zeros((20, 20))), rmax=4)
        assert all(math.isinf(d[1]) for d in res.diagnostics)
        assert res.r_hat == 0  # lowest k wins the all-infinite tie, capped at rank(X) = 0

    def test_ratios_match_recomputation(self):
        from sparsefactors.pca import eig_sym_desc, gram

        panel = low_rank_panel(40, 45, rank=2, seed=11, noise=1.0)
        res = select_r_ah(panel, rmax=6)
        mu = eig_sym_desc(gram(panel)).values
        for k, ratio, _ in res.diagnostics:
            assert abs(ratio - mu[k - 1] / mu[k]) < 1e-12


class TestSharedInterface:
    def test_select_r_runs_all_methods(self):
        panel = low_rank_panel(60, 60, rank=2, seed=12, noise=0.8)
        out = select_r(panel, ["wz", "bn", "ed", "ah"], rmax=6)
        assert set(out) == {"wz", "bn", "ed", "ah"}
        for res in out.values():
            assert 0 <= res.r_hat <= 6

    def test_rmax_bound_of_each_rule_checked_before_decomposing(self, eig_dims):
        panel = low_rank_panel(12, 40, rank=1, seed=15, noise=0.5)
        assert set(select_r(panel, ["bn", "ah"], rmax=11)) == {"bn", "ah"}
        with pytest.raises(ValueError, match=r"min\(N, T\) - 1 = 11 for 'ah'.*got 12"):
            select_r(panel, ["bn", "ah"], rmax=12)
        with pytest.raises(ValueError, match=r"min\(N, T\) - 5 = 7 for 'ed'.*got 8"):
            select_r(panel, ["ah", "ed", "wz"], rmax=8)
        assert eig_dims == [12]  # only the run that passed decomposed

    @pytest.mark.parametrize("select", [select_r_svt, select_r_icp1])
    def test_rmax_must_leave_an_eigenvalue_for_the_residual_variance(self, select):
        # V(rmax) sums the eigenvalues past rmax, so it is 0 by construction at rmax = min(N, T)
        panel = panel_of(np.random.default_rng(16).normal(size=(40, 120)))
        with pytest.raises(ValueError, match=r"min\(N, T\) - 1 = 39 for '(wz|bn)'.*got 40"):
            select(panel, rmax=40)
        assert not select(panel, rmax=39).notes  # no false "rank-deficient" path

    def test_unknown_method_rejected(self):
        panel = low_rank_panel(30, 30, rank=1, seed=13, noise=0.5)
        with pytest.raises(ValueError, match="unknown"):
            select_r(panel, ["wz", "nope"])

    def test_diagnostics_json_roundtrip(self):
        import json

        panel = low_rank_panel(40, 40, rank=1, seed=14, noise=0.5)
        out = select_r(panel, ["wz", "ah"], rmax=4)
        blob = json.dumps(diagnostics_json(out))
        parsed = json.loads(blob)
        assert parsed["wz"]["r_hat"] == out["wz"].r_hat


def assert_rank_rule(panel, rmax, eig=None):
    """Every rule's r_hat is at most the numerical rank q, and it notes "rank-deficient:
    rank(X) = q" exactly when q < rmax + EXTRA_EIGENVALUES[method]; returns the results."""
    eig = decompose(panel) if eig is None else eig
    q = numerical_rank(panel, eig)
    out = {m: select(panel, rmax=rmax, eig=eig) for m, select in SELECTORS.items()}
    for m, res in out.items():
        assert res.r_hat <= q, (m, res.r_hat, q)
        expected = [f"rank-deficient: rank(X) = {q}"] if q < rmax + EXTRA_EIGENVALUES[m] else []
        assert [n for n in res.notes if n.startswith("rank-deficient")] == expected, m
    return out


class TestRankRule:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(200, 16), (16, 200)])
    def test_exactly_low_rank_in_both_orientations(self, shape, rank):
        panel = low_rank_panel(*shape, rank=rank, seed=20 + rank)
        assert numerical_rank(panel, decompose(panel)) == rank
        out = assert_rank_rule(panel, rmax=8)  # rank 0: the zero panel
        assert out["wz"].r_hat == out["bn"].r_hat == rank  # the exact fit is found, not passed

    def test_note_exactly_when_a_read_eigenvalue_is_roundoff(self):
        # rank 10 on 60 x 80: rmax = 9 reads 10 eigenvalues for wz, bn and ah, 14 for ed
        panel = low_rank_panel(60, 80, rank=10, seed=24)
        out = assert_rank_rule(panel, rmax=9)
        assert [m for m, res in out.items() if res.notes] == ["ed"]
        assert [m for m, res in assert_rank_rule(panel, rmax=10).items() if res.notes] == [
            "wz", "bn", "ed", "ah"]

    def test_select_r_is_the_rules_one_by_one(self):
        panel = low_rank_panel(30, 200, rank=2, seed=25)
        together = select_r(panel, ["wz", "bn", "ed", "ah"], rmax=8)
        for m, res in assert_rank_rule(panel, rmax=8).items():
            assert (res.r_hat, res.notes) == (together[m].r_hat, together[m].notes)

    def test_tie_at_the_boundary_is_never_split(self, eig_dims):
        panel = panel_of(np.random.default_rng(26).normal(size=(100, 100)))
        bulk = np.linspace(0.4, 0.01, 96)
        eig = SymEig(np.concatenate([[10.0, 6.0, 3.0, 3.0], bulk]), None, "T", None)
        for res in assert_rank_rule(panel, rmax=8, eig=eig).values():
            assert res.r_hat == 4 and not res.notes
        assert eig_dims == []  # a given spectrum is not recomputed

    def test_tie_above_a_zero_tail(self):
        panel = panel_of(np.random.default_rng(27).normal(size=(40, 40)))
        eig = SymEig(np.concatenate([[3.0, 3.0], np.zeros(38)]), None, "T", None)
        for res in assert_rank_rule(panel, rmax=6, eig=eig).values():
            assert res.r_hat == 2

    def test_cauchy_tailed_panel(self):
        rng = np.random.default_rng(28)
        panel = panel_of(rng.normal(size=(60, 2)) @ rng.normal(size=(2, 200))
                         + rng.standard_cauchy(size=(60, 200)))
        for res in assert_rank_rule(panel, rmax=8).values():
            assert not res.notes

    def test_ed_never_exceeds_the_rank_of_exactly_low_rank_panels(self):
        # uncapped, the edge-distribution rule reads roundoff gaps: r_hat > rank(X) on 12 of 40
        shapes = [(60, 40), (40, 60), (100, 100), (30, 200)]
        for seed in range(40):
            panel = low_rank_panel(*shapes[seed % 4], rank=1 + seed % 3, seed=seed)
            res = assert_rank_rule(panel, rmax=8)["ed"]
            assert res.notes == (f"rank-deficient: rank(X) = {1 + seed % 3}",)
