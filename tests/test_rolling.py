import numpy as np
import pytest

import sparsefactors.factor_count as factor_count
import sparsefactors.rolling as rolling
from sparsefactors import _blas
from sparsefactors import (
    DegenerateSeriesError,
    InvalidArgumentError,
    Panel,
    SimConfig,
    heatmap_to_csv,
    pc_fit,
    rolling_analysis,
    rolling_to_csv,
    screen,
    select_r,
    simulate_panel,
    standardize,
    strengths,
    subperiod_heatmap,
    threshold_value,
)


def sim_panel(n, t, seed, r=2, alpha=(0.9, 0.7)):
    cfg = SimConfig(N=n, T=t, r=r, alpha=alpha, seed=seed)
    panel, truth = simulate_panel(cfg)
    return panel, truth


class TestRollingAnalysis:
    def test_single_window_equals_full_sample(self):
        panel, _ = sim_panel(50, 80, seed=1)
        result = rolling_analysis(panel, window=80, methods=("wz", "bn"), rmax=5)
        assert len(result.endpoints) == 1
        assert result.endpoints[0] == panel.time_ids[-1]
        full = select_r(standardize(panel), ["wz", "bn"], rmax=5)
        assert result.r_hat_series["wz"][0] == full["wz"].r_hat
        assert result.r_hat_series["bn"][0] == full["bn"].r_hat

    def test_at_most_one_pc_fit_per_window(self, pc_fit_calls):
        panel, _ = sim_panel(30, 70, seed=2)
        result = rolling_analysis(panel, window=40, methods=("wz", "bn", "ed"), rmax=4)
        fitted = sum(r > 0 for r in result.r_hat_series["wz"])
        assert fitted > 0
        assert len(pc_fit_calls) == fitted <= len(result.endpoints)

    def test_each_rule_runs_once_per_window(self, monkeypatch):
        panel, _ = sim_panel(30, 70, seed=2)
        calls = {m: 0 for m in factor_count.METHODS}
        for m, (name, rule) in list(factor_count._RULES.items()):
            def counting(*args, m=m, rule=rule):
                calls[m] += 1
                return rule(*args)
            monkeypatch.setitem(factor_count._RULES, m, (name, counting))
        result = rolling_analysis(panel, window=30, methods=("bn", "ed"), rmax=4)
        assert len(result.endpoints) == 41
        assert calls == {"wz": 41, "bn": 41, "ed": 41, "ah": 0}

    def test_panels_are_not_rechecked_per_window(self, monkeypatch):
        panel, _ = sim_panel(30, 70, seed=3)
        checks, real = [], Panel.__post_init__

        def counting(self):
            checks.append(1)
            real(self)

        monkeypatch.setattr(Panel, "__post_init__", counting)
        counts = []
        for window in (70, 30):  # one window, then 41
            checks.clear()
            rolling_analysis(panel, window=window, rmax=4)
            counts.append(len(checks))
        assert counts[0] == counts[1]

    def test_numpy_integer_group_ids(self):
        panel, _ = sim_panel(30, 70, seed=4)
        groups = np.arange(30) % 4 + 1
        plain, numpy_ids = (Panel(panel.values, panel.series_ids, panel.time_ids, group_ids=ids)
                            for ids in (groups.tolist(), groups))
        assert rolling_analysis(plain, window=40, rmax=4) == rolling_analysis(numpy_ids,
                                                                              window=40, rmax=4)
        labels = [subperiod_heatmap(p, time_range=("t010", "t059"), rmax=4, r=1).row_labels
                  for p in (plain, numpy_ids)]
        assert labels[0] == labels[1] and labels[0][:2] == ("#1 s001", "#2 s002")

    def test_window_count_and_order(self):
        panel, _ = sim_panel(30, 70, seed=2)
        result = rolling_analysis(panel, window=40, methods=("wz",), rmax=4)
        assert len(result.endpoints) == 70 - 40 + 1
        assert result.endpoints == panel.time_ids[39:]

    def test_strengths_sorted_nonincreasing(self):
        panel, _ = sim_panel(60, 90, seed=3)
        result = rolling_analysis(panel, window=60, rmax=5)
        for alphas in result.strength_series:
            assert all(a >= b for a, b in zip(alphas, alphas[1:]))

    def test_strength_vector_length_matches_wz(self):
        panel, _ = sim_panel(60, 80, seed=4)
        result = rolling_analysis(panel, window=50, rmax=5)
        for r_wz, alphas, note in zip(
            result.r_hat_series["wz"], result.strength_series, result.notes
        ):
            assert len(alphas) == r_wz
            assert (note == "degenerate: r_hat = 0") == (r_wz == 0)

    def test_oversized_window_rejected(self):
        panel, _ = sim_panel(20, 30, seed=5)
        with pytest.raises(ValueError, match="window"):
            rolling_analysis(panel, window=31)

    def test_bad_rmax_or_c_rejected_before_any_decomposition(self, eig_dims):
        panel, _ = sim_panel(20, 30, seed=5)
        with pytest.raises(ValueError, match=r"min\(N, T\) - 5 = 15 for 'ed'.*got 16"):
            rolling_analysis(panel, window=20, rmax=16)
        with pytest.raises(ValueError, match="N must be at least 16"):
            rolling_analysis(sim_panel(15, 30, seed=5)[0], window=20, methods=("bn",), rmax=2)
        with pytest.raises(ValueError, match="c must be positive, got 0.0"):
            rolling_analysis(panel, window=20, rmax=2, c_multiplier=0.0)
        assert eig_dims == []

    def test_deterministic(self):
        panel, _ = sim_panel(40, 60, seed=6)
        a = rolling_analysis(panel, window=40, rmax=4)
        b = rolling_analysis(panel, window=40, rmax=4)
        assert a == b

    def test_modal_count_tracks_truth_on_stationary_panel(self):
        # longer horizon: 141 windows of a stationary 3-factor panel whose
        # strengths stay detectable after per-window standardization
        cfg = SimConfig(N=200, T=260, r=3, alpha=(0.95, 0.85, 0.75), seed=7)
        panel, _ = simulate_panel(cfg)
        result = rolling_analysis(panel, window=120, methods=("wz",), rmax=8)
        assert len(result.endpoints) == 141
        hits = sum(1 for v in result.r_hat_series["wz"] if v == 3)
        assert hits / 141 >= 0.60

    def test_csv_layout(self):
        panel, _ = sim_panel(40, 55, seed=8)
        result = rolling_analysis(panel, window=40, methods=("wz", "bn"), rmax=4)
        lines = rolling_to_csv(result).splitlines()
        assert lines[0].startswith("endpoint,r_hat_bn,r_hat_wz")
        assert len(lines) == 1 + len(result.endpoints)


def windows_on(monkeypatch, k):
    """Make rolling_analysis run its windows on ``k`` threads."""
    monkeypatch.setattr(_blas, "pool_size", lambda requested, items: k)


def pool_sizes(monkeypatch):
    """List that grows by the size of every thread pool rolling_analysis opens."""
    sizes, real = [], _blas.ThreadPoolExecutor

    def recording(threads):
        sizes.append(threads)
        return real(threads)

    monkeypatch.setattr(_blas, "ThreadPoolExecutor", recording)
    return sizes


class TestWindowThreads:
    def test_result_independent_of_thread_count(self, monkeypatch):
        panel, _ = sim_panel(60, 90, seed=15)
        results = []
        for k in (1, 2, 3):
            windows_on(monkeypatch, k)
            results.append(rolling_analysis(panel, window=50, methods=("wz", "bn", "ed", "ah"),
                                            rmax=5))
        assert results[0] == results[1] == results[2]
        assert any(results[0].strength_series)

    @pytest.mark.skipif(_blas.threads() is None, reason="BLAS not recognised")
    def test_blas_on_one_thread_inside_windows_then_restored(self, monkeypatch):
        windows_on(monkeypatch, 2)
        seen = []

        def recording(panel):
            seen.append(_blas.threads())
            return standardize(panel)

        monkeypatch.setattr(rolling, "standardize", recording)
        before = _blas.threads()
        panel, _ = sim_panel(30, 60, seed=16)
        rolling_analysis(panel, window=40, rmax=4)
        assert seen == [1] * 21
        assert _blas.threads() == before

    def test_failing_window_raises_the_same_error_for_any_thread_count(self, monkeypatch):
        sim, _ = sim_panel(30, 80, seed=17)
        before = _blas.threads()
        for c in (2.5, 0.1, 1 / 3):  # 0.1 and 1/3 have inexact window means: sd is roundoff, not 0
            values = np.array(sim.values)
            values[4, 30:55] = c  # constant on the window of periods 30..54
            values[9, 50:75] = -c  # and another series on a later window
            panel = Panel(values, sim.series_ids, sim.time_ids)
            messages = []
            for k in (1, 2):
                windows_on(monkeypatch, k)
                with pytest.raises(DegenerateSeriesError) as info:
                    rolling_analysis(panel, window=25, rmax=4)
                messages.append(str(info.value))
                assert _blas.threads() == before
            assert messages[0] == messages[1]
            assert f"series {panel.series_ids[4]!r} is constant" in messages[0]  # the earlier window

    def test_unrecognised_blas_means_one_thread(self, monkeypatch, two_cpus):
        monkeypatch.setattr(_blas, "_library", lambda: None)
        sizes = pool_sizes(monkeypatch)
        panel, _ = sim_panel(30, 50, seed=18)
        result = rolling_analysis(panel, window=40, rmax=4)
        assert len(result.endpoints) == 11
        assert sizes == [1]
        assert result.run == {"workers": 1, "blas_threads": None}

    @pytest.mark.skipif(_blas.threads() is None, reason="BLAS not recognised")
    def test_thread_count_capped_by_windows_and_blas(self, monkeypatch, two_cpus):
        sizes = pool_sizes(monkeypatch)
        panel, _ = sim_panel(30, 50, seed=18)
        get, set_ = _blas._library()
        before, results = get(), []
        try:
            for blas_threads in (1, 2):
                set_(blas_threads)
                for window in (50, 40):  # one window, then 11
                    results.append(rolling_analysis(panel, window=window, rmax=4))
        finally:
            set_(before)
        assert sizes == [1, 1, 1, 2]
        assert [result.run["workers"] for result in results] == sizes  # the pool that was opened
        assert [r.run for r in results] == [{"workers": k, "blas_threads": 1} for k in sizes]


class TestSubperiodHeatmap:
    def test_values_match_manual_pipeline(self):
        panel, _ = sim_panel(48, 70, seed=9)
        export = subperiod_heatmap(panel, rmax=5, r=2)
        sub = standardize(panel)
        fit = pc_fit(sub, 2)
        sp = screen(fit, threshold_value(48, 70))
        assert np.array_equal(export.values, np.minimum(np.abs(sp.lambda_hat), 3.0))
        assert np.all(export.values >= 0.0)
        assert np.all(export.values <= 3.0)

    def test_column_labels_carry_rank_and_strength(self):
        panel, _ = sim_panel(48, 70, seed=10)
        export = subperiod_heatmap(panel, rmax=5, r=2)
        sub = standardize(panel)
        est = strengths(screen(pc_fit(sub, 2), threshold_value(48, 70)))
        for k, label in enumerate(export.column_labels):
            assert f"alpha={est.alpha_hat[k]:.3f}" in label
        assert "rank 1" in " ".join(export.column_labels)

    def test_group_prefixes_in_row_labels(self):
        rng = np.random.default_rng(11)
        panel = Panel(rng.normal(size=(20, 40)), [f"v{i}" for i in range(20)],
                      [f"t{j}" for j in range(40)], group_ids=[1 + i % 3 for i in range(20)])
        export = subperiod_heatmap(panel, rmax=4, r=1)
        assert export.row_labels[0] == "#1 v0"
        assert export.row_labels[4] == "#2 v4"

    def test_time_range_selection(self):
        panel, _ = sim_panel(40, 60, seed=12)
        export = subperiod_heatmap(panel, time_range=("t011", "t045"), rmax=4, r=1)
        assert export.values.shape[0] == 40
        with pytest.raises(ValueError, match="not in panel"):
            subperiod_heatmap(panel, time_range=("nope", "t045"), rmax=4)

    @pytest.mark.parametrize("r", [0, 41])
    def test_explicit_r_out_of_range_rejected(self, r):
        panel, _ = sim_panel(40, 60, seed=13)
        with pytest.raises(InvalidArgumentError, match=rf"r must be in \[1, 40\], got {r}"):
            subperiod_heatmap(panel, rmax=4, r=r)

    def test_all_zero_screening_exports_zeros(self):
        # pure noise, seed chosen so every top-PC loading sits under the threshold
        rng = np.random.default_rng(5)
        panel = Panel(rng.normal(size=(200, 600)), [f"s{i}" for i in range(200)],
                      [f"t{j}" for j in range(600)])
        export = subperiod_heatmap(panel, rmax=4, r=1)
        assert export.values.shape == (200, 1)
        assert np.all(export.values == 0.0)

    def test_csv_has_metadata_lines(self):
        panel, _ = sim_panel(30, 50, seed=14)
        text = heatmap_to_csv(subperiod_heatmap(panel, rmax=4, r=1))
        lines = text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1].startswith("#")
        assert lines[2].startswith("series,")
        assert len(lines) == 3 + 30
