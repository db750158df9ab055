import dataclasses
import json
import os
import pickle
import re
import threading

import numpy as np
import pytest

from sparsefactors import (
    Panel,
    SimConfig,
    _blas,
    gen_errors,
    gen_factors,
    gen_loadings,
    pc_fit,
    run_replications,
    simulate_panel,
    standardize,
)
import sparsefactors.metrics as met
import sparsefactors.simulate as simulate
from sparsefactors.simulate import support_size


class TestGenFactors:
    def test_shape_and_determinism(self):
        f1 = gen_factors(50, 3, (1, 0, 0))
        f2 = gen_factors(50, 3, (1, 0, 0))
        assert f1.shape == (50, 3)
        assert np.array_equal(f1, f2)
        assert not np.array_equal(f1, gen_factors(50, 3, (2, 0, 0)))

    def test_ar1_moments(self):
        f = gen_factors(100_000, 1, (42,))
        var = f[:, 0].var()
        assert abs(var - 4.0 / 3.0) < 0.03 * (4.0 / 3.0)
        ac1 = np.corrcoef(f[1:, 0], f[:-1, 0])[0, 1]
        assert abs(ac1 - 0.5) < 0.03 * 0.5

    def test_follower_covariance_matches_closed_form(self):
        f = gen_factors(100_000, 2, (43,))
        # cov(F2, F1) = 0.64 * var(F1) = 0.64 * 4/3
        cov = np.cov(f[:, 1], f[:, 0])[0, 1]
        assert abs(cov - 0.64 * 4.0 / 3.0) < 0.03
        assert abs(f[:, 1].var() - (0.64**2 * 4.0 / 3.0 + 1.0)) < 0.05


class TestGenLoadings:
    def test_exact_support_sizes(self):
        lam, sup = gen_loadings(200, (0.9, 0.7), (7, 1))
        assert sup.shape == (200, 2) and sup.dtype == bool
        assert sup.sum(axis=0).tolist() == [117, 40]
        assert support_size(200, 0.75) == 53
        assert support_size(200, 0.6) == 24
        assert np.array_equal(lam != 0, sup)

    def test_full_strength_loads_everyone(self):
        lam, sup = gen_loadings(30, (1.0,), (8, 1))
        assert sup.all()
        assert np.all(lam[:, 0] != 0)

    def test_contiguous_ranges_used_verbatim(self):
        lam, sup = gen_loadings(200, (0.9, 0.7), (9, 1), ranges=((0, 117), (96, 136)))
        assert np.array_equal(np.nonzero(sup[:, 0])[0], np.arange(0, 117))
        assert np.array_equal(np.nonzero(sup[:, 1])[0], np.arange(96, 136))

    def test_contiguous_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            gen_loadings(200, (0.9,), (10, 1), ranges=((0, 100),))

    def test_nonzero_entries_are_standard_normal(self):
        vals = []
        for rep in range(300):
            lam, sup = gen_loadings(100, (0.8,), (11, rep))
            vals.extend(lam[sup[:, 0], 0].tolist())
        vals = np.array(vals)
        assert abs(vals.mean()) < 0.03
        assert abs(vals.var() - 1.0) < 0.05


class TestGenErrors:
    def test_block_structure_at_n8(self):
        e, starts = gen_errors(8, 50, (12, 2))
        assert e.shape == (8, 50)
        # floor(8^0.3) = 1 correlated block, at one of the two 4 x 4 block starts
        assert len(starts) == 1
        assert set(starts) <= {0, 4}

    def test_remainder_block_is_identity(self):
        for seed in range(20):  # n = 10: the two rows from 8 are a remainder, never a start
            _, starts = gen_errors(10, 20, (13, seed))
            assert len(starts) == 1 and set(starts) <= {0, 4}

    def test_unit_variance(self):
        e, _ = gen_errors(8, 50_000, (14, 2))
        assert np.max(np.abs(e.var(axis=1) - 1.0)) < 0.05

    def test_identity_block_coordinates_uncorrelated(self):
        e, starts = gen_errors(16, 50_000, (15, 2))
        identity_rows = [s for s in range(0, 16, 4) if s not in starts]
        i, j = identity_rows[0], identity_rows[1] if len(identity_rows) > 1 else identity_rows[0] + 1
        c = np.corrcoef(e[i], e[j])[0, 1]
        assert abs(c) < 0.02

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_errors(3, 10, (0, 0))


class TestSimulatePanel:
    def test_same_seed_is_bit_identical(self):
        cfg = SimConfig(N=40, T=30, r=2, alpha=(0.9, 0.7), seed=99)
        p1, t1 = simulate_panel(cfg)
        p2, t2 = simulate_panel(cfg)
        assert np.array_equal(p1.values, p2.values)
        assert np.array_equal(t1.F0, t2.F0)
        assert np.array_equal(t1.Lambda0, t2.Lambda0)
        assert np.array_equal(t1.support0, t2.support0)

    def test_different_seeds_differ(self):
        cfg_a = SimConfig(N=40, T=30, r=2, alpha=(0.9, 0.7), seed=1)
        cfg_b = SimConfig(N=40, T=30, r=2, alpha=(0.9, 0.7), seed=2)
        pa, _ = simulate_panel(cfg_a)
        pb, _ = simulate_panel(cfg_b)
        assert np.linalg.norm(pa.values - pb.values) > 0

    def test_truth_composition(self):
        cfg = SimConfig(N=24, T=40, r=3, alpha=(0.9, 0.75, 0.6), seed=5)
        panel, truth = simulate_panel(cfg)
        errors, _ = gen_errors(24, 40, (5, 0, 2))  # replication 0's error stream
        assert np.array_equal(panel.values, errors + truth.Lambda0 @ truth.F0.T)
        assert np.array_equal(truth.scale, np.ones(24))
        for k, s in enumerate(truth.support0.T):
            assert s.sum() == support_size(24, cfg.alpha[k])
            assert np.all(truth.Lambda0[~s, k] == 0.0)

    @pytest.mark.parametrize("n, t, seed", [(65, 70, 1), (248, 260, 1), (248, 260, 3), (4, 7, 1)])
    def test_panel_is_the_whole_errors_plus_the_whole_product(self, n, t, seed):
        """Errors drawn and added in row blocks give the bits of one whole draw added to one
        whole product (a product taken in row blocks would not: at 248 x 260 a few entries
        differ in the last bit)."""
        cfg = SimConfig(N=n, T=t, r=3, alpha=(0.9, 0.75, 0.6), seed=seed)
        panel, truth = simulate_panel(cfg, rep=2)
        errors, _ = gen_errors(n, t, (seed, 2, 2))  # replication 2's error stream
        assert np.array_equal(panel.values, errors + truth.Lambda0 @ truth.F0.T)

    def test_raw_draw_holds_one_panel(self, peak_bytes):
        cfg = SimConfig(N=400, T=400, r=3, alpha=(0.9, 0.75, 0.6), seed=3)
        simulate_panel(cfg)  # the labels are built once per design
        assert peak_bytes(lambda: simulate_panel(cfg)) < 1.5 * 400 * 400 * 8

    def test_standardized_mode_invariants(self):
        cfg = SimConfig(N=32, T=60, r=2, alpha=(0.9, 0.7), seed=6, standardize=True)
        panel, truth = simulate_panel(cfg)
        assert np.max(np.abs(panel.values.mean(axis=1))) < 1e-10
        assert np.max(np.abs(panel.values.var(axis=1, ddof=1) - 1.0)) < 1e-8
        assert truth.standardized
        # the scale is the raw panel's: dividing the centred raw panel by it standardizes it
        cfg_raw = SimConfig(N=32, T=60, r=2, alpha=(0.9, 0.7), seed=6, standardize=False)
        raw = simulate_panel(cfg_raw)[0].values
        assert np.array_equal(truth.scale, raw.std(axis=1, ddof=1))
        centred = raw - raw.mean(axis=1, keepdims=True)
        assert np.max(np.abs(centred / truth.scale[:, None] - panel.values)) < 1e-10

    @pytest.mark.parametrize("n, t, seed", [(32, 60, 6), (90, 20, 7), (15, 300, 8)])
    def test_standardized_panel_is_standardize_of_the_raw_panel(self, n, t, seed):
        cfg = SimConfig(N=n, T=t, r=2, alpha=(0.9, 0.7), seed=seed)
        raw = simulate_panel(cfg)[0]
        panel, truth = simulate_panel(dataclasses.replace(cfg, standardize=True))
        assert np.array_equal(panel.values, standardize(raw).values)
        assert np.array_equal(truth.scale, raw.values.std(axis=1, ddof=1))

    def test_zero_noise_variant_recovers_common_component(self):
        f0 = gen_factors(80, 2, (21, 0))
        # factor 1 loads every unit so no series is constant in the noise-free panel
        lam0, _ = gen_loadings(40, (1.0, 0.7), (21, 1))
        c0 = lam0 @ f0.T
        panel = standardize(Panel(c0, [f"s{i}" for i in range(40)],
                                  [f"t{j}" for j in range(80)]))
        fit = pc_fit(panel, 2)
        c0_std = (c0 - c0.mean(axis=1, keepdims=True)) / c0.std(axis=1, ddof=1, keepdims=True)
        assert np.max(np.abs(fit.loadings @ fit.factors.T - c0_std)) < 1e-6


class TestRunReplications:
    def test_single_replication_equals_its_record(self):
        cfg = SimConfig(N=40, T=40, r=2, alpha=(0.9, 0.7), seed=3)
        report = run_replications(cfg, 1, rmax=4)
        rec = report.per_rep[0]
        agg = report.aggregates
        assert agg["r_hat"]["wz"]["mean"] == rec.r_hat["wz"]
        assert agg["mean_tr_f"] == pytest.approx(rec.tr_f)
        assert agg["fdr"] == [pytest.approx(v) for v in rec.fdr]

    @pytest.mark.parametrize("standardize", [False, True])
    def test_fit_statistics_read_the_truth_on_the_estimation_scale(self, standardize):
        cfg = SimConfig(N=40, T=50, r=2, alpha=(0.9, 0.7), seed=9, standardize=standardize)
        rec = run_replications(cfg, 1, tasks={"fit"}).per_rep[0]
        panel, truth = simulate_panel(cfg)
        fit = pc_fit(panel, 2)
        lam0, f0 = truth.on_estimation_scale()  # centred factors when standardized
        assert rec.tr_f == met.trace_stat_f(f0, fit.factors)
        assert rec.tr_lambda == met.trace_stat_lambda(lam0, fit.loadings)
        assert rec.rmse_c == met.rmse_c(lam0, f0, fit.loadings, fit.factors)

    def test_worker_count_does_not_change_report(self):
        import json

        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=17)
        r1 = run_replications(cfg, 8, rmax=4, workers=1)
        r2 = run_replications(cfg, 8, rmax=4, workers=2)
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replication_failures_are_recorded_not_raised(self, monkeypatch, two_cpus, workers):
        import sparsefactors.simulate as sim

        real = sim._replicate_inner

        def flaky(config, panel, truth, tasks, rmax, c_mult, rec):
            if rec.rep == 1:
                raise RuntimeError("boom")
            return real(config, panel, truth, tasks, rmax, c_mult, rec)

        monkeypatch.setattr(sim, "_replicate_inner", flaky)
        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=4)
        report = run_replications(cfg, 3, rmax=4, workers=workers)
        assert report.run["workers"] == 2
        assert report.aggregates["failed"] == 1
        assert report.per_rep[1].error == "RuntimeError: boom"

    @pytest.mark.skipif(_blas.threads() is None, reason="BLAS not recognised")
    def test_report_does_not_depend_on_workers_or_the_callers_blas_threads(self, two_cpus):
        # at this size the BLAS thread count changes eigh's roundoff, so the batch must pin it
        cfg = SimConfig(N=300, T=300, r=3, alpha=(0.9, 0.75, 0.6), seed=13)
        get, set_ = _blas._library()
        before, reports = get(), {}
        try:
            for workers in (1, 2):
                for caller_threads in (1, 2):
                    set_(caller_threads)
                    reports[workers, caller_threads] = run_replications(cfg, 3, rmax=8, workers=workers)
        finally:
            set_(before)
        texts = {json.dumps(rep.to_json(), sort_keys=True) for rep in reports.values()}
        assert len(texts) == 1
        assert reports[1, 2].aggregates["failed"] == 0
        assert reports[1, 2].run == {"workers": 2, "blas_threads": 1}
        assert reports[2, 2].run == {"workers": 2, "blas_threads": 1}

    def test_workers_capped_by_the_usable_cpus(self, two_cpus):
        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=6)
        serial = run_replications(cfg, 6, rmax=4, workers=1)
        capped = run_replications(cfg, 6, rmax=4, workers=1000)
        assert capped.run["workers"] == 2
        assert json.dumps(capped.to_json(), sort_keys=True) == json.dumps(serial.to_json(), sort_keys=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_draw_is_that_replications_error(self, monkeypatch, two_cpus, workers):
        import sparsefactors.simulate as sim

        real = sim.simulate_panel

        def flaky(config, rep):
            if rep == 1:
                raise RuntimeError("draw failed")
            return real(config, rep)

        monkeypatch.setattr(sim, "simulate_panel", flaky)
        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=4)
        report = run_replications(cfg, 3, rmax=4, workers=workers)
        assert report.run["workers"] == 2
        assert [rec.error for rec in report.per_rep] == [None, "RuntimeError: draw failed", None]
        assert report.per_rep[0].tr_f is not None and report.per_rep[2].tr_f is not None

    @pytest.mark.skipif(_blas.threads() is None, reason="BLAS not recognised")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_on_one_thread_on_every_pool_thread(self, monkeypatch, two_cpus, workers):
        import sparsefactors.simulate as sim

        seen = []

        def recording(stage, real):
            def wrapped(*args, **kwargs):
                seen.append((stage, threading.get_ident(), _blas.threads()))
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sim, "simulate_panel", recording("draw", sim.simulate_panel))
        monkeypatch.setattr(sim, "estimate", recording("estimate", sim.estimate))
        get, set_ = _blas._library()
        before = get()
        set_(2)  # so that a missing pin would show
        try:
            cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=4)
            report = run_replications(cfg, 6, rmax=4, workers=workers)
            assert _blas.threads() == 2  # the caller's count, restored
        finally:
            set_(before)
        assert report.aggregates["failed"] == 0 and report.run == {"workers": 2, "blas_threads": 1}
        assert sorted(stage for stage, _, _ in seen) == ["draw"] * 6 + ["estimate"] * 6
        assert {n for _, _, n in seen} == {1}
        assert threading.get_ident() not in {ident for _, ident, _ in seen}

    def test_each_replication_drawn_and_estimated_on_one_pool_thread(self, monkeypatch, two_cpus):
        import sparsefactors.simulate as sim

        drawn_on, estimated_on = {}, {}
        real_draw, real_inner = sim.simulate_panel, sim._replicate_inner

        def draw(config, rep):
            drawn_on[rep] = threading.get_ident()
            return real_draw(config, rep)

        def inner(config, panel, truth, tasks, rmax, c_mult, rec):
            estimated_on[rec.rep] = threading.get_ident()
            return real_inner(config, panel, truth, tasks, rmax, c_mult, rec)

        monkeypatch.setattr(sim, "simulate_panel", draw)
        monkeypatch.setattr(sim, "_replicate_inner", inner)
        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=4)
        report = run_replications(cfg, 6, rmax=4, workers=1)
        assert report.aggregates["failed"] == 0 and report.run["workers"] == 2
        assert sorted(drawn_on) == list(range(6)) and drawn_on == estimated_on
        assert threading.get_ident() not in drawn_on.values()

    def test_one_usable_cpu_runs_one_thread_and_the_same_report(self, monkeypatch, two_cpus):
        cfg = SimConfig(N=36, T=36, r=2, alpha=(0.9, 0.7), seed=4)
        two = run_replications(cfg, 4, rmax=4, workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one = run_replications(cfg, 4, rmax=4, workers=1)
        assert two.run["workers"] == 2 and one.run["workers"] == 1
        assert json.dumps(one.to_json(), sort_keys=True) == json.dumps(two.to_json(), sort_keys=True)

    def test_one_pc_fit_per_replication(self, pc_fit_calls):
        cfg = SimConfig(N=40, T=40, r=2, alpha=(0.9, 0.7), seed=8)
        report = run_replications(cfg, 3, rmax=4)  # every task
        assert report.aggregates["failed"] == 0
        assert len(pc_fit_calls) == 3

    @pytest.mark.parametrize("standardize", [False, True])
    def test_no_common_component_is_built(self, standardize):
        cfg = SimConfig(N=30, T=44, r=2, alpha=(0.9, 0.7), seed=8, standardize=standardize)
        report = run_replications(cfg, 3, rmax=4)  # every task
        assert report.aggregates["failed"] == 0
        assert all(rec.rmse_c > 0.0 for rec in report.per_rep)
        _, truth = simulate_panel(cfg)
        assert not [f.name for f in dataclasses.fields(truth)
                    if np.shape(getattr(truth, f.name)) == (30, 44)]

    def test_selector_tasks_never_fit(self, pc_fit_calls):
        cfg = SimConfig(N=40, T=6, r=8, alpha=(0.9,) * 8, seed=8)  # r > min(N, T)
        report = run_replications(cfg, 2, tasks={"wz", "bn"}, rmax=4)
        assert report.aggregates["failed"] == 0
        assert pc_fit_calls == []

    def test_tasks_subset(self):
        cfg = SimConfig(N=40, T=40, r=2, alpha=(0.9, 0.7), seed=8)
        report = run_replications(cfg, 2, tasks={"wz"}, rmax=4)
        assert set(report.per_rep[0].r_hat) == {"wz"}
        assert report.per_rep[0].tr_f is None
        with pytest.raises(ValueError, match="unknown tasks"):
            run_replications(cfg, 1, tasks={"nope"})

    def test_dimension_bounds_checked_up_front(self):
        cfg = SimConfig(N=40, T=5, r=2, alpha=(0.9, 0.7), seed=8)
        with pytest.raises(ValueError, match=re.escape("rmax must be in [1, 5], got 6")):
            run_replications(cfg, 1, tasks={"wz"}, rmax=6)
        assert run_replications(cfg, 1, tasks={"fit"}, rmax=6).aggregates["failed"] == 0
        thin = SimConfig(N=40, T=1, r=2, alpha=(0.9, 0.7), seed=8)
        with pytest.raises(ValueError, match=re.escape("r must be at most min(N, T) = 1")):
            run_replications(thin, 1, tasks={"fit"})

    def test_svt_sample_size_checked_up_front(self, monkeypatch):
        monkeypatch.setattr(simulate, "_replicate", None)  # a replication would raise TypeError
        small = SimConfig(N=8, T=20, r=1, alpha=(0.9,), seed=1)
        with pytest.raises(ValueError, match="N must be at least 16 for the double-log threshold, got 8"):
            run_replications(small, 3, tasks={"bn", "wz"}, rmax=2)


class TestSimConfigValidation:
    def test_alpha_must_be_nonincreasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SimConfig(N=40, T=40, r=2, alpha=(0.7, 0.9), seed=0)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="0.5"):
            SimConfig(N=40, T=40, r=1, alpha=(0.4,), seed=0)

    def test_ranges_alone_make_a_contiguous_design(self):
        ranges = ((0, 27), (5, 18))
        cfg = SimConfig(N=40, T=30, r=2, alpha=(0.9, 0.7), seed=12, contiguous_ranges=ranges)
        for rep in range(3):
            _, truth = simulate_panel(cfg, rep)
            for k, (start, stop) in enumerate(ranges):
                assert np.array_equal(np.nonzero(truth.support0[:, k])[0], np.arange(start, stop))

    def test_survives_pickle(self):
        # a config is plain frozen data: it round-trips through pickle
        cfg = SimConfig(N=40, T=30, r=2, alpha=(0.9, 0.7), seed=12,
                        contiguous_ranges=((0, 27), (5, 18)))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"seed": -1}, "seed must be non-negative"),
        ({"r": 0, "alpha": ()}, "r must be positive"),
        ({"alpha": (0.9,)}, "alpha has 1 entries for r = 2"),
        ({"standardize": "no"}, "standardize must be true or false"),
        ({"contiguous_ranges": ((0, 27),)}, "1 entries for 2"),
        ({"contiguous_ranges": ((0, 27), (5, 17))}, "expected 13"),
        ({"contiguous_ranges": ((0, 27), (30, 43))}, "within [0, 40]"),
        ({"contiguous_ranges": ((0, 27), (5.0, 18.0))}, "integers"),
    ])
    def test_bad_design_rejected(self, kwargs, fragment):
        base = {"N": 40, "T": 30, "r": 2, "alpha": (0.9, 0.7), "seed": 0}
        with pytest.raises(ValueError, match=re.escape(fragment)):
            SimConfig(**{**base, **kwargs})


class TestHeavyTails:
    def test_error_kurtosis_matches_t5(self):
        e, starts = gen_errors(8, 100_000, (777, 0))
        identity_rows = [s for s in range(0, 8, 4) if s not in starts]
        x = e[identity_rows[0]]
        kurt = float(np.mean(x**4) / np.mean(x**2) ** 2)
        assert abs(kurt - 9.0) <= 0.15 * 9.0


class TestContiguousRotationScenario:
    def test_q21_small_relative_to_q22(self):
        # two overlapping contiguous supports, strengths (0.9, 0.7): the
        # estimated-to-true alignment is nearly upper triangular
        from sparsefactors import pc_fit, rotation_q

        q21, q22 = [], []
        for rep in range(40):
            cfg = SimConfig(
                N=200, T=200, r=2, alpha=(0.9, 0.7), seed=161 + rep,
                contiguous_ranges=((0, 117), (96, 136)),
            )
            panel, truth = simulate_panel(cfg)
            fit = pc_fit(panel, 2)
            q, _ = rotation_q(fit.factors, truth.F0)
            q21.append(abs(q[1, 0]))
            q22.append(abs(q[1, 1]))
        assert np.median(q21) < 0.5 * np.median(q22)
