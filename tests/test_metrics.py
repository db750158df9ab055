import dataclasses
import json

import numpy as np
import pytest

from sparsefactors import (
    InvalidArgumentError,
    Panel,
    SimConfig,
    fdr_power,
    pc_fit,
    pooled_fdr_power,
    rmse_c,
    rotation_q,
    simulate_panel,
    symm_diff_ratio,
    trace_stat_f,
    trace_stat_lambda,
)
from sparsefactors import metrics
from sparsefactors.metrics import ReplicationRecord, aggregate
import aggregate_oracle
import support_oracle as oracle
from support_oracle import mask


class TestTraceStats:
    def test_same_matrix_gives_one(self):
        f0 = np.random.default_rng(0).normal(size=(40, 3))
        assert trace_stat_f(f0, f0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spans_give_zero(self):
        f0 = np.zeros((10, 2))
        f0[:5, 0] = 1.0
        f0[:5, 1] = np.arange(5) - 2.0
        fh = np.zeros((10, 2))
        fh[5:, 0] = 1.0
        fh[5:, 1] = np.arange(5.0)
        assert trace_stat_f(f0, fh) == pytest.approx(0.0, abs=1e-10)

    def test_invariant_to_invertible_mixing(self):
        rng = np.random.default_rng(1)
        f0 = rng.normal(size=(30, 3))
        m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        assert trace_stat_f(f0, f0 @ m) == pytest.approx(1.0, abs=1e-10)

    def test_lambda_variant_matches_f_variant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(25, 2))
        b = rng.normal(size=(25, 2))
        assert trace_stat_lambda(a, b) == pytest.approx(trace_stat_f(a, b), abs=1e-14)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(15, 2))
            b = rng.normal(size=(15, 2))
            v = trace_stat_f(a, b)
            assert -1e-10 <= v <= 1.0 + 1e-10

    def test_singular_estimate_rejected(self):
        f0 = np.random.default_rng(4).normal(size=(10, 2))
        with pytest.raises(ValueError):
            trace_stat_f(f0, np.zeros((10, 2)))


def dense_rmse_c(lambda0, f0, lambda_hat, f_hat):
    """The definition, on the N x T components."""
    return float(np.sqrt(np.mean((lambda_hat @ f_hat.T - lambda0 @ f0.T) ** 2)))


class TestRmseC:
    def test_identical(self):
        rng = np.random.default_rng(5)
        lam, f = rng.normal(size=(6, 2)), rng.normal(size=(7, 2))
        assert rmse_c(lam, f, lam, f) == 0.0

    def test_unit_shift(self):
        rng = np.random.default_rng(6)
        lam, f = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        ones = np.ones((5, 1))
        shifted = rmse_c(lam, f, np.hstack((lam, ones)), np.hstack((f, ones)))  # C + 11'
        assert shifted == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_sign_matrix(self):
        rng = np.random.default_rng(7)
        lam, f = rng.normal(size=(8, 3)), rng.normal(size=(9, 3))
        signs = rng.choice([-1.0, 1.0], size=(8, 9))
        eps = 0.037
        c_hat = (np.hstack((lam, eps * np.eye(8))), np.hstack((f, signs.T)))  # C + eps * signs
        assert rmse_c(lam, f, *c_hat) == pytest.approx(eps, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):  # rows
            rmse_c(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(InvalidArgumentError):  # periods
            rmse_c(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((3, 1)))

    @pytest.mark.parametrize("standardize", [False, True])
    @pytest.mark.parametrize("n, t, r_fit", [(100, 100, 3), (60, 150, 3), (150, 40, 2), (80, 80, 5)])
    def test_matches_dense_definition(self, standardize, n, t, r_fit):
        cfg = SimConfig(N=n, T=t, r=3, alpha=(0.9, 0.75, 0.6), seed=13, standardize=standardize)
        panel, truth = simulate_panel(cfg)
        lam0, f0 = truth.on_estimation_scale()
        fit = pc_fit(panel, r_fit)
        dense = dense_rmse_c(lam0, f0, fit.loadings, fit.factors)
        assert rmse_c(lam0, f0, fit.loadings, fit.factors) == pytest.approx(dense, rel=1e-12)

    def test_standardized_truth_is_the_standardized_common_component(self):
        cfg = SimConfig(N=40, T=50, r=3, alpha=(0.9, 0.75, 0.6), seed=13, standardize=True)
        _, truth = simulate_panel(cfg)
        c0 = truth.Lambda0 @ truth.F0.T
        lam0, f0 = truth.on_estimation_scale()
        expected = (c0 - c0.mean(axis=1, keepdims=True)) / truth.scale[:, None]
        assert np.max(np.abs(lam0 @ f0.T - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_fit_is_finite_and_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        lam0, f0 = rng.normal(size=(30, 3)), rng.normal(size=(45, 3))
        c0 = lam0 @ f0.T
        fit = pc_fit(Panel(c0, [f"s{i}" for i in range(30)], [f"t{j}" for j in range(45)]), 3)
        value = rmse_c(lam0, f0, fit.loadings, fit.factors)  # the square cancels to roundoff
        assert np.isfinite(value) and 0.0 <= value < 1e-6 * np.sqrt(np.mean(c0**2))


class TestFdrPower:
    def test_perfect_recovery(self):
        assert fdr_power(mask(5, {1, 2, 3}), mask(5, {1, 2, 3})) == ((0.0,), (1.0,))

    def test_empty_estimate(self):
        assert fdr_power(mask(5, {1, 2}), mask(5, set())) == ((0.0,), (0.0,))

    def test_empty_truth(self):
        (fdp,), (power,) = fdr_power(mask(6, set()), mask(6, {4, 5}))
        assert fdp == 1.0 and power == 0.0

    def test_hand_case(self):
        (fdp,), (power,) = fdr_power(mask(7, {1, 2, 3, 4}), mask(7, {3, 4, 5, 6}))
        assert fdp == pytest.approx(0.5)
        assert power == pytest.approx(0.5)

    def test_per_column(self):
        fdp, power = fdr_power(mask(7, {1, 2, 3, 4}, {1, 2}), mask(7, {3, 4, 5, 6}, {2}))
        assert fdp == (0.5, 0.0) and power == (0.5, 0.5)

    def test_pooled_reduces_to_single_factor(self):
        s, sh = mask(10, {1, 2, 3}), mask(10, {2, 3, 9})
        assert pooled_fdr_power(s, sh) == tuple(v for (v,) in fdr_power(s, sh))

    def test_pooled_counts_cells(self):
        fdp, power = pooled_fdr_power(mask(5, {1}, {1, 2}), mask(5, {1}, {3}))
        # truth cells: (0,1),(1,1),(1,2); estimate cells: (0,1),(1,3)
        assert fdp == pytest.approx(0.5)
        assert power == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("est", [np.zeros((5, 1), bool), np.zeros((4, 2), bool), np.zeros(5, bool)])
    def test_masks_of_another_shape_rejected(self, est):
        for metric in (fdr_power, pooled_fdr_power):
            with pytest.raises(InvalidArgumentError, match="masks of one shape"):
                metric(np.zeros((5, 2), bool), est)


def test_support_metrics_match_the_set_oracle():
    """The mask counts equal the set formulas on random masks, empty and full columns included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    def masks(shape):  # random cells, or an all-empty or all-full mask
        return hnp.arrays(bool, shape) | st.sampled_from([np.zeros(shape, bool), np.ones(shape, bool)])

    pairs = st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
        masks(shape), masks(shape), st.lists(st.floats(0.05, 1.0), min_size=shape[1], max_size=shape[1])))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(pairs)
    def check(pair):
        truth, est, alpha = pair
        n = truth.shape[0]
        s, sh = oracle.column_sets(truth), oracle.column_sets(est)
        by_column = [oracle.fdr_power(a, b) for a, b in zip(s, sh)]
        (fdp, power), pooled = fdr_power(truth, est), pooled_fdr_power(truth, est)
        ratios = symm_diff_ratio(truth, est, alpha)
        assert (fdp, power) == (tuple(f for f, _ in by_column), tuple(p for _, p in by_column))
        assert pooled == oracle.pooled_fdr_power(s, sh)
        assert ratios == tuple(oracle.symm_diff_ratio(a, b, al, n) for a, b, al in zip(s, sh, alpha))
        assert all(type(v) is float for v in fdp + power + pooled + ratios)  # as the records keep them

    check()


class TestRotationQ:
    def test_identity_alignment(self):
        rng = np.random.default_rng(8)
        t = 64
        q_mat, _ = np.linalg.qr(rng.normal(size=(t, 2)))
        f0 = np.sqrt(t) * q_mat  # F0'F0/T = I by construction
        q, summary = rotation_q(f0, f0)
        assert np.max(np.abs(q - np.eye(2))) < 1e-10
        assert summary["min_singular_value"] == pytest.approx(1.0, abs=1e-10)
        assert summary["lower_abs"] == {(2, 1): pytest.approx(0.0, abs=1e-12)}


class TestAggregate:
    def test_exact_fold(self):
        recs = [
            ReplicationRecord(rep=0, r_hat={"wz": 3}, tr_f=0.9, fdr=(0.1,), power=(0.8,),
                              alpha_hat=(0.85,), sym_diff=(0.2,)),
            ReplicationRecord(rep=1, r_hat={"wz": 2}, tr_f=0.7, fdr=(0.3,), power=(0.6,),
                              alpha_hat=(0.75,), sym_diff=(0.4,)),
        ]
        agg = aggregate(recs, true_r=3, alpha=(0.8,))
        assert agg["r_hat"]["wz"]["bias"] == pytest.approx(-0.5)
        assert agg["r_hat"]["wz"]["rmse"] == pytest.approx(np.sqrt(0.5))
        assert agg["mean_tr_f"] == pytest.approx(0.8)
        assert agg["fdr"] == [pytest.approx(0.2)]
        assert agg["power"] == [pytest.approx(0.7)]
        assert agg["alpha_hat"][0]["bias"] == pytest.approx(0.0, abs=1e-12)
        assert agg["median_sym_diff"] == [pytest.approx(0.3)]

    def test_failed_reps_are_counted_not_fatal(self):
        recs = [
            ReplicationRecord(rep=0, r_hat={"wz": 3}),
            ReplicationRecord(rep=1, error="RuntimeError: boom"),
        ]
        agg = aggregate(recs, true_r=3, alpha=(0.9, 0.7, 0.6))
        assert agg["failed"] == 1
        assert agg["r_hat"]["wz"]["mean"] == 3.0

    def test_every_record_field_is_folded_once(self):
        """A statistic added to ReplicationRecord cannot be silently missing from the report."""
        fields = [f.name for f in dataclasses.fields(ReplicationRecord) if f.name not in ("rep", "error")]
        assert sorted(name for name, *_ in metrics._FOLD) == sorted(fields)
        assert len({key for _, key, *_ in metrics._FOLD}) == len(metrics._FOLD)


def test_aggregate_matches_the_per_key_oracle():
    """The declared fold gives the per-key fold's aggregates bit for bit: failed replications,
    fields that are None, methods missing from some r_hat dicts, rotation-only and
    selector-only records, and batches where every replication failed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    num = st.floats(-3.0, 3.0, allow_nan=False)

    @st.composite
    def batches(draw):
        r = draw(st.integers(1, 3))
        alpha = tuple(draw(st.lists(st.floats(0.5, 1.0), min_size=r, max_size=r)))
        per_factor = st.tuples(*[num] * r)

        def maybe(values):
            return draw(st.none() | values)

        methods = st.dictionaries(st.sampled_from(["ah", "bn", "ed", "wz"]), st.integers(0, 8))
        records = []
        for rep in range(draw(st.integers(0, 8))):
            rec = ReplicationRecord(
                rep=rep, r_hat=draw(methods),
                tr_f=maybe(num), tr_lambda=maybe(num), rmse_c=maybe(num), eigvals=maybe(per_factor),
                fdr_overall=maybe(num), power_overall=maybe(num), alpha_hat=maybe(per_factor),
                sym_diff=maybe(per_factor), error=maybe(st.just("RuntimeError: boom")))
            if draw(st.booleans()):  # fdr_power gives both, and the per-key fold reads them together
                rec.fdr, rec.power = draw(per_factor), draw(per_factor)
            if draw(st.booleans()):  # as rotation_q's summary gives them
                rec.q_lower_abs = {(l + 1, k + 1): draw(num) for l in range(r) for k in range(l)}
                rec.q_min_sv = draw(st.floats(0.0, 0.1))
            records.append(rec)
        return records, draw(st.integers(1, 4)), alpha

    alpha = (0.9, 0.7)
    failed = [ReplicationRecord(rep=i, r_hat={"wz": 2}, tr_f=0.9, error="ValueError: x") for i in range(3)]
    rotation = [ReplicationRecord(rep=i, q_lower_abs={(2, 1): 0.1 * i}, q_min_sv=0.04 + 0.01 * i)
                for i in range(3)]
    selectors = [ReplicationRecord(rep=i, r_hat={"bn": i, "wz": 2} if i else {"wz": 3}) for i in range(3)]

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(batches())
    @hypothesis.example((failed, 2, alpha))
    @hypothesis.example((rotation, 2, alpha))
    @hypothesis.example((selectors, 2, alpha))
    def check(batch):
        records, true_r, alpha = batch
        assert (json.dumps(aggregate(records, true_r, alpha), sort_keys=True)
                == json.dumps(aggregate_oracle.aggregate(records, true_r, alpha), sort_keys=True))

    check()
