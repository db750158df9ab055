"""Per-key aggregation of replication records used as a reference oracle for ``aggregate``.

A copy of the fold that ``metrics.aggregate``'s declared table replaced: one
hand-written block per aggregate key, each filtering the records, gathering
one field and reducing it. It shares no code with the package; it reads the
records only through their attributes.
"""

import numpy as np


def _rmse_bias(values: np.ndarray, target: float) -> tuple[float, float]:
    err = values - target
    return float(np.sqrt(np.mean(err**2))), float(np.mean(err))


def aggregate(records, true_r: int, alpha) -> dict:
    ok = [rec for rec in records if rec.error is None]
    agg: dict = {
        "replications": len(records),
        "failed": len(records) - len(ok),
    }
    methods = sorted({m for rec in ok for m in rec.r_hat})
    agg["r_hat"] = {}
    for m in methods:
        vals = np.array([rec.r_hat[m] for rec in ok if m in rec.r_hat], dtype=float)
        rmse, bias = _rmse_bias(vals, true_r)
        agg["r_hat"][m] = {"rmse": rmse, "bias": bias, "mean": float(vals.mean())}
    for name in ("tr_f", "tr_lambda", "rmse_c", "fdr_overall", "power_overall"):
        vals = [getattr(rec, name) for rec in ok if getattr(rec, name) is not None]
        agg[f"mean_{name}"] = float(np.mean(vals)) if vals else None
    r = len(alpha)
    have_sup = [rec for rec in ok if rec.fdr is not None]
    if have_sup:
        agg["fdr"] = [float(np.mean([rec.fdr[k] for rec in have_sup])) for k in range(r)]
        agg["power"] = [float(np.mean([rec.power[k] for rec in have_sup])) for k in range(r)]
    have_alpha = [rec for rec in ok if rec.alpha_hat is not None]
    if have_alpha:
        agg["alpha_hat"] = []
        for k in range(r):
            vals = np.array([rec.alpha_hat[k] for rec in have_alpha])
            rmse, bias = _rmse_bias(vals, float(alpha[k]))
            agg["alpha_hat"].append({"rmse": rmse, "bias": bias, "mean": float(vals.mean())})
    have_sd = [rec for rec in ok if rec.sym_diff is not None]
    if have_sd:
        agg["median_sym_diff"] = [
            float(np.median([rec.sym_diff[k] for rec in have_sd])) for k in range(r)
        ]
    have_ev = [rec for rec in ok if rec.eigvals is not None]
    if have_ev:
        agg["median_eigvals"] = [
            float(np.median([rec.eigvals[k] for rec in have_ev])) for k in range(r)
        ]
    have_q = [rec for rec in ok if rec.q_lower_abs is not None]
    if have_q:
        keys = sorted(have_q[0].q_lower_abs)
        agg["median_q_lower_abs"] = {
            f"{l},{k}": float(np.median([rec.q_lower_abs[(l, k)] for rec in have_q]))
            for (l, k) in keys
        }
        agg["q_full_rank_share"] = float(
            np.mean([rec.q_min_sv > 0.05 for rec in have_q if rec.q_min_sv is not None])
        )
    return agg
