"""Estimate a sparse weak factor model and recover its loading supports.

Simulates one panel with three factors of strength (0.9, 0.75, 0.6), fits
principal components, screens the loadings, and compares the recovered
supports and strengths against the truth.
"""
import numpy as np

from sparsefactors import SimConfig, estimate, fdr_power, simulate_panel

N, T = 200, 200
cfg = SimConfig(N=N, T=T, r=3, alpha=(0.9, 0.75, 0.6), seed=42)
panel, truth = simulate_panel(cfg)
print(f"panel: {N} series x {T} periods, true strengths {cfg.alpha}")
print(f"true support sizes: {[len(s) for s in truth.supports0]}")

# estimated on the raw simulated scale, as the Monte Carlo harness does by default
est = estimate(panel, 3)
print("\ntop-3 eigenvalues of X'X/(NT):", np.round(est.fit.eigvals, 4))

sp = est.sparse
print(f"\nscreening threshold 1/sqrt(ln(NT)) = {est.threshold:.4f}")
print(f"screened support sizes: {list(sp.counts)}")
print("estimated strengths:   ", [round(a, 3) for a in est.strength.alpha_hat])
print("classification:        ", list(est.strength.labels))

print("\nsupport recovery per factor (false discovery proportion, recall):")
for k in range(3):
    fdp, power = fdr_power(truth.supports0[k], sp.supports[k])
    print(f"  factor {k + 1}: fdp={fdp:.3f}  recall={power:.3f}")

print("\nNote how the weakest factor is the hardest to pin down: its loading")
print("column absorbs contamination from the stronger factors' rotation.")
