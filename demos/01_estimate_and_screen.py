"""Estimate a sparse weak factor model and recover its loading supports.

Simulates one panel with three factors of strength (0.9, 0.75, 0.6), fits
principal components, screens the loadings, and compares the recovered
supports and strengths against the truth. A support is an N x r boolean
mask: column k marks the units that load on factor k.
"""
import numpy as np

from sparsefactors import SimConfig, estimate, fdr_power, simulate_panel

N, T = 200, 200
cfg = SimConfig(N=N, T=T, r=3, alpha=(0.9, 0.75, 0.6), seed=42)
panel, truth = simulate_panel(cfg)
print(f"panel: {N} series x {T} periods, true strengths {cfg.alpha}")
print(f"true support sizes: {truth.support0.sum(axis=0).tolist()}")

# estimated on the raw simulated scale, as the Monte Carlo harness does by default
est = estimate(panel, 3)
print("\ntop-3 eigenvalues of X'X/(NT):", np.round(est.fit.eigvals, 4))

sp = est.sparse
print(f"\nscreening threshold 1/sqrt(ln(NT)) = {est.threshold:.4f}")
print(f"screened support sizes: {list(sp.counts)}")
print("estimated strengths:   ", [round(a, 3) for a in est.strength.alpha_hat])
print("classification:        ", list(est.strength.labels))

print("\nsupport recovery per factor (false discovery proportion, recall):")
fdps, powers = fdr_power(truth.support0, sp.support)
for k, (fdp, power) in enumerate(zip(fdps, powers), start=1):
    print(f"  factor {k}: fdp={fdp:.3f}  recall={power:.3f}")

print("\nNote how the weakest factor is the hardest to pin down: its loading")
print("column absorbs contamination from the stronger factors' rotation.")
