"""Compare four factor-number selection rules on weak-factor panels.

The SVT rule keeps every eigenvalue above sigma2 * N^(-1/2) * sqrt(ln ln N);
the classics (IC_p1, edge distribution, eigenvalue ratio) are run on the
same eigendecomposition for contrast. The eigenvalue-ratio rule tends to
collapse when the factors have very different strengths.
"""
from sparsefactors import SimConfig, select_r, simulate_panel

for n in (100, 200, 400):
    cfg = SimConfig(N=n, T=n, r=3, alpha=(0.9, 0.75, 0.6), seed=7)
    panel, _ = simulate_panel(cfg)
    out = select_r(panel, ["wz", "bn", "ed", "ah"], rmax=8)
    row = "  ".join(f"{m}={out[m].r_hat}" for m in ("wz", "bn", "ed", "ah"))
    print(f"N=T={n:3d} (true r=3):  {row}")

print()
cfg = SimConfig(N=200, T=200, r=3, alpha=(0.9, 0.75, 0.6), seed=7)
panel, _ = simulate_panel(cfg)
res = select_r(panel, ["wz"], rmax=8)["wz"]
print("SVT diagnostics at N=T=200 (eigenvalue vs threshold):")
for k, stat, thr in res.diagnostics:
    marker = "<== keep" if stat >= thr else ""
    print(f"  k={k}: {stat:.4f} vs {thr:.4f} {marker}")
print(f"chosen r_hat = {res.r_hat}")
