"""Within-visit GP: fit a sparse irregular series and read the uncertainty.

One feature of one visit, observed at a handful of irregular minutes. The GP
interpolates through the observations and its predictive standard deviation
grows in the gaps and beyond the last observation, which is what makes it a
useful confidence signal for fusion.
"""

import numpy as np

from tadualcv.gp_within_visit import fit_gp, gp_impute_visit, gp_predict

nan = float("nan")

times = np.array([0, 35, 90, 160, 210, 380, 460])
truth = np.sin(times / 120.0)
observed = truth.copy()

model = fit_gp(times, observed)
print(f"fitted inverse-squared length scale: {model.alpha:.4f} (rescaled time units)")
print(f"profiled mean: {model.mu_hat:.4f}   process variance: {model.sigma2_hat:.5f}")
print(f"nugget used: {model.nugget:.2e}")

query = np.array([20, 120, 300, 430, 700])
mean, std = gp_predict(model, query)
print("\n  t     truth   mean    std")
for t, m, s in zip(query, mean, std):
    print(f"{t:5d}  {np.sin(t / 120.0):6.3f}  {m:6.3f}  {s:5.3f}")

# the visit-level helper fits every feature with >= 2 observations
values = np.column_stack([truth, truth * 0.5 + 0.2])
values[2, 0] = nan
values[5, 0] = nan
values[3, 1] = nan
result = gp_impute_visit(times, values)
print("\nvisit-level fills (event, feature) -> mean +/- std:")
for e, f in np.argwhere(~np.isnan(result.fills)):
    print(f"  ({e}, {f}) -> {result.fills[e, f]:.3f} +/- {result.stds[e, f]:.3f}")
print("skipped features:", result.skipped_features or "none")
