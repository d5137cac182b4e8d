"""Chained equations on a raw matrix: donors, pooling, and dispersion.

Two stories on one small matrix. First, an exactly linear relation with a
duplicated predictor row, where predictive mean matching finds the donor with
an identical prediction and nails the fill. Second, a noisy matrix where the
five pooled chains disagree, which is exactly the dispersion signal the
fusion stage feeds on.
"""

import numpy as np

from tadualcv.chained_equations import run_chains

nan = float("nan")

# --- exact recovery -------------------------------------------------------
x = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
matrix = np.column_stack([x, 2.0 * x])
matrix[3, 1] = nan
print("matrix with a hole (y = 2x, duplicated x at the hole):")
print(matrix)

result = run_chains(matrix, m=5, t=10, master_seed=0)
print("hole cells (row, column):", result.cells.tolist())
print("per-chain fills:", result.per_chain_fills.ravel())
print("pooled fill:", result.pooled_fill[0], "(truth 6.0)")
print("cross-chain std:", result.per_cell_std[0])

# --- dispersion under noise -------------------------------------------------
rng = np.random.default_rng(1)
base = rng.normal(size=(40, 1)) @ rng.normal(size=(1, 4)) + 0.3 * rng.normal(size=(40, 4))
holes = rng.random(base.shape) < 0.3
noisy = np.where(holes, nan, base)

result = run_chains(noisy, m=5, t=10, master_seed=1)
print(f"\nnoisy 40x4 matrix: {len(result.cells)} holes filled")
print(f"mean cross-chain std: {result.per_cell_std.mean():.3f}")
print(f"max  cross-chain std: {result.per_cell_std.max():.3f}")

# every chain's fill is a value that was actually observed in its column (PMM)
for chain_fills in result.per_chain_fills:
    for (r, c), fill in zip(result.cells, chain_fills):
        assert fill in noisy[~np.isnan(noisy[:, c]), c]
print("all fills are members of their column's observed-value set")

completed = result.completed(noisy)
print("completed matrix has no holes:", not np.isnan(completed).any())
