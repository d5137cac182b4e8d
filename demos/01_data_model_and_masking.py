"""Walk through the data model: visits, validation, masking, and scoring.

Builds a tiny two-visit dataset by hand, hides a few observed values while
keeping their truths, and scores a deliberately mediocre imputation so the
whole bookkeeping loop is visible in one place.
"""

import numpy as np

from tadualcv import (
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    apply_mask,
    mask_random,
    nrmse,
    restore_mask,
    validate,
)
from tadualcv.data_model import median_event_count

nan = float("nan")

features = [
    FeatureSpec(0, "HeartRate", "vital"),
    FeatureSpec(1, "Creatinine", "lab"),
]
visits = [
    Visit("stay-001", [0, 45, 130], [[82.0, 1.1], [88.0, nan], [79.0, 1.4]]),
    Visit("stay-002", [10, 60], [[95.0, 2.0], [nan, 1.8]]),
]
dataset = Dataset(features, visits)

print("validation problems:", validate(dataset) or "none")
print("median events per visit:", median_event_count(dataset))
print("observed cells:", dataset.n_observed_cells())

mask = mask_random(dataset, rate=0.5, seed=3)
# a mask is four parallel arrays: where each hidden cell is, and its truth
print(f"\nmasked {len(mask)} cells at rate 0.5:")
for i, e, f, truth in zip(mask.visit, mask.event, mask.feature, mask.truth.tolist()):
    visit = dataset.visits[i]
    name = features[f].name
    print(f"  {visit.visit_id} t={visit.times[e]:>3} {name:<10} truth={truth}")

masked = apply_mask(dataset, mask)
print("\nmasked visit stay-001 values:\n", masked.visits[0].values)

# restoring the truths gives back the original, bit for bit
restored = restore_mask(masked, mask)
assert all(
    np.array_equal(a.values, b.values, equal_nan=True)
    for a, b in zip(dataset.visits, restored.visits)
)
print("restore round-trip: exact")

# score a lazy "impute everything as 85 / 1.5" guess
lazy = [
    Visit(v.visit_id, v.times, np.where(np.isnan(v.values), [85.0, 1.5], v.values))
    for v in masked.visits
]
report = nrmse(mask, Dataset(features, lazy), dataset, variant="lazy-constant")
print("\nper-feature nRMSE of the lazy guess:")
for f, score in report.per_feature_nrmse.items():
    print(f"  {features[f].name:<10} {score:.3f} over {report.per_feature_masked[f]} cells")
print(f"macro nRMSE: {report.macro_nrmse:.3f}")
