"""
Fitting a latent-trait model and filling in missing answers
===========================================================

A complete walk through the core loop: simulate survey-style data from
known item parameters, delete a third of one column completely at random,
fit the model on what is left, and compare the imputed categories with
the values that were deleted.
"""

import numpy as np

from irtimpute import (
    FitConfig,
    diagnostics_report,
    eap_score,
    fit,
    impute_dataset,
    inject_mcar,
    report_text,
    score,
    simulate_dataset,
    simulate_items,
)

# ten graded (ordinal, 4-category) items answered by 1,500 cases whose
# latent trait is standard normal
rng = np.random.default_rng(20)
items = simulate_items("grm", 10, rng, n_categories=4)
truth = simulate_dataset(items, 1500, seed=21)
print(f"simulated {truth.n_rows} cases x {truth.n_cols} items")

# delete 30% of one column, then fit on the damaged data
holed = inject_mcar(truth, "item03", fraction=0.3, seed=22)
model = fit(holed, FitConfig(seed=0))
print()
print(diagnostics_report(model))

# how well did the slopes come back?
true_slopes = [item.a for item in items]
est_slopes = [item.a for item in model.items]
corr = np.corrcoef(true_slopes, est_slopes)[0, 1]
print(f"slope recovery correlation: {corr:.3f}")

# score a couple of cases: the posterior mean moves with the answers,
# and a case with nothing observed falls back to the prior
low = eap_score([0] * 10, model)
high = eap_score([3] * 10, model)
blank = eap_score([-1] * 10, model)
print(f"all-lowest pattern:  trait {low.eap_mean:+.2f} "
      f"(sd {low.posterior_sd:.2f})")
print(f"all-highest pattern: trait {high.eap_mean:+.2f} "
      f"(sd {high.posterior_sd:.2f})")
print(f"all-missing pattern: trait {blank.eap_mean:+.2f} "
      f"(sd {blank.posterior_sd:.2f})  <- the prior")

# fill in every deleted cell with its most probable category and score
# against the values we held back
result = impute_dataset(holed, model)
print(f"\nimputed {len(result.mask)} cells; first three with their "
      "category probabilities:")
# result.mask holds (row, column) positions; each row of
# result.probabilities is NaN past its column's category count
for (row, col), probs in zip(result.mask[:3].tolist(),
                             result.probabilities[:3]):
    filled = int(result.completed.cells[row, col])
    print(f"  case {row:4d} -> category {filled}   "
          f"p = {np.round(probs[~np.isnan(probs)], 3)}")

print()
print(report_text(score(truth, result)))
