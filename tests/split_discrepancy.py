"""D(D0, D1) of two datasets, by the library's one route to it."""

import numpy as np

from cfmc import ScoredDataset, SplitPlan, cf_split_estimate


def split_discrepancy(d0, d1, params, lambda_=None) -> float:
    """The discrepancy that ``cf_split_estimate`` attaches to the split of d0
    stacked over d1 into its first ``d0.n`` rows and the rest."""
    data = ScoredDataset(
        np.vstack([d0.points, d1.points]),
        np.vstack([d0.scores, d1.scores]),
        np.concatenate([d0.f_values, d1.f_values]),
    )
    plan = SplitPlan(np.arange(d0.n), np.arange(d0.n, data.n))
    return cf_split_estimate(data, plan, params, lambda_, compute_discrepancy=True).discrepancy
