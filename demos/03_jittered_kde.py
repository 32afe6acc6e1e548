"""Jittered kernel density estimation on mixed data.

Jitter the discrete column, then run a plain product-kernel KDE on the
now-continuous sample. Reading the fitted density at integer points
recovers the probability mass function; averaging several independent
jitter replicates trims the extra noise the jitter adds.
"""

import numpy as np

from jitterkit import (
    ColumnSchema,
    DiscretePmf,
    GaussianConditional,
    KdeModel,
    MixedDataset,
    NoiseSpec,
    SyntheticMixedModel,
    fit_kde,
    kde_eval,
    sample_model,
)

pmf = DiscretePmf.binomial(4, 0.3)
spec = NoiseSpec(theta=0.8, nu=5, dims=1)

print("=== pure discrete: density at the atoms ===\n")
rows = sample_model(SyntheticMixedModel(margin=pmf), 5000, seed=1)
data = MixedDataset((ColumnSchema("z", "discrete_ordered"),), rows)
model = fit_kde(data, spec, num_jitters=5, seed=2)
print("z    pmf       kde (n=5000, 5 jitters)")
for z, p in zip(pmf.support, pmf.probabilities):
    print(f"{z}    {p:.4f}    {kde_eval(model, [float(z)]):.4f}")

print("\n=== replicate averaging is exact averaging ===\n")
point = [1.0]
settings = dict(kernel=model.kernel, noise=model.noise, seed=model.seed,
                bandwidths=model.bandwidths, transform=model.transform)
singles = [
    kde_eval(KdeModel.from_replicates((rep,), **settings), point)
    for rep in model.replicates
]
print("per-replicate estimates:", np.round(singles, 5).tolist())
print(f"their mean:        {np.mean(singles):.6f}")
print(f"kde_eval directly: {kde_eval(model, point):.6f}")

print("\n=== mixed data: joint density of (count, measurement) ===\n")
mixed = SyntheticMixedModel(
    margin=pmf,
    continuous=GaussianConditional(mean_intercept=0.0, mean_slope=1.0, scale_intercept=0.7),
)
rows = sample_model(mixed, 5000, seed=3)
data = MixedDataset(
    (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")), rows
)
joint = fit_kde(data, NoiseSpec(theta=0.8, nu=5, dims=1), num_jitters=3, seed=4)
print("joint density f(z, x), true value pmf(z) * normal_pdf(x; z, 0.7):")
from scipy.stats import norm

for z, x in [(1, 1.0), (2, 2.0), (2, 0.0)]:
    est = kde_eval(joint, [float(z), x])
    true = pmf.mass(z) * norm.pdf(x, loc=z, scale=0.7)
    print(f"  f({z}, {x:+.1f})  estimate {est:.4f}   true {true:.4f}")
