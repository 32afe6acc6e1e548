import weakref

import numpy as np
import pytest

from jitterkit import ColumnSchema, DiscretePmf, MixedDataset, NoiseSpec, jitter, sample_model

# the (theta, nu) battery exercised throughout: plain uniform noise up to
# the smooth wide-shoulder member
BATTERY = [(t, v) for t in (0.0, 0.4, 0.8) for v in (1, 2, 5)]


@pytest.fixture(params=BATTERY, ids=lambda tv: f"theta{tv[0]}_nu{tv[1]}")
def battery_spec(request) -> NoiseSpec:
    theta, nu = request.param
    return NoiseSpec(theta=theta, nu=nu, dims=1)


@pytest.fixture
def binom43() -> DiscretePmf:
    return DiscretePmf.binomial(4, 0.3)


def discrete_dataset(pmf: DiscretePmf, n: int, seed: int) -> MixedDataset:
    """Sample a one-column discrete dataset from the pmf."""
    from jitterkit import SyntheticMixedModel

    rows = sample_model(SyntheticMixedModel(margin=pmf), n, seed)
    return MixedDataset((ColumnSchema("z", "discrete_ordered"),), rows)


def mixed_dataset(model, n: int, seed: int) -> MixedDataset:
    """Sample a (z, x) dataset from a synthetic mixed model."""
    rows = sample_model(model, n, seed)
    schema = [ColumnSchema("z", "discrete_ordered")]
    if rows.shape[1] == 2:
        schema.append(ColumnSchema("x", "continuous"))
    return MixedDataset(tuple(schema), rows)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_REPLICATES = weakref.WeakKeyDictionary()  # model -> its replicates, drawn once


def jitter_replicates(model) -> list:
    """The jitter replicates ``model`` averages, drawn anew with ``jitter``
    from its origin, noise and seed, not read from the model."""
    if model not in _REPLICATES:
        _REPLICATES[model] = [jitter(model.origin, model.noise, model.seed, r)
                              for r in range(model.num_jitters)]
    return _REPLICATES[model]


# The summation-order bound. A kernel sum that adds the same terms in
# another order or grouping (a compact kernel's window walks its rows in
# the order of one column, the full walk in row order) moves by rounding
# alone:
# - a density, a sum of nonnegative terms, by at most SUMMATION_RTOL of
#   its magnitude;
# - a local linear value, the solve of such sums, by at most SUMMATION_RTOL
#   times the condition number of its local design, of the larger of its
#   magnitude and the response's. A design singular to working precision
#   keeps no digits, in either order.
# An exact 0.0 and a raised error stay exactly that.
SUMMATION_RTOL = 1e-12


def assert_summation_close(got, want, conditions=None, scale=0.0):
    """``got`` and ``want``, two lists of values or error names (see
    ``_outcome`` in the tests), agree within the summation-order bound,
    ``conditions`` holding each local linear value's condition number and
    ``scale`` the magnitude of its response."""
    assert len(got) == len(want)
    for a, b, cond in zip(got, want, conditions or [1.0] * len(got), strict=True):
        if isinstance(a, str) or isinstance(b, str) or 0.0 in (a, b):
            assert a == b
        else:
            bound = SUMMATION_RTOL * cond * max(abs(a), abs(b), scale)
            assert abs(a - b) <= bound, (a, b, cond)


def assert_sums_match_full_walk(model, points, got, want):
    """``got``, the ``kde_eval`` or ``loclin_eval`` outcomes of ``model`` at
    ``points``, match ``want``, the full walk's: exactly, unless a compact
    kernel's window walks the rows in another order, and then within the
    summation-order bound."""
    if model.order is None:
        assert got == want
    elif hasattr(model, "response_index"):
        conditions = [max(np.linalg.cond(m) for m, _ in reference_normal_equations(model, p))
                      for p in points]
        y = model.origin.rows[:, model.response_index]
        assert_summation_close(got, want, conditions, float(np.abs(y).max()))
    else:
        assert_summation_close(got, want)


def reference_product_weights(kernel, rows, columns, point, h) -> np.ndarray:
    """Product-kernel weights of ``rows`` alone, the per-replicate way:
    one column at a time in column order, the first column's factor as the
    accumulator, ``+=`` of u^2 then one floored ``exp`` (Gaussian) or
    ``*=`` of ``max(1 - u^2, 0)`` (Epanechnikov). Weights whose exponent is
    below -700 are exactly 0."""
    if not len(columns):
        return np.ones(len(rows))
    acc = None
    with np.errstate(over="ignore"):
        for c, p, hj in zip(columns, point, h):
            u = np.subtract(rows[:, c], p)
            u /= hj
            np.square(u, out=u)
            if kernel.name != "gaussian":
                u = np.maximum(1.0 - u, 0.0)
            if acc is None:
                acc = u
            elif kernel.name == "gaussian":
                acc += u
            else:
                acc *= u
    k = len(columns)
    if kernel.name == "gaussian":
        acc *= -0.5
        return np.where(acc < -700.0, 0.0, np.exp(np.maximum(acc, -700.0))) \
            * (2.0 * np.pi) ** (-0.5 * k)
    return acc * 0.75**k


def reference_kde_eval(model, point, weights=reference_product_weights,
                       chunk_rows=32_768) -> float:
    """``kde_eval`` replicate by replicate, each in chunks of
    ``chunk_rows`` rows, from ``weights(kernel, rows, columns, point, h)``."""
    h = model.effective_bandwidths
    point = np.asarray(point, dtype=float)
    vals = []
    for rep in jitter_replicates(model):
        total = 0.0
        for start in range(0, rep.n, chunk_rows):
            chunk = rep.rows[start:start + chunk_rows]
            total += float(weights(model.kernel, chunk, range(len(h)), point, h).sum())
        vals.append(total / (rep.n * float(np.prod(h))))
    return float(np.mean(vals))


def reference_normal_equations(model, x0, weights=reference_product_weights,
                               chunk_rows=32_768) -> list:
    """Per replicate, the weighted normal equations ``(m, rhs)`` of
    ``loclin_eval``'s local linear fit at ``x0``: per chunk of
    ``chunk_rows`` rows, summed in chunk order. The response is the
    origin's column unless the model jitters it."""
    cov = model.covariate_indices
    x0 = np.asarray(x0, dtype=float)
    h = model.bandwidths * model.transform.scales
    equations = []
    for rep in jitter_replicates(model):
        y = (rep if model.jitter_response else model.origin).rows[:, model.response_index]
        m = np.zeros((len(cov) + 1, len(cov) + 1))
        rhs = np.zeros(len(cov) + 1)
        for start in range(0, rep.n, chunk_rows):
            rows, ys = rep.rows[start:start + chunk_rows], y[start:start + chunk_rows]
            w = weights(model.kernel, rows, cov, x0, h)
            dx = np.empty((len(cov), len(rows)))
            for j, c in enumerate(cov):
                dx[j] = rows[:, c] - x0[j]
            wdx = dx * w
            cm = np.empty_like(m)
            cm[0, 0] = w.sum()
            cm[0, 1:] = cm[1:, 0] = wdx.sum(axis=1)
            cm[1:, 1:] = wdx @ dx.T
            wy = w * ys
            m += cm
            rhs += np.concatenate(([wy.sum()], dx @ wy))
        equations.append((m, rhs))
    return equations


def reference_loclin_eval(model, x0, weights=reference_product_weights,
                          chunk_rows=32_768) -> float:
    """``loclin_eval`` replicate by replicate: each replicate's solve of
    :func:`reference_normal_equations`."""
    from jitterkit import NoLocalDataError, estimators

    estimates = []
    for r, (m, rhs) in enumerate(reference_normal_equations(model, x0, weights, chunk_rows)):
        if not m[0, 0] > 1e-12:
            raise NoLocalDataError(f"total kernel weight {m[0, 0]} (replicate {r})")
        estimates.append(estimators._weighted_local_fit(m, rhs))
    return float(np.mean(estimates))


def reference_covariate_weights(model, covariate_point):
    """A KDE slice's covariate weights, stacked over all R * n replicate
    rows, replicate by replicate from ``reference_product_weights``, and
    the product of the covariates' bandwidths."""
    cov = sorted(covariate_point)
    h = model.effective_bandwidths[cov]
    point = [float(covariate_point[j]) for j in cov]
    w = np.concatenate([reference_product_weights(model.kernel, rep.rows, cov, point, h)
                        for rep in jitter_replicates(model)])
    return w, float(np.prod(h))


def reference_kde_response_slice(model, response_index, covariate_point, weights=None):
    """A KDE's response slice the stacked way: the response column of all
    R replicates concatenated, and every kernel pass and weighted sum
    taken over those R * n values, jittered or not."""
    from jitterkit import ResponseSlice, regression

    w, cov_norm = weights if weights is not None else reference_covariate_weights(
        model, covariate_point)
    h = model.effective_bandwidths
    h_resp = float(h[response_index])
    kernel = model.kernel
    resp = np.concatenate([rep.rows[:, response_index] for rep in jitter_replicates(model)])
    norm = len(resp) * h_resp * cov_norm
    observed = model.origin.rows[:, response_index]
    pad = regression._WINDOW_BANDWIDTHS * float(h.max()) + 1.0
    lower, upper = float(observed.min()) - pad, float(observed.max()) + pad

    def offsets_and_cdf(t):
        u = (t - resp) / h_resp
        return t, u, kernel.cdf(u)

    ends = (offsets_and_cdf(lower), offsets_and_cdf(upper))
    last = [ends[0]]

    def at(t):
        for kept in (*ends, last[0]):
            if kept[0] == t:
                return kept
        kept = last[0] = offsets_and_cdf(t)
        return kept

    def density(s):
        kept = last[0]
        u = kept[1] if kept[0] == s else (s - resp) / h_resp
        return float((w * kernel.profile(u)).sum()) / norm

    def integral(a, b):
        (_, _, ca), (_, _, cb) = at(a), at(b)
        return float((w * (cb - ca)).sum()) * h_resp / norm

    def first_moment(a, b):
        (_, ua, ca), (_, ub, cb) = at(a), at(b)
        centres = resp * (cb - ca)
        spreads = h_resp * (kernel.partial_moment(ub) - kernel.partial_moment(ua))
        return float((w * (centres + spreads)).sum()) * h_resp / norm

    return ResponseSlice(density=density, lower=lower, upper=upper,
                         response_min=float(observed.min()),
                         response_max=float(observed.max()),
                         integral=integral, first_moment=first_moment)
