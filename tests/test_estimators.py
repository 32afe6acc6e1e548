"""Jittered KDE and local linear regression."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from jitterkit import (
    ColumnSchema,
    DiscretePmf,
    FunctionalQuery,
    InsufficientDataError,
    InvalidParameterError,
    JitteredDataset,
    KdeModel,
    LocLinModel,
    MixedDataset,
    NoLocalDataError,
    NoiseSpec,
    SchemaError,
    Standardization,
    SyntheticMixedModel,
    cond_mean,
    fit_kde,
    fit_loclin,
    get_kernel,
    jitter,
    kde_eval,
    load_model,
    loclin_eval,
    sample_model,
    save_model,
    select_bandwidth,
)

from jitterkit import JitterkitError, estimators
from conftest import discrete_dataset

SPEC = NoiseSpec(theta=0.8, nu=5, dims=1)
NO_DISCRETE = NoiseSpec(theta=0.8, nu=5, dims=0)
_PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _continuous_dataset(n=100, seed=3, slope=3.0, intercept=0.0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = intercept + slope * x + noise * rng.normal(size=n)
    schema = (ColumnSchema("y", "continuous"), ColumnSchema("x", "continuous"))
    return MixedDataset(schema, np.column_stack([y, x]))


def _mixed_dataset(num_discrete, n, seed):
    """``num_discrete`` binomial columns, then two continuous columns that
    depend on them: a covariate x and a response y."""
    rng = np.random.default_rng(seed)
    z = rng.binomial(4, 0.3, size=(n, num_discrete)).astype(float)
    x = z.sum(axis=1) * 0.5 + rng.normal(size=n)
    y = np.sin(x) + z[:, 0] ** 2 + 0.3 * rng.normal(size=n)
    schema = tuple(ColumnSchema(f"z{j}", "discrete_ordered") for j in range(num_discrete))
    schema += (ColumnSchema("x", "continuous"), ColumnSchema("y", "continuous"))
    return MixedDataset(schema, np.column_stack([z, x, y]))


class TestKernelShape:
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_symmetric_unit_mass_density(self, kernel_name):
        kernel = get_kernel(kernel_name)
        u = np.linspace(-8, 8, 20001)
        vals = kernel.profile(u)
        assert np.all(vals >= 0)
        assert_allclose(vals, kernel.profile(-u), atol=0)
        assert scipy.integrate.simpson(vals, x=u) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_antiderivatives(self, kernel_name):
        kernel = get_kernel(kernel_name)
        u = np.array([-9.0, -1.5, -1.0, -0.3, 0.0, 0.6, 1.0, 2.5])
        mass = [scipy.integrate.quad(kernel.profile, -10.0, v, points=[-1, 1], limit=200)[0]
                for v in u]
        moment = [scipy.integrate.quad(lambda t: t * kernel.profile(t), -10.0, v,
                                       points=[-1, 1], limit=200)[0] for v in u]
        assert_allclose(kernel.cdf(u), mass, atol=1e-12)
        assert_allclose(kernel.partial_moment(u), moment, atol=1e-12)

    def test_epanechnikov_compact_support(self):
        kernel = get_kernel("epanechnikov")
        assert kernel.profile(np.array([-1.001, 1.001])).tolist() == [0.0, 0.0]
        assert kernel.profile(np.array([0.0]))[0] == 0.75

    def test_unknown_kernel(self):
        with pytest.raises(InvalidParameterError):
            get_kernel("triweight")


class TestSelectBandwidth:
    def test_formula_value(self):
        # (4/3)^(1/5) * 100^(-1/5) = 1.05922384... * 0.39810717... = 0.42168...
        b = select_bandwidth(np.zeros((100, 1)))
        assert_allclose(b, [(4.0 / 3.0) ** 0.2 * 100 ** -0.2], atol=1e-15)
        assert b[0] == pytest.approx(0.4216847, abs=1e-6)

    def test_quadruple_n_scaling(self):
        b1 = select_bandwidth(np.zeros((250, 1)))[0]
        b4 = select_bandwidth(np.zeros((1000, 1)))[0]
        assert b4 / b1 == pytest.approx(4.0 ** -0.2, abs=1e-12)

    def test_identical_across_coordinates(self):
        b = select_bandwidth(np.zeros((100, 2)))
        assert b[0] == b[1]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            select_bandwidth(np.zeros((1, 1)))


class TestFitKde:
    def test_single_replicate_composition(self, binom43):
        ds = discrete_dataset(binom43, 300, seed=0)
        model = fit_kde(ds, SPEC, seed=17)
        expected = jitter(ds, SPEC, seed=17, replicate_index=0)
        assert model.num_jitters == 1
        assert_array_equal(model.replicates[0].rows, expected.rows)

    def test_bandwidth_override_verbatim(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=0)
        model = fit_kde(ds, SPEC, seed=1, bandwidth=0.5)
        assert_array_equal(model.bandwidths, [0.5])

    def test_zero_jitters_rejected(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=0)
        with pytest.raises(InvalidParameterError):
            fit_kde(ds, SPEC, num_jitters=0)

    def test_too_few_rows(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=0)
        one = MixedDataset(ds.schema, ds.rows[:1])
        with pytest.raises(InsufficientDataError):
            fit_kde(one, SPEC)

    def test_categorical_rejected(self):
        schema = (ColumnSchema("c", "categorical", ("a", "b")),)
        ds = MixedDataset(schema, np.array([[0.0], [1.0], [0.0]]))
        with pytest.raises(SchemaError):
            fit_kde(ds, NoiseSpec(theta=0.0, nu=1, dims=0))


def _single_point_model(kernel_name="gaussian"):
    """Hand-built model: one jittered observation, identity transform,
    bandwidth 1, so the estimate at the observation is exactly K(0)."""
    origin = MixedDataset((ColumnSchema("z", "discrete_ordered"),), np.array([[0.0]]))
    rep = JitteredDataset(origin=origin, noise=SPEC, seed=0, replicate_index=0,
                          rows=np.array([[0.1]]))
    return KdeModel(
        kernel=get_kernel(kernel_name),
        noise=SPEC,
        seed=0,
        bandwidths=np.array([1.0]),
        transform=Standardization(means=np.array([0.0]), scales=np.array([1.0])),
        replicates=(rep,),
    )


def _brute_kde(model, point):
    """Independent route: standardize rows and point explicitly, apply the
    textbook product-kernel formula, then divide by the Jacobian."""
    b = model.bandwidths
    u = model.transform.apply(np.asarray(point, dtype=float))
    total = 0.0
    for rep in model.replicates:
        c = model.transform.apply(rep.rows)
        k = model.kernel.profile((c - u) / b).prod(axis=1)
        total += k.sum() / (rep.n * np.prod(b))
    return total / model.num_jitters * np.prod(1.0 / model.transform.scales)


def _mixed_kde(kernel_name, num_discrete, d, n=50, seed=0):
    ds = _mixed_dataset(num_discrete, n, seed)
    ds = MixedDataset(ds.schema[:d], ds.rows[:, :d])
    return fit_kde(ds, NoiseSpec(0.8, 5, dims=num_discrete), kernel=get_kernel(kernel_name),
                   num_jitters=2, seed=seed + 1)


def _dyadic_model(kernel_name, d):
    """Hand-built model: bandwidth 0.5, identity transform and rows on the
    0.25 grid, so grid points at exactly |u| = 1 from a row are exact."""
    rows = np.random.default_rng(d).integers(-8, 9, size=(50, d)) * 0.25
    origin = MixedDataset(tuple(ColumnSchema(f"c{j}", "continuous") for j in range(d)), rows)
    rep = JitteredDataset(origin=origin, noise=NO_DISCRETE, seed=0, replicate_index=0,
                          rows=rows)
    return KdeModel(
        kernel=get_kernel(kernel_name),
        noise=NO_DISCRETE,
        seed=0,
        bandwidths=np.full(d, 0.5),
        transform=Standardization(means=np.zeros(d), scales=np.ones(d)),
        replicates=(rep,),
    )


class TestKdeEval:
    def test_single_observation_kernel_value(self):
        model = _single_point_model()
        assert kde_eval(model, [0.1]) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                       abs=1e-15)

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_matches_standardized_route(self, binom43, kernel_name):
        ds = discrete_dataset(binom43, 400, seed=2)
        model = fit_kde(ds, SPEC, kernel=get_kernel(kernel_name), num_jitters=3, seed=5)
        rng = np.random.default_rng(0)
        for p in rng.uniform(-1.0, 5.0, 25):
            assert kde_eval(model, [p]) == pytest.approx(_brute_kde(model, [p]),
                                                         abs=1e-14, rel=1e-12)

    def test_far_point_negligible(self, binom43):
        ds = discrete_dataset(binom43, 200, seed=1)
        model = fit_kde(ds, SPEC, seed=1)
        far = ds.rows[:, 0].max() + 12 * model.effective_bandwidths[0]
        assert kde_eval(model, [far]) < 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("huge", [1e300, -1e300])
    def test_huge_coordinate_weighs_nothing(self, binom43, kernel_name, huge):
        # (x - p) / h squares to inf there: a weight of exactly 0, and no warning
        ds = discrete_dataset(binom43, 200, seed=1)
        model = fit_kde(ds, SPEC, kernel=get_kernel(kernel_name), seed=1)
        assert kde_eval(model, [huge]) == 0.0

    @_PROPERTIES
    @given(st.sampled_from(["gaussian", "epanechnikov"]), st.integers(2, 200),
           st.integers(0, 10_000), st.integers(1, 3),
           st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=20))
    def test_nonnegative_everywhere(self, kernel_name, n, seed, num_jitters, points):
        ds = discrete_dataset(DiscretePmf.binomial(4, 0.3), n, seed=seed)
        model = fit_kde(ds, SPEC, kernel=get_kernel(kernel_name), num_jitters=num_jitters,
                        seed=seed)
        for p in points:
            assert kde_eval(model, [p]) >= 0.0

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_integrates_to_one(self, binom43, kernel_name):
        """Dense Simpson over the data range +- 6 bandwidths as the
        independent mass oracle."""
        ds = discrete_dataset(binom43, 500, seed=9)
        model = fit_kde(ds, SPEC, kernel=get_kernel(kernel_name), seed=9)
        h = model.effective_bandwidths[0]
        lo = ds.rows[:, 0].min() - 6 * h - 1
        hi = ds.rows[:, 0].max() + 6 * h + 1
        grid = np.linspace(lo, hi, 8001)
        vals = np.array([kde_eval(model, [g]) for g in grid])
        mass = scipy.integrate.simpson(vals, x=grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_replicate_average_identity(self, binom43):
        ds = discrete_dataset(binom43, 300, seed=11)
        model = fit_kde(ds, SPEC, num_jitters=4, seed=11)
        rng = np.random.default_rng(1)
        for p in rng.uniform(-1, 5, 40):
            singles = [
                kde_eval(dataclasses.replace(model, replicates=(rep,)), [p])
                for rep in model.replicates
            ]
            assert kde_eval(model, [p]) == pytest.approx(np.mean(singles), abs=1e-14)

    def test_eval_deterministic(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=3)
        model = fit_kde(ds, SPEC, seed=3)
        assert kde_eval(model, [1.3]) == kde_eval(model, [1.3])

    def test_wrong_dimension(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=3)
        model = fit_kde(ds, SPEC, seed=3)
        with pytest.raises(InvalidParameterError):
            kde_eval(model, [1.0, 2.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, value):
        model = _mixed_kde("gaussian", 1, 2)
        with pytest.raises(InvalidParameterError, match="finite"):
            kde_eval(model, [value, 0.0])

    # n = 50 rows in chunks of 7: seven full chunks and a ragged one of 1
    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("num_discrete,d", [(1, 2), (1, 3), (2, 3)])
    def test_multivariate_matches_standardized_route(
        self, monkeypatch, chunk_rows, kernel_name, num_discrete, d
    ):
        if chunk_rows is not None:
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
        model = _mixed_kde(kernel_name, num_discrete, d)
        rng = np.random.default_rng(d)
        points = model.origin.rows[:8] + rng.normal(scale=0.3, size=(8, d))
        values = [kde_eval(model, p) for p in points]
        assert max(values) > 0.0
        for p, v in zip(points, values):
            assert v == pytest.approx(_brute_kde(model, p), abs=1e-14, rel=1e-12)

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize("d", [2, 3])
    def test_epanechnikov_support_edge(self, monkeypatch, chunk_rows, d):
        if chunk_rows is not None:
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
        model = _dyadic_model("epanechnikov", d)
        rows = model.replicates[0].rows
        h = model.effective_bandwidths
        for i in range(6):
            p = rows[i] + h * np.eye(d)[i % d]  # row i sits at exactly u = -1
            u = (rows - p) / h
            assert np.any(np.abs(u) == 1.0)
            assert kde_eval(model, p) == pytest.approx(_brute_kde(model, p), abs=1e-14,
                                                       rel=1e-12)


class TestFitLoclin:
    def test_same_seed_refit_identical(self, binom43):
        ds = discrete_dataset(binom43, 150, seed=6)
        rng = np.random.default_rng(0)
        y = ds.rows[:, 0] ** 2 + rng.normal(size=150)
        full = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("y", "continuous")),
            np.column_stack([ds.rows[:, 0], y]),
        )
        m1 = fit_loclin(full, 1, SPEC, num_jitters=2, seed=8)
        m2 = fit_loclin(full, 1, SPEC, num_jitters=2, seed=8)
        for r1, r2 in zip(m1.replicates, m2.replicates):
            assert_array_equal(r1.rows, r2.rows)
        assert_array_equal(m1.bandwidths, m2.bandwidths)

    def test_continuous_response_unmodified(self):
        ds = _continuous_dataset()
        model = fit_loclin(ds, 0, NO_DISCRETE, seed=1, jitter_response=True)
        # jitter_response has no effect on a continuous response
        assert not model.jitter_response
        assert_array_equal(model.response_values(model.replicates[0]), ds.rows[:, 0])

    def test_discrete_response_jittered_on_request(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=2)
        full = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")),
            np.column_stack([ds.rows[:, 0], np.random.default_rng(0).normal(size=100)]),
        )
        model = fit_loclin(full, 0, SPEC, seed=2, jitter_response=True)
        assert model.jitter_response
        vals = model.response_values(model.replicates[0])
        assert not np.array_equal(vals, full.rows[:, 0])

    def test_no_covariates_rejected(self):
        ds = MixedDataset((ColumnSchema("y", "continuous"),), np.arange(5.0)[:, None])
        with pytest.raises(SchemaError):
            fit_loclin(ds, 0, NO_DISCRETE)

    def test_too_few_rows(self):
        ds = _continuous_dataset(n=2)
        with pytest.raises(InsufficientDataError):
            fit_loclin(ds, 0, NO_DISCRETE)


class TestLoclinEval:
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_constant_data(self, kernel_name):
        ds = _continuous_dataset(slope=0.0, intercept=2.0)
        model = fit_loclin(ds, 0, NO_DISCRETE, kernel=get_kernel(kernel_name), seed=0)
        for x0 in np.random.default_rng(5).uniform(0.05, 0.95, 10):
            assert loclin_eval(model, [x0]) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("num_jitters", [1, 3])
    def test_linear_data_exact(self, kernel_name, num_jitters):
        # local linear reproduces affine functions for any weights
        ds = _continuous_dataset(slope=3.0, intercept=-1.0)
        model = fit_loclin(ds, 0, NO_DISCRETE, kernel=get_kernel(kernel_name),
                           num_jitters=num_jitters, seed=0, bandwidth=0.7)
        for x0 in np.random.default_rng(6).uniform(0.05, 0.95, 10):
            assert loclin_eval(model, [x0]) == pytest.approx(-1.0 + 3.0 * x0, abs=1e-8)

    def test_discrete_covariate_consistency(self, binom43):
        """Y = Z^2 + noise, so the conditional mean at z = 2 is 4 (oracle:
        exact moments of the synthetic model)."""
        n = 8000
        model_z = SyntheticMixedModel(margin=binom43)
        z = sample_model(model_z, n, seed=21)[:, 0]
        rng = np.random.default_rng(22)
        y = z**2 + 0.5 * rng.normal(size=n)
        ds = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("y", "continuous")),
            np.column_stack([z, y]),
        )
        model = fit_loclin(ds, 1, SPEC, seed=23)
        assert loclin_eval(model, [2.0]) == pytest.approx(4.0, abs=0.15)

    def test_no_local_data(self):
        ds = _continuous_dataset()
        model = fit_loclin(ds, 0, NO_DISCRETE, kernel=get_kernel("epanechnikov"),
                           seed=0, bandwidth=0.1)
        with pytest.raises(NoLocalDataError):
            loclin_eval(model, [50.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("huge", [1e300, -1e300])
    def test_huge_coordinate_no_local_data(self, huge):
        model = fit_loclin(_continuous_dataset(), 0, NO_DISCRETE, seed=0)
        with pytest.raises(NoLocalDataError):
            loclin_eval(model, [huge])

    def test_ridge_fallback_single_support_point(self):
        # bandwidth so small only one observation carries weight; evaluating
        # at that observation makes the local design exactly singular, and
        # the ridge fallback recovers its response
        rows = np.column_stack([np.array([1.0, 2.0, 3.0, 4.0]),
                                np.array([0.0, 5.0, 10.0, 15.0])])
        ds = MixedDataset((ColumnSchema("y", "continuous"), ColumnSchema("x", "continuous")),
                          rows)
        model = fit_loclin(ds, 0, NO_DISCRETE, kernel=get_kernel("epanechnikov"),
                           seed=0, bandwidth=0.05)
        assert loclin_eval(model, [5.0]) == pytest.approx(2.0, abs=1e-6)

    def test_wrong_dimension(self):
        ds = _continuous_dataset()
        model = fit_loclin(ds, 0, NO_DISCRETE, seed=0)
        with pytest.raises(InvalidParameterError):
            loclin_eval(model, [0.1, 0.2])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, value):
        model = fit_loclin(_continuous_dataset(), 0, NO_DISCRETE, seed=0)
        with pytest.raises(InvalidParameterError, match="finite"):
            loclin_eval(model, [value])

    # n = 50 rows in chunks of 7: seven full chunks and a ragged one of 1
    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_two_covariates_match_lstsq(self, monkeypatch, chunk_rows, kernel_name):
        if chunk_rows is not None:
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
        ds = _mixed_dataset(1, 50, seed=12)
        model = fit_loclin(ds, 2, SPEC, kernel=get_kernel(kernel_name), num_jitters=2,
                           seed=13, bandwidth=0.9)
        rng = np.random.default_rng(14)
        for x0 in ds.rows[:8, :2] + rng.normal(scale=0.2, size=(8, 2)):
            assert loclin_eval(model, x0) == pytest.approx(_lstsq_loclin(model, x0), abs=1e-10)


def _lstsq_loclin(model, x0):
    """Reference: per replicate, the kernel-weighted least squares solved
    by ``np.linalg.lstsq`` on the sqrt-weighted design."""
    h = model.bandwidths * model.transform.scales
    cov = list(model.covariate_indices)
    fits = []
    for rep in model.replicates:
        dx = rep.rows[:, cov] - x0
        sw = np.sqrt(model.kernel.profile(dx / h).prod(axis=1))
        a = np.column_stack([np.ones(len(dx)), dx])
        beta = np.linalg.lstsq(a * sw[:, None], model.response_values(rep) * sw, rcond=None)[0]
        fits.append(beta[0])
    return float(np.mean(fits))


class TestEvalMemory:
    """Evaluation walks the rows in fixed chunks, so its peak allocation at
    n = 200 000 stays below a single float column of the data."""

    @pytest.mark.parametrize("estimator", ["gaussian", "epanechnikov", "loclin"])
    def test_peak_below_one_column(self, estimator):
        n = 200_000
        ds = _mixed_dataset(1, n, seed=30)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        if estimator == "loclin":
            model = fit_loclin(ds, 1, SPEC, num_jitters=2, seed=31)
            evaluate, point = loclin_eval, [1.0]
        else:
            model = fit_kde(ds, SPEC, kernel=get_kernel(estimator), num_jitters=2, seed=31)
            evaluate, point = kde_eval, [1.0, 0.8]
        tracemalloc.start()
        try:
            value = evaluate(model, point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < n * 8


def _accumulator_weights(self, rows, columns, point, h):
    """Product-kernel weights as they were built before the e^-700 floor:
    accumulated into zeros (Gaussian) or ones (Epanechnikov), then one
    plain ``np.exp`` that lets far lanes underflow."""
    acc = np.zeros(len(rows)) if self.name == "gaussian" else np.ones(len(rows))
    for c, p, hj in zip(columns, point, h):
        u = np.square((rows[:, c] - p) / hj)
        acc = acc + u if self.name == "gaussian" else acc * np.maximum(1.0 - u, 0.0)
    k = len(columns)
    if self.name == "gaussian":
        return np.exp(-0.5 * acc) * (2.0 * math.pi) ** (-0.5 * k)
    return acc * 0.75**k


def _half_squared_norms(rows, columns, point, h):
    """0.5 * sum_j u_j^2 in the order product_weights accumulates it."""
    acc = np.zeros(len(rows))
    for c, p, hj in zip(columns, point, h):
        acc = acc + np.square((rows[:, c] - p) / hj)
    return 0.5 * acc


class TestExpFloor:
    """Gaussian weights below e^-700 are exact zeros, so no lane takes
    numpy's exp-underflow slow path; every other weight is what the
    zeros/ones accumulator and a plain exp gave."""

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_product_weights_match_accumulator(self, kernel_name, k):
        # u from 0 to 60 crosses the cut at 0.5 u^2 = 700 (u = 37.42) and
        # the old underflow edge at 0.5 u^2 = 745.13 (u = 38.60): one block
        # sweeps every column along u / sqrt(k), two mix in uniform columns
        kernel = get_kernel(kernel_name)
        grid = np.linspace(0.0, 60.0, 6001)
        rng = np.random.default_rng(k)
        sweep = np.column_stack([grid / math.sqrt(max(k, 1))] * 3)
        wide, narrow = sweep.copy(), sweep.copy()
        wide[:, 0] = rng.uniform(0.0, 60.0, grid.size)
        narrow[:, 1] = rng.uniform(0.0, 3.0, grid.size)
        rows = np.concatenate([sweep, wide, narrow])
        columns, point, h = [0, 1, 2][:k], [0.3, -0.2, 0.1][:k], [1.0, 0.9, 1.1][:k]
        got = kernel.product_weights(rows, columns, point, h)
        old = _accumulator_weights(kernel, rows, columns, point, h)
        if kernel_name == "gaussian":
            kept = _half_squared_norms(rows, columns, point, h) <= 700.0
            assert kept.any() and (k == 0 or not kept.all())
            assert_array_equal(got[kept], old[kept])
            assert np.all(got[~kept] == 0.0)
            assert np.any(old[~kept] > 0.0) or k == 0  # the old weights there were subnormal
        else:
            assert_array_equal(got, old)
        if k == 0:
            assert_array_equal(got, np.ones(len(rows)))

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_empty_and_one_row(self, kernel_name, k):
        kernel = get_kernel(kernel_name)
        columns, point, h = range(k), np.zeros(k), np.ones(k)
        empty = kernel.product_weights(np.empty((0, 3)), columns, point, h)
        assert empty.shape == (0,) and empty.dtype == float
        for u in (0.0, 0.5, 37.0, 38.0, 60.0):
            row = np.full((1, 3), u)
            assert_array_equal(kernel.product_weights(row, columns, point, h),
                               _accumulator_weights(kernel, row, columns, point, h)
                               if kernel_name == "epanechnikov" or 0.5 * k * u * u <= 700.0
                               else [0.0])

    def test_profile_floor(self):
        kernel = get_kernel("gaussian")
        assert kernel.profile(np.empty(0)).shape == (0,)
        u = np.array([0.0, 1.0, 37.4, 37.5, 38.0, 60.0, np.inf])
        want = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        want[0.5 * u * u > 700.0] = 0.0
        assert_array_equal(kernel.profile(u), want)
        assert kernel.profile(-38.0) == 0.0
        assert kernel.profile(1.0) == want[1]
        assert np.isnan(kernel.profile(np.array([np.nan, 40.0]))[0])

    @pytest.mark.parametrize("estimator", ["gaussian", "epanechnikov", "loclin"])
    def test_eval_battery_matches_accumulator(self, estimator, monkeypatch):
        # 160 points on and far beyond the data; values far out are exact zeros
        ds = _mixed_dataset(1, 3000, seed=40)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        if estimator == "loclin":
            model = fit_loclin(ds, 1, SPEC, num_jitters=2, seed=41)
            points = [[z] for z in np.concatenate([np.linspace(-3.0, 7.0, 150),
                                                   [-40.0, -12.0, 11.0, 20.0, 60.0, 1e3,
                                                    -1e3, 1e6, 1e10, -1e10]])]
            evaluate = loclin_eval
        else:
            model = fit_kde(ds, SPEC, kernel=get_kernel(estimator), num_jitters=2, seed=41)
            points = [[z, x] for z in np.linspace(-1.0, 6.0, 12) for x in np.linspace(-4.0, 8.0, 12)]
            points += [[-40.0, 0.0], [1.0, 30.0], [20.0, 20.0], [1e3, 1e3], [-1e6, 2.0],
                       [2.0, 1e10], [6.0, 6.0], [-3.0, 9.0], [8.0, -5.0], [0.0, 12.0],
                       [3.0, -9.0], [-2.0, -2.0], [12.0, 3.0], [1.0, 1e10], [4.0, -30.0],
                       [-1e10, 1.0]]
            evaluate = kde_eval
        got = [_outcome(evaluate, model, p) for p in points]
        monkeypatch.setattr(estimators.Kernel, "product_weights", _accumulator_weights)
        want = [_outcome(evaluate, model, p) for p in points]
        assert len(points) >= 150
        assert got == want
        if estimator != "loclin":
            assert 0.0 in got  # points beyond the data stay exact zeros
        else:
            assert "NoLocalDataError" in got  # and beyond them no local data


class TestSerialization:
    def test_kde_round_trip(self, tmp_path, binom43):
        ds = discrete_dataset(binom43, 120, seed=7)
        model = fit_kde(ds, SPEC, num_jitters=2, seed=7)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        for p in (-0.5, 0.7, 2.0, 3.3):
            assert kde_eval(loaded, [p]) == kde_eval(model, [p])

    def test_loclin_round_trip(self, tmp_path):
        ds = _continuous_dataset(noise=0.1)
        model = fit_loclin(ds, 0, NO_DISCRETE, seed=4)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loclin_eval(loaded, [0.5]) == loclin_eval(model, [0.5])

    def test_seed_beyond_float_range_round_trips(self, tmp_path, binom43):
        ds = discrete_dataset(binom43, 60, seed=8)
        model = fit_kde(ds, SPEC, num_jitters=2, seed=10**400)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.seed == 10**400
        assert kde_eval(loaded, [1.3]) == kde_eval(model, [1.3])

    def test_identical_fits_identical_bytes(self, tmp_path, binom43):
        ds = discrete_dataset(binom43, 120, seed=7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(fit_kde(ds, SPEC, num_jitters=3, seed=7), p1)
        save_model(fit_kde(ds, SPEC, num_jitters=3, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @_PROPERTIES
    @given(st.sampled_from(["kde", "loclin"]), st.sampled_from(["gaussian", "epanechnikov"]),
           st.integers(1, 2), st.integers(8, 40), st.integers(1, 3), st.integers(0, 2**32),
           st.one_of(st.none(), st.floats(0.2, 2.0)), st.integers(0, 3), st.booleans())
    def test_round_trip_property(self, tmp_path_factory, estimator, kernel_name, num_discrete,
                                 n, num_jitters, seed, bandwidth, response, jitter_response):
        ds = _mixed_dataset(num_discrete, n, seed)
        spec = NoiseSpec(theta=0.4, nu=2, dims=num_discrete)
        fit = dict(kernel=get_kernel(kernel_name), num_jitters=num_jitters, seed=seed,
                   bandwidth=bandwidth)
        x0 = ds.rows[0]
        if estimator == "kde":
            model = fit_kde(ds, spec, **fit)

            def evaluations(m):
                query = FunctionalQuery("mean", 0, "discrete", {num_discrete: float(x0[-2])})
                return (_outcome(kde_eval, m, x0), _outcome(kde_eval, m, x0 + 0.3),
                        _outcome(lambda: cond_mean(m, query).value))
        else:
            response %= len(ds.schema)
            model = fit_loclin(ds, response, spec, jitter_response=jitter_response, **fit)

            def evaluations(m):
                return _outcome(loclin_eval, m, np.delete(x0, response))
        path = tmp_path_factory.mktemp("round-trip") / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        for rep, back in zip(model.replicates, loaded.replicates, strict=True):
            assert_array_equal(back.rows, rep.rows)
        assert_array_equal(loaded.transform.means, model.transform.means)
        assert_array_equal(loaded.transform.scales, model.transform.scales)
        assert_array_equal(loaded.bandwidths, model.bandwidths)
        assert evaluations(loaded) == evaluations(model)
        again = path.with_name("again.bin")
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_reject_foreign_file(self, tmp_path, binom43):
        path = tmp_path / "junk.bin"
        import pickle

        artifact = tmp_path / "m.bin"
        save_model(fit_kde(discrete_dataset(binom43, 50, seed=7), SPEC, seed=7), artifact)
        for content in (
            pickle.dumps({"format": "something-else"}),
            b"z,x\n1,0.5\n2,-0.3\n",  # a CSV passed as a model
            artifact.read_bytes()[:200],  # a truncated artifact
        ):
            path.write_bytes(content)
            with pytest.raises(InvalidParameterError, match="not a jitterkit model artifact"):
                load_model(path)


def _outcome(f, *args):
    """``f(*args)``, or the name of the package error it raises."""
    try:
        return f(*args)
    except JitterkitError as exc:
        return type(exc).__name__


def _hand_models(kde_bandwidths, loclin_bandwidths):
    """A 3-column KDE and a 2-column local linear model (response 0), built
    by hand with identity transforms and the given bandwidths."""
    rows = np.random.default_rng(5).normal(size=(20, 3))
    origin = MixedDataset(tuple(ColumnSchema(f"c{j}", "continuous") for j in range(3)), rows)
    rep = JitteredDataset(origin=origin, noise=NO_DISCRETE, seed=0, replicate_index=0,
                          rows=rows)
    kde = KdeModel(kernel=get_kernel("gaussian"), noise=NO_DISCRETE, seed=0,
                   bandwidths=kde_bandwidths,
                   transform=Standardization(means=np.zeros(3), scales=np.ones(3)),
                   replicates=(rep,))
    origin2 = MixedDataset(origin.schema[:2], rows[:, :2])
    rep2 = JitteredDataset(origin=origin2, noise=NO_DISCRETE, seed=0, replicate_index=0,
                           rows=rows[:, :2])
    loclin = LocLinModel(kernel=get_kernel("gaussian"), noise=NO_DISCRETE, seed=0,
                         bandwidths=loclin_bandwidths,
                         transform=Standardization(means=np.zeros(1), scales=np.ones(1)),
                         replicates=(rep2,), response_index=0)
    return kde, loclin


class TestModelCore:
    """Both estimators share one model base (bandwidth checks) and one fit
    path (replicates, standardization, bandwidth selection)."""

    def test_valid_hand_models(self):
        kde, loclin = _hand_models([0.5, 0.5, 0.5], [0.5])
        assert math.isfinite(kde_eval(kde, [0.0, 0.0, 0.0]))
        assert math.isfinite(loclin_eval(loclin, [0.0]))
        assert not kde.bandwidths.flags.writeable

    @pytest.mark.parametrize("bandwidths", [
        [math.nan, 0.5, 0.5], [math.inf, 0.5, 0.5], [0.5], [0.5, 0.5, 0.5, 0.5],
    ])
    def test_kde_rejects_bad_bandwidths(self, bandwidths):
        with pytest.raises(InvalidParameterError, match="bandwidths"):
            _hand_models(np.array(bandwidths), [0.5])

    @pytest.mark.parametrize("bandwidth", [0.0, -0.5, math.nan])
    def test_loclin_rejects_bad_bandwidths(self, bandwidth):
        with pytest.raises(InvalidParameterError, match="bandwidths"):
            _hand_models([0.5, 0.5, 0.5], np.array([bandwidth]))

    def test_transform_must_cover_smoothed_columns(self):
        # a KDE smooths every column, a local linear model every covariate;
        # transform and bandwidths cut short together must not load
        kde, loclin = _hand_models([0.5, 0.5, 0.5], [0.5])
        with pytest.raises(InvalidParameterError, match="smooths 3"):
            dataclasses.replace(kde, bandwidths=[0.5],
                                transform=Standardization(np.zeros(1), np.ones(1)))
        with pytest.raises(InvalidParameterError, match="smooths 1"):
            dataclasses.replace(loclin, bandwidths=[0.5, 0.5],
                                transform=Standardization(np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("bandwidth", [[0.5, math.nan], [0.5, 0.5, 0.5], -1.0])
    def test_fit_overrides_checked_by_model(self, bandwidth):
        ds = _continuous_dataset()
        with pytest.raises(InvalidParameterError, match="bandwidths"):
            fit_kde(ds, NO_DISCRETE, bandwidth=bandwidth)
        with pytest.raises(InvalidParameterError, match="bandwidths"):
            fit_loclin(ds, 0, NO_DISCRETE, bandwidth=bandwidth)

    def test_one_item_override_is_not_spread(self):
        # a scalar is spread over every column; a sequence is one per column
        ds = _continuous_dataset()
        assert fit_kde(ds, NO_DISCRETE, bandwidth=0.5).bandwidths.tolist() == [0.5, 0.5]
        with pytest.raises(InvalidParameterError, match="expected 2 bandwidths"):
            fit_kde(ds, NO_DISCRETE, bandwidth=[0.5])

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_fit_kde_standardizes_replicate_zero_rows(self, kernel_name):
        # the fit must standardize replicate 0's own rows: a column-selected
        # copy of them changes the means and scales in the last bit
        ds = _mixed_dataset(1, 300, seed=40)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), kernel=get_kernel(kernel_name),
                        num_jitters=2, seed=41)
        rows = model.replicates[0].rows
        expected = Standardization.from_rows(rows)
        assert model.transform.means.tolist() == expected.means.tolist()
        assert model.transform.scales.tolist() == expected.scales.tolist()
        assert model.bandwidths.tolist() == select_bandwidth(rows).tolist()

    def test_fit_loclin_standardizes_replicate_zero_covariates(self):
        ds = _mixed_dataset(1, 300, seed=42)
        model = fit_loclin(ds, 2, NoiseSpec(0.8, 5, dims=1), num_jitters=2, seed=43)
        cov = model.replicates[0].rows[:, [0, 1]]
        expected = Standardization.from_rows(cov)
        assert model.transform.means.tolist() == expected.means.tolist()
        assert model.transform.scales.tolist() == expected.scales.tolist()
        assert model.bandwidths.tolist() == select_bandwidth(cov).tolist()
