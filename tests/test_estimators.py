"""Jittered KDE and local linear regression."""

import dataclasses
import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc
import weakref

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
    cond_cdf,
    cond_mean,
    cond_quantile,
    fit_kde,
    fit_loclin,
    get_kernel,
    jitter,
    kde_eval,
    load_model,
    loclin_eval,
    sample_model,
    sample_noise,
    save_model,
    select_bandwidth,
)

from jitterkit import JitterkitError, estimators
from conftest import (
    assert_sums_match_full_walk,
    discrete_dataset,
    jitter_replicates,
    reference_covariate_weights,
    reference_kde_eval,
    reference_kde_response_slice,
    reference_loclin_eval,
    reference_product_weights,
)

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
    return KdeModel.from_replicates(
        (rep,),
        kernel=get_kernel(kernel_name),
        noise=SPEC,
        seed=0,
        bandwidths=np.array([1.0]),
        transform=Standardization(means=np.array([0.0]), scales=np.array([1.0])),
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
    return KdeModel.from_replicates(
        (rep,),
        kernel=get_kernel(kernel_name),
        noise=NO_DISCRETE,
        seed=0,
        bandwidths=np.full(d, 0.5),
        transform=Standardization(means=np.zeros(d), scales=np.ones(d)),
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
        settings = dict(kernel=model.kernel, noise=model.noise, seed=model.seed,
                        bandwidths=model.bandwidths, transform=model.transform)
        for p in rng.uniform(-1, 5, 40):
            singles = [
                kde_eval(KdeModel.from_replicates((rep,), **settings), [p])
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
        assert_array_equal(model.response_values(0), ds.rows[:, 0])

    def test_discrete_response_jittered_on_request(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=2)
        full = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")),
            np.column_stack([ds.rows[:, 0], np.random.default_rng(0).normal(size=100)]),
        )
        model = fit_loclin(full, 0, SPEC, seed=2, jitter_response=True)
        assert model.jitter_response
        vals = model.response_values(0)
        assert not np.array_equal(vals, full.rows[:, 0])

    def test_unjittered_response_held_as_origin_view(self):
        # no evaluation reads an unjittered response's replicates, so the
        # model views the origin's column; its replicates and digests draw
        # that column again, and match a model that holds it
        ds = _interleaved_dataset("dcd", 50, seed=12)
        spec = NoiseSpec(0.8, 5, dims=2)
        model = fit_loclin(ds, 0, spec, num_jitters=3, seed=13)
        assert model.jittered_indices == (2,)
        assert [col.shape for col in model.columns] == [(50,), (50,), (3, 50)]
        assert np.shares_memory(model.columns[0], ds.rows)
        assert_array_equal(model.response_values(1), ds.rows[:, 0])
        for rep, want in zip(model.replicates, jitter_replicates(model), strict=True):
            assert_array_equal(rep.rows, want.rows)
        held = fit_loclin(ds, 0, spec, num_jitters=3, seed=13, jitter_response=True)
        assert held.columns[0].shape == (3, 50)
        assert estimators._digests(model) == estimators._digests(held)

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
    for r, rep in enumerate(jitter_replicates(model)):
        dx = rep.rows[:, cov] - x0
        sw = np.sqrt(model.kernel.profile(dx / h).prod(axis=1))
        a = np.column_stack([np.ones(len(dx)), dx])
        beta = np.linalg.lstsq(a * sw[:, None], model.response_values(r) * sw, rcond=None)[0]
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


class TestFitMemory:
    """A fit fills the model one replicate at a time: it never holds more
    than the model's columns, one replicate and the noise draw's scratch."""

    def test_fit_holds_one_replicate_at_a_time(self):
        n, num_jitters = 20_000, 5
        ds = _mixed_dataset(1, n, seed=32)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])  # z jittered, x not
        spec = NoiseSpec(0.8, 5, dims=1)
        fit_kde(ds, spec, num_jitters=1, seed=33)  # first-call allocations
        tracemalloc.start()
        try:
            sample_noise(spec, 33, n, 0)
            _, noise_scratch = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            model = fit_kde(ds, spec, num_jitters=num_jitters, seed=33)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # (R, n) floats of z and a view of x, beside the origin the model shares
        held = sum(col.nbytes for col in model.columns)
        assert held == (num_jitters + 1) * n * 8
        assert model.origin is ds
        replicate = 2 * n * 8
        assert peak < held + replicate + noise_scratch + n  # n bytes of small objects


def _point_eval_fits(ds, spec, num_jitters, seed):
    """The point-eval benchmark's fits of one (z, x) dataset: Gaussian and
    Epanechnikov KDEs and a local linear model of x on z."""
    kw = dict(num_jitters=num_jitters, seed=seed)
    return [fit_kde(ds, spec, get_kernel("gaussian"), **kw),
            fit_kde(ds, spec, get_kernel("epanechnikov"), **kw),
            fit_loclin(ds, 1, spec, **kw)]


# fits of a "dcdc" dataset: KDEs of both kernels, and local linear models of
# a continuous response, of a jittered discrete one and of an unjittered one
_DCDC_FITS = {
    "kde_gaussian": lambda ds, spec, **kw: fit_kde(ds, spec, get_kernel("gaussian"), **kw),
    "kde_epanechnikov": lambda ds, spec, **kw: fit_kde(ds, spec, get_kernel("epanechnikov"),
                                                       **kw),
    "loclin_c3": lambda ds, spec, **kw: fit_loclin(ds, 3, spec, **kw),
    "loclin_d0_jittered": lambda ds, spec, **kw: fit_loclin(ds, 0, spec, jitter_response=True,
                                                            **kw),
    "loclin_d2": lambda ds, spec, **kw: fit_loclin(ds, 2, spec, **kw),
}


def _model_outputs(model, tmp_path):
    """Every value a model gives on a fixed battery, and its artifact bytes."""
    rows = model.origin.rows
    points = [rows[0], rows[7] + 0.3, rows.mean(axis=0)]
    if isinstance(model, LocLinModel):
        values = [loclin_eval(model, np.delete(p, model.response_index)) for p in points]
    else:
        Q = FunctionalQuery
        values = [kde_eval(model, p) for p in points] + [
            (e.value, e.denominator_mass) for e in (
                cond_mean(model, Q("mean", 0, "discrete", {1: 0.5})),
                cond_mean(model, Q("mean", 3, "continuous", {0: 1.0, 2: 2.0})),
                cond_cdf(model, Q("cdf", 2, "discrete", {3: 0.4}, threshold=1)),
                cond_cdf(model, Q("cdf", 1, "continuous", {2: 1.0}, threshold=0.3)),
                cond_quantile(model, Q("quantile", 0, "discrete", {1: 0.2}, alpha=0.6)),
                cond_quantile(model, Q("quantile", 3, "continuous", {}, alpha=0.3)))]
    path = tmp_path / "model.bin"
    save_model(model, path)
    return values, path.read_bytes()


def _assert_same_fit(got, want):
    assert type(got) is type(want)
    for a, b in zip(got.columns, want.columns, strict=True):
        assert_array_equal(a, b)
    assert_array_equal(got.transform.means, want.transform.means)
    assert_array_equal(got.transform.scales, want.transform.scales)
    assert_array_equal(got.bandwidths, want.bandwidths)


class TestSharedDraws:
    """Fits of one dataset object with one noise, seed and R take their
    jittered columns from one weak memo: they hold the same arrays, every
    output equals a cold fit's, and the memo keeps nothing alive."""

    def test_fits_of_one_dataset_hold_the_same_arrays(self):
        ds = _interleaved_dataset("dcdc", 80, seed=40)
        spec = NoiseSpec(0.8, 5, dims=2)
        models = [fit(ds, spec, num_jitters=3, seed=41) for fit in _DCDC_FITS.values()]
        for j in (0, 2):
            held = [m.columns[j] for m in models if m.columns[j].ndim == 2]
            assert all(col is held[0] for col in held)
        # only the local linear model of the unjittered response d2 views it
        assert [len(held) for held in ([m for m in models if m.columns[0].ndim == 2],
                                       [m for m in models if m.columns[2].ndim == 2])] == [5, 4]

    def test_nothing_shared_across_keys(self):
        ds = _interleaved_dataset("dc", 80, seed=42)
        base = fit_kde(ds, SPEC, num_jitters=2, seed=43)
        copy = MixedDataset(ds.schema, ds.rows)
        others = {"dataset": fit_kde(copy, SPEC, num_jitters=2, seed=43),
                  "noise": fit_kde(ds, NoiseSpec(0.7, 5, dims=1), num_jitters=2, seed=43),
                  "seed": fit_kde(ds, SPEC, num_jitters=2, seed=44),
                  "num_jitters": fit_kde(ds, SPEC, num_jitters=3, seed=43)}
        for key, model in others.items():
            assert model.columns[0] is not base.columns[0], key
        assert_array_equal(others["dataset"].columns[0], base.columns[0])
        assert_array_equal(others["num_jitters"].columns[0][:2], base.columns[0])
        assert not np.array_equal(others["seed"].columns[0], base.columns[0])

    def test_equal_keys_hit_where_draws_are_equal(self, tmp_path):
        ds = _interleaved_dataset("dcdc", 80, seed=44)
        base = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), num_jitters=2, seed=3)
        for spec, seed in [(NoiseSpec(0.8, 5.0, dims=2), np.int64(3)),
                           (NoiseSpec(0.8, 5, dims=2.0), 3.0)]:
            hit = fit_kde(ds, spec, num_jitters=2, seed=seed)
            assert all(a is b for a, b in zip(hit.jittered, base.jittered, strict=True))
            cold = fit_kde(MixedDataset(ds.schema, ds.rows), spec, num_jitters=2, seed=seed)
            _assert_same_fit(hit, cold)
            assert _model_outputs(hit, tmp_path) == _model_outputs(cold, tmp_path)
        # a seed no noise stream takes is refused, as by a cold fit
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            fit_kde(ds, NoiseSpec(0.8, 5, dims=2), num_jitters=2, seed=3.5)

    @pytest.mark.parametrize("first", list(_DCDC_FITS))
    def test_hit_models_equal_cold_fits(self, first, tmp_path):
        ds = _interleaved_dataset("dcdc", 120, seed=45)
        spec = NoiseSpec(0.8, 5, dims=2)
        warm = {first: _DCDC_FITS[first](ds, spec, num_jitters=3, seed=46)}
        for name, fit in _DCDC_FITS.items():
            warm.setdefault(name, fit(ds, spec, num_jitters=3, seed=46))
        for name, model in warm.items():
            # a hit on every column that the first fit holds too
            for j in set(model.jittered_indices) & set(warm[first].jittered_indices):
                assert model.columns[j] is warm[first].columns[j]
            cold = _DCDC_FITS[name](MixedDataset(ds.schema, ds.rows), spec, num_jitters=3,
                                    seed=46)
            _assert_same_fit(model, cold)
            assert _model_outputs(model, tmp_path) == _model_outputs(cold, tmp_path)

    def test_memo_keeps_nothing_alive(self):
        ds = _interleaved_dataset("dcdc", 80, seed=47)
        spec = NoiseSpec(0.8, 5, dims=2)
        gc.collect()  # so that earlier tests' dead datasets have left the memo
        entries = len(estimators._DRAWS)
        models = [fit(ds, spec, num_jitters=2, seed=48) for fit in _DCDC_FITS.values()]
        arrays = [weakref.ref(col) for model in models for col in model.jittered]
        assert len(estimators._DRAWS) == entries + 1
        del models
        gc.collect()
        assert not any(ref() is not None for ref in arrays)
        assert len(estimators._DRAWS[ds]) == 0
        dataset = weakref.ref(ds)
        del ds
        gc.collect()
        assert dataset() is None and len(estimators._DRAWS) == entries

    def test_concurrent_fits_equal_cold_fits(self):
        # fits that miss at once each draw, and the memo keeps the later
        # arrays: every model still equals a cold fit; more threads than
        # cores, and a short switch interval, to interleave the misses
        spec = NoiseSpec(0.8, 5, dims=2)
        names = list(_DCDC_FITS)[:4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(4):
                ds = _interleaved_dataset("dcdc", 3000, seed=50 + round_)
                barrier = threading.Barrier(len(names))
                models = {}

                def work(name):
                    barrier.wait(timeout=30)
                    models[name] = _DCDC_FITS[name](ds, spec, num_jitters=3, seed=49)

                threads = [threading.Thread(target=work, args=(name,)) for name in names]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(models) == sorted(names)
                for name, model in models.items():
                    cold = _DCDC_FITS[name](MixedDataset(ds.schema, ds.rows), spec,
                                            num_jitters=3, seed=49)
                    _assert_same_fit(model, cold)
        finally:
            sys.setswitchinterval(interval)

    def test_compact_models_share_one_order(self):
        ds = _interleaved_dataset("dcdc", 80, seed=52)
        spec = NoiseSpec(0.8, 5, dims=2)
        models = {name: fit(ds, spec, num_jitters=2, seed=53) for name, fit in _DCDC_FITS.items()}
        epanechnikov = fit_loclin(ds, 3, spec, kernel=get_kernel("epanechnikov"), num_jitters=3,
                                  seed=54)
        order = models["kde_epanechnikov"].order
        assert order[0] == 1 and epanechnikov.order[0] == 1
        assert epanechnikov.order[1] is order[1]
        assert_array_equal(order[1], np.argsort(ds.rows[:, 1], kind="stable"))
        assert not order[1].flags.writeable
        assert all(model.order is None for name, model in models.items()
                   if name != "kde_epanechnikov")

    def test_unjittered_response_load_draws_each_replicate_once(self, tmp_path, monkeypatch):
        # a local linear model of z on x holds no jittered column; its fit
        # draws nothing, and its load draws each replicate once, for the
        # digests
        ds = _interleaved_dataset("dc", 60, seed=55)
        model = fit_loclin(ds, 0, SPEC, num_jitters=5, seed=56)
        assert model.jittered == ()
        path = tmp_path / "model.bin"
        save_model(model, path)
        draws = []
        draw = estimators.jitter
        monkeypatch.setattr(estimators, "jitter",
                            lambda dataset, spec, seed, r=0: draws.append(r)
                            or draw(dataset, spec, seed, r))
        fit_loclin(ds, 0, SPEC, num_jitters=5, seed=56)
        assert draws == []
        loaded = load_model(path)
        assert draws == [0, 1, 2, 3, 4]
        assert loclin_eval(loaded, [0.5]) == loclin_eval(model, [0.5])
        # the fit still refuses what jitter refuses
        with pytest.raises(InvalidParameterError, match="seed must be an integer"):
            fit_loclin(ds, 0, SPEC, seed=-1)
        with pytest.raises(SchemaError, match="spec.dims"):
            fit_loclin(ds, 0, NO_DISCRETE, seed=1)
        assert draws == [0, 1, 2, 3, 4]

    def test_point_eval_fits_hold_one_set_of_draws(self):
        # the three fits hold one (R, n) array of jittered z between them,
        # where each held its own: three times as much, and the
        # Epanechnikov KDE the order of x that its windows search
        n, num_jitters = 20_000, 5
        ds = _mixed_dataset(1, n, seed=34)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        spec = NoiseSpec(0.8, 5, dims=1)
        _point_eval_fits(ds, spec, 1, 35)  # first-call allocations
        tracemalloc.start()
        try:
            models = _point_eval_fits(ds, spec, num_jitters, 36)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_set = num_jitters * n * 8
        assert sum(col.nbytes for col in models[0].jittered) == one_set
        order = n * 8  # n intp
        assert models[1].order[1].nbytes == order
        assert held < one_set + order + n  # n bytes of transforms, bandwidths and memo entries


def _accumulator_weights(kernel, rows, columns, point, h):
    """Product-kernel weights as they were built before the e^-700 floor:
    accumulated into zeros (Gaussian) or ones (Epanechnikov), then one
    plain ``np.exp`` that lets far lanes underflow."""
    acc = np.zeros(len(rows)) if kernel.name == "gaussian" else np.ones(len(rows))
    for c, p, hj in zip(columns, point, h):
        u = np.square((rows[:, c] - p) / hj)
        acc = acc + u if kernel.name == "gaussian" else acc * np.maximum(1.0 - u, 0.0)
    k = len(columns)
    if kernel.name == "gaussian":
        return np.exp(-0.5 * acc) * (2.0 * math.pi) ** (-0.5 * k)
    return acc * 0.75**k


def _half_squared_norms(rows, columns, point, h):
    """0.5 * sum_j u_j^2 in the order product_weights accumulates it."""
    acc = np.zeros(len(rows))
    for c, p, hj in zip(columns, point, h):
        acc = acc + np.square((rows[:, c] - p) / hj)
    return 0.5 * acc


def _replicated_models(kernel_name, rows, num_jitters=2):
    """Hand-built KDEs whose ``num_jitters`` replicates all hold ``rows``:
    one with every column continuous, so every factor is computed once for
    all replicates, and one whose first column is discrete, so its factor
    is computed per replicate."""
    d = rows.shape[1]
    models = []
    for first in ("continuous", "discrete_ordered"):
        schema = (ColumnSchema("c0", first),) + tuple(
            ColumnSchema(f"c{j}", "continuous") for j in range(1, d))
        origin = rows.copy()
        if first == "discrete_ordered":
            origin[:, 0] = np.round(origin[:, 0])
        origin = MixedDataset(schema, origin)
        spec = NoiseSpec(0.8, 5, dims=int(first == "discrete_ordered"))
        reps = tuple(JitteredDataset(origin=origin, noise=spec, seed=0, replicate_index=r,
                                     rows=rows) for r in range(num_jitters))
        models.append(KdeModel.from_replicates(
            reps, kernel=get_kernel(kernel_name), noise=spec, seed=0, bandwidths=np.ones(d),
            transform=Standardization(np.zeros(d), np.ones(d))))
    return models


def _weights_of_rows(model, columns, point, h):
    """``product_weights`` of a model of one chunk: one array of every
    row's weight per replicate, a row that a compact kernel's window leaves
    out weighing 0."""
    weights = np.zeros((model.num_jitters, model.origin.n))
    for r, rows, _, w in estimators.product_weights(model, columns, point, h):
        weights[r, rows] = w
    return list(weights)


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
        old = _accumulator_weights(kernel, rows, columns, point, h)
        for model in _replicated_models(kernel_name, rows):
            for got in _weights_of_rows(model, columns, point, h):
                if kernel_name == "gaussian":
                    kept = _half_squared_norms(rows, columns, point, h) <= 700.0
                    assert kept.any() and (k == 0 or not kept.all())
                    assert_array_equal(got[kept], old[kept])
                    assert np.all(got[~kept] == 0.0)
                    # the old weights there were subnormal
                    assert np.any(old[~kept] > 0.0) or k == 0
                else:
                    assert_array_equal(got, old)
                if k == 0:
                    assert_array_equal(got, np.ones(len(rows)))

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_empty_and_one_row(self, kernel_name, k):
        # a model of no rows yields no chunk; one-row models yield one weight
        kernel = get_kernel(kernel_name)
        columns, point, h = range(k), np.zeros(k), np.ones(k)
        for model in _replicated_models(kernel_name, np.empty((0, 3))):
            assert list(estimators.product_weights(model, columns, point, h)) == []
        for u in (0.0, 0.5, 37.0, 38.0, 60.0):
            row = np.full((1, 3), u)
            want = (_accumulator_weights(kernel, row, columns, point, h)
                    if kernel_name == "epanechnikov" or 0.5 * k * u * u <= 700.0
                    else [0.0])
            for model in _replicated_models(kernel_name, row):
                for got in _weights_of_rows(model, columns, point, h):
                    assert_array_equal(got, want)

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
    def test_eval_battery_matches_accumulator(self, estimator):
        # 160 points on and far beyond the data; values far out are exact zeros
        ds = _mixed_dataset(1, 3000, seed=40)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        if estimator == "loclin":
            model = fit_loclin(ds, 1, SPEC, num_jitters=2, seed=41)
            points = [[z] for z in np.concatenate([np.linspace(-3.0, 7.0, 150),
                                                   [-40.0, -12.0, 11.0, 20.0, 60.0, 1e3,
                                                    -1e3, 1e6, 1e10, -1e10]])]
            evaluate, reference = loclin_eval, reference_loclin_eval
        else:
            model = fit_kde(ds, SPEC, kernel=get_kernel(estimator), num_jitters=2, seed=41)
            points = [[z, x] for z in np.linspace(-1.0, 6.0, 12) for x in np.linspace(-4.0, 8.0, 12)]
            points += [[-40.0, 0.0], [1.0, 30.0], [20.0, 20.0], [1e3, 1e3], [-1e6, 2.0],
                       [2.0, 1e10], [6.0, 6.0], [-3.0, 9.0], [8.0, -5.0], [0.0, 12.0],
                       [3.0, -9.0], [-2.0, -2.0], [12.0, 3.0], [1.0, 1e10], [4.0, -30.0],
                       [-1e10, 1.0]]
            evaluate, reference = kde_eval, reference_kde_eval
        got = [_outcome(evaluate, model, p) for p in points]
        want = [_outcome(reference, model, p, _accumulator_weights) for p in points]
        assert len(points) >= 150
        assert_sums_match_full_walk(model, points, got, want)
        if estimator != "loclin":
            assert 0.0 in got  # points beyond the data stay exact zeros
        else:
            assert "NoLocalDataError" in got  # and beyond them no local data


def _interleaved_dataset(kinds, n, seed):
    """One column per letter of ``kinds``: "d" a Binomial(4, .3) count,
    "c" a continuous value that leans on the columns before it."""
    rng = np.random.default_rng(seed)
    columns = []
    for kind in kinds:
        if kind == "d":
            columns.append(rng.binomial(4, 0.3, n).astype(float))
        else:
            columns.append(0.5 * sum(columns, np.zeros(n)) + rng.normal(size=n))
    schema = tuple(ColumnSchema(f"{kind}{j}", "discrete_ordered" if kind == "d" else "continuous")
                   for j, kind in enumerate(kinds))
    return MixedDataset(schema, np.column_stack(columns))


def _interleaved_fit(fit, kinds, kernel_name, num_jitters, n=60, seed=0, **kw):
    ds = _interleaved_dataset(kinds, n, seed)
    spec = NoiseSpec(0.8, 5, dims=kinds.count("d"))
    return fit(ds, **kw, spec=spec, kernel=get_kernel(kernel_name),
               num_jitters=num_jitters, seed=seed + 1)


def _probe_points(origin, h):
    """Points on and near the data, a few bandwidths out, and far beyond it."""
    rows = origin[[0, 19, 33]]
    return np.concatenate([rows, rows + 0.3 * h, rows - 2.5 * h, origin[:1] + 6.0 * h,
                           [origin.min(axis=0) - 40.0, origin.max(axis=0) + 1e3]])


INTERLEAVED = ["cc", "dd", "dc", "cd", "dcd", "cdc", "dcdc", "cddc"]


class TestReplicateWeights:
    """``product_weights`` computes an unjittered column's kernel factor once
    per chunk for all replicates, and every estimate stays bit-identical to
    the per-replicate reference in ``conftest``."""

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("kinds", INTERLEAVED)
    def test_kde_eval_matches_per_replicate_reference(self, monkeypatch, kinds, kernel_name):
        for chunk_rows in (32_768, 7):
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
            for num_jitters in (1, 2, 3, 5):
                model = _interleaved_fit(fit_kde, kinds, kernel_name, num_jitters,
                                         seed=num_jitters)
                points = _probe_points(model.origin.rows, model.effective_bandwidths)
                got = [kde_eval(model, p) for p in points]
                want = [reference_kde_eval(model, p, chunk_rows=chunk_rows) for p in points]
                assert_sums_match_full_walk(model, points, got, want)
                assert got[-1] == 0.0 and max(got) > 0.0

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("kinds", INTERLEAVED)
    def test_loclin_eval_matches_per_replicate_reference(self, monkeypatch, kinds, kernel_name):
        # one chunk for R = 1 and 5, chunks of 7 rows for R = 2 and 3
        for chunk_rows, num_jitters in ((32_768, 1), (7, 2), (7, 3), (32_768, 5)):
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
            for response in {0, len(kinds) - 1}:
                for jitter_response in {False, kinds[response] == "d"}:
                    model = _interleaved_fit(fit_loclin, kinds, kernel_name, num_jitters,
                                             seed=num_jitters, response_index=response,
                                             jitter_response=jitter_response)
                    cov = list(model.covariate_indices)
                    h = model.bandwidths * model.transform.scales
                    points = _probe_points(model.origin.rows[:, cov], h)
                    got = [_outcome(loclin_eval, model, p) for p in points]
                    want = [_outcome(reference_loclin_eval, model, p,
                                     reference_product_weights, chunk_rows) for p in points]
                    assert_sums_match_full_walk(model, points, got, want)
                    assert got[-1] == "NoLocalDataError"

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("kinds", ["cdc", "dcdc"])
    def test_covariate_weights_match_per_replicate_reference(self, kinds, kernel_name):
        # the weights a KDE's conditional functionals take: one row per
        # replicate when a conditioned covariate is jittered, else one n-vector
        from jitterkit import regression

        model = _interleaved_fit(fit_kde, kinds, kernel_name, 3)
        h = model.effective_bandwidths
        for cov in ([], [0], [1], [0, 1], [1, 2], [0, 2], list(range(len(kinds)))):
            point = {j: float(model.origin.rows[5, j]) + 0.2 for j in cov}
            got, norm = regression._covariate_weights(model, point)
            want = np.stack([reference_product_weights(
                model.kernel, rep.rows, cov, [point[j] for j in cov], h[cov])
                for rep in jitter_replicates(model)])
            jittered = any(kinds[j] == "d" for j in cov)
            assert got.shape == (want.shape if jittered else want.shape[1:])
            assert_array_equal(np.broadcast_to(got, want.shape), want)
            assert norm == float(np.prod(h[cov]))

    @pytest.mark.parametrize("estimator", ["gaussian", "epanechnikov", "loclin"])
    def test_untouched_factors_once_per_chunk(self, monkeypatch, estimator):
        # n = 50 rows in chunks of 7 is 8 chunks; R = 3 replicates. Each
        # column's point coordinate names it in the count. An Epanechnikov
        # KDE walks only the rows within one bandwidth of the point in
        # column 1, in chunks of 7 as well.
        monkeypatch.setattr(estimators, "_CHUNK_ROWS", 7)
        calls = []
        factor = estimators._kernel_factor
        monkeypatch.setattr(estimators, "_kernel_factor",
                            lambda kernel, column, p, *rest: calls.append(p)
                            or factor(kernel, column, p, *rest))
        kinds = "dcdc"
        if estimator == "loclin":
            model = _interleaved_fit(fit_loclin, kinds, "gaussian", 3, n=50,
                                     response_index=3)
            loclin_eval(model, [1.0, 2.0, 3.0])
            per_column = {1.0: 24, 2.0: 8, 3.0: 24}
        else:
            model = _interleaved_fit(fit_kde, kinds, estimator, 3, n=50)
            kde_eval(model, [1.0, 2.0, 3.0, 4.0])
            chunks = 8
            if estimator == "epanechnikov":
                x = model.origin.rows[:, 1]
                within = np.sum(np.abs(x - 2.0) <= model.effective_bandwidths[1])
                assert 0 < within < 50
                chunks = math.ceil(within / 7)
            per_column = {1.0: 3 * chunks, 2.0: chunks, 3.0: 3 * chunks, 4.0: chunks}
        assert {p: calls.count(p) for p in set(calls)} == per_column

    def test_model_columns_are_contiguous_and_read_only(self, tmp_path):
        # a model views each unjittered column in its column-major origin
        # and holds each jittered one as its own (R, n) array
        ds = _interleaved_dataset("dcdc", 40, seed=3)
        spec = NoiseSpec(0.8, 5, dims=2)
        kde = fit_kde(ds, spec, num_jitters=2, seed=4)
        loclin = fit_loclin(ds, 3, spec, num_jitters=2, seed=4)
        models = [kde, loclin]
        for model in (kde, loclin):
            save_model(model, tmp_path / "m.bin")
            models.append(load_model(tmp_path / "m.bin"))
        for model in models:
            reps = jitter_replicates(model)
            assert [col.shape for col in model.columns] == [(2, 40), (40,), (2, 40), (40,)]
            assert [j for j, col in enumerate(model.columns)
                    if any(col is held for held in model.jittered)] == [0, 2]
            for j, col in enumerate(model.columns):
                assert col.flags.c_contiguous and not col.flags.writeable
                assert np.shares_memory(col, model.origin.rows) == (col.ndim == 1)
                with pytest.raises(ValueError):
                    col[0] = 1.0
                want = (np.stack([rep.rows[:, j] for rep in reps]) if col.ndim == 2
                        else ds.rows[:, j])
                assert_array_equal(col, want)
        # rows no one can write to are kept, not copied
        hand = JitteredDataset(origin=ds, noise=spec, seed=0, replicate_index=0, rows=ds.rows)
        assert ds.rows.flags.f_contiguous and hand.rows is ds.rows

    def test_replicates_rebuilt_on_demand(self):
        ds = _interleaved_dataset("dc", 30, seed=6)
        model = fit_kde(ds, SPEC, num_jitters=3, seed=7)
        rebuilt = model.replicates
        assert [rep.replicate_index for rep in rebuilt] == [0, 1, 2]
        for rep, want in zip(rebuilt, jitter_replicates(model), strict=True):
            assert rep.origin is model.origin and rep.seed == 7
            assert_array_equal(rep.rows, want.rows)
        again = KdeModel.from_replicates(rebuilt, kernel=model.kernel, noise=model.noise,
                                         seed=model.seed, bandwidths=model.bandwidths,
                                         transform=model.transform)
        for got, want in zip(again.columns, model.columns, strict=True):
            assert_array_equal(got, want)

    def test_from_replicates_needs_one_origin(self):
        ds = _interleaved_dataset("dc", 20, seed=5)
        other = MixedDataset(ds.schema, ds.rows.copy())
        reps = [JitteredDataset(origin=o, noise=SPEC, seed=0, replicate_index=r, rows=ds.rows)
                for r, o in enumerate((ds, other))]
        with pytest.raises(InvalidParameterError, match="one dataset"):
            KdeModel.from_replicates(reps, kernel=get_kernel("gaussian"), noise=SPEC, seed=0,
                                     bandwidths=np.ones(2),
                                     transform=Standardization(np.zeros(2), np.ones(2)))

    def test_model_columns_checked_against_origin(self):
        ds = _interleaved_dataset("dc", 20, seed=5)
        fields = dict(kernel=get_kernel("gaussian"), noise=SPEC, seed=0, bandwidths=np.ones(2),
                      transform=Standardization(np.zeros(2), np.ones(2)), origin=ds)
        jittered = ds.rows[:, 0] + 0.25
        model = KdeModel(num_jitters=2, jittered=(np.stack([jittered, jittered]),), **fields)
        # a model is given no unjittered column: it reads the origin's own,
        # so none can differ from it
        assert model.columns[1].base is ds.rows
        assert_array_equal(model.columns[0], [jittered, jittered])
        with pytest.raises(SchemaError, match="expected \\(2, 20\\)"):
            KdeModel(num_jitters=2, jittered=(jittered,), **fields)
        with pytest.raises(SchemaError, match="holds 0 jittered columns, but its origin has 1"):
            KdeModel(num_jitters=1, jittered=(), **fields)
        with pytest.raises(SchemaError, match="holds 2 jittered columns"):
            KdeModel(num_jitters=1, jittered=(jittered[None], jittered[None]), **fields)
        with pytest.raises(InvalidParameterError, match="at least one"):
            KdeModel(num_jitters=0, jittered=(jittered[None][:0],), **fields)

    def test_caller_writes_reach_neither_dataset_nor_model(self):
        # a dataset copies the rows it is given, and a model given a
        # writable jittered array copies it too
        source = _interleaved_dataset("dc", 30, seed=8)
        rows = np.array(source.rows)
        ds = MixedDataset(source.schema, rows)
        model = fit_kde(ds, SPEC, num_jitters=2, seed=3)
        density, replicate = kde_eval(model, [1.0, 0.5]), model.replicates[1].rows
        rows[:] = np.nan
        assert np.all(np.isfinite(ds.rows))
        assert kde_eval(model, [1.0, 0.5]) == density
        assert_array_equal(model.replicates[1].rows, replicate)
        given = np.stack([jitter_replicates(model)[r].rows[:, 0] for r in range(2)])
        hand = KdeModel(jittered=(given,), **{f: getattr(model, f) for f in (
            "kernel", "noise", "seed", "bandwidths", "transform", "origin", "num_jitters")})
        assert not np.shares_memory(hand.columns[0], given) and given.flags.writeable
        given[:] = np.nan
        assert kde_eval(hand, [1.0, 0.5]) == density

    @pytest.mark.parametrize("num_jitters", [1, 2, 5])
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_origin_views_past_one_chunk_equal_references(self, monkeypatch, kernel_name,
                                                          num_jitters):
        # columns 0 and 2 are unjittered, read in place from the origin; at
        # n = 33 000 every sum spans two 32 768-row chunks
        from jitterkit import cond_cdf, cond_quantile, regression

        n, kinds = 33_000, "cdcd"
        model = _interleaved_fit(fit_kde, kinds, kernel_name, num_jitters, n=n,
                                 seed=num_jitters)
        assert all(np.shares_memory(model.columns[j], model.origin.rows) for j in (0, 2))
        # an Epanechnikov model windows every sum that evaluates column 0
        assert (model.order is not None) == (kernel_name == "epanechnikov")
        points = _probe_points(model.origin.rows, model.effective_bandwidths)
        got = [kde_eval(model, p) for p in points]
        assert_sums_match_full_walk(model, points, got,
                                    [reference_kde_eval(model, p) for p in points])
        assert got[-1] == 0.0 and max(got) > 0.0
        Q = FunctionalQuery
        queries = [(cond_mean, Q("mean", 0, "continuous", {1: 1.0})),
                   (cond_mean, Q("mean", 1, "discrete", {0: 0.5, 2: 1.0})),
                   (cond_cdf, Q("cdf", 2, "continuous", {3: 2.0}, threshold=1.0)),
                   (cond_cdf, Q("cdf", 3, "discrete", {0: 0.0}, threshold=1)),
                   (cond_quantile, Q("quantile", 3, "discrete", {2: 1.5}, alpha=0.6)),
                   (cond_quantile, Q("quantile", 0, "continuous", {}, alpha=0.3))]

        def functionals():
            return [(e.value, e.denominator_mass) for e in (f(model, q) for f, q in queries)]

        got = functionals()
        monkeypatch.setattr(regression, "_kde_response_slice", reference_kde_response_slice)
        monkeypatch.setattr(regression, "_covariate_weights", reference_covariate_weights)
        assert got == functionals()
        for response, jitter_response in ((0, False), (3, False), (3, True)):
            loclin = _interleaved_fit(fit_loclin, kinds, kernel_name, num_jitters, n=n,
                                      seed=num_jitters, response_index=response,
                                      jitter_response=jitter_response)
            cov = list(loclin.covariate_indices)
            points = _probe_points(loclin.origin.rows[:, cov],
                                   loclin.bandwidths * loclin.transform.scales)
            got = [_outcome(loclin_eval, loclin, p) for p in points]
            assert_sums_match_full_walk(
                loclin, points, got, [_outcome(reference_loclin_eval, loclin, p) for p in points])
            assert got[-1] == "NoLocalDataError" and isinstance(got[0], float)

    def test_untouched_column_must_match_origin(self):
        ds = _interleaved_dataset("dc", 20, seed=5)
        rows = np.array(ds.rows)
        rows[3, 0] += 0.25  # the discrete column may move
        JitteredDataset(origin=ds, noise=SPEC, seed=0, replicate_index=0, rows=rows)
        rows[4, 1] += 1e-12  # the continuous one may not
        with pytest.raises(SchemaError, match="continuous column 'c1'"):
            JitteredDataset(origin=ds, noise=SPEC, seed=0, replicate_index=0, rows=rows)


def _dyadic_window_model(num_jitters):
    """Hand-built Epanechnikov KDE of a jittered z and an unjittered x, on
    the 0.25 grid (jitter on the 0.125 grid), with bandwidth 0.5 and an
    identity transform: a point 0.5 from a row's x is at exactly |u| = 1,
    and one ulp nearer gives the row a weight of about 2^-51."""
    rng = np.random.default_rng(num_jitters)
    rows = np.column_stack([rng.integers(0, 5, 40), rng.integers(-8, 9, 40) * 0.25]).astype(float)
    origin = MixedDataset((ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")),
                          rows)
    reps = []
    for r in range(num_jitters):
        rep = rows.copy()
        rep[:, 0] += rng.integers(-3, 4, 40) * 0.125
        reps.append(JitteredDataset(origin=origin, noise=SPEC, seed=0, replicate_index=r,
                                    rows=rep))
    return KdeModel.from_replicates(reps, kernel=get_kernel("epanechnikov"), noise=SPEC, seed=0,
                                    bandwidths=np.full(2, 0.5),
                                    transform=Standardization(np.zeros(2), np.ones(2)))


def _window_size(model, columns, point, h):
    """How many rows a compact kernel's window at ``point`` holds, or None
    for a full walk."""
    pieces = estimators._window_rows(model, columns, point, h)
    return None if pieces is None else sum(len(piece) for piece in pieces)


class TestCompactWindows:
    """An Epanechnikov sum walks only the rows within one bandwidth of the
    point in the model's ordered column: every weight it leaves out is
    exactly 0, and every value agrees with the full walk within the
    summation-order bound (``conftest``)."""

    @pytest.mark.parametrize("chunk_rows", [None, 3])
    @pytest.mark.parametrize("num_jitters", [1, 3])
    def test_window_keeps_every_nonzero_weight(self, monkeypatch, chunk_rows, num_jitters):
        if chunk_rows is not None:
            monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
        model = _dyadic_window_model(num_jitters)
        assert model.order[0] == 1
        h = model.effective_bandwidths
        x = model.origin.rows[:, 1]
        for i in range(0, 40, 3):
            z = float(model.origin.rows[i, 0])
            for edge in (x[i] - 0.5, x[i] + 0.5):
                # at |u| = 1 exactly, one ulp inside and one ulp outside
                for px in (edge, np.nextafter(edge, x[i]), np.nextafter(edge, 2 * edge - x[i])):
                    point = [z, px]
                    got = _weights_of_rows(model, [0, 1], point, h)
                    want = [reference_product_weights(model.kernel, rep.rows, [0, 1], point, h)
                            for rep in model.replicates]
                    assert_array_equal(got, want)
                    # every row of nonzero weight, and rows a few ulps beyond
                    size = _window_size(model, [0, 1], point, h)
                    assert np.sum(np.abs(x - px) < 0.5) <= size <= np.sum(np.abs(x - px) <= 0.5 + 1e-12)
        # a point one ulp within reach of the data's last row only
        px = np.nextafter(x.max() + 0.5, -np.inf)
        assert 0.0 < kde_eval(model, [float(model.origin.rows[np.argmax(x), 0]), px])

    @pytest.mark.parametrize("chunk_rows", [32_768, 7])
    @pytest.mark.parametrize("num_jitters", [1, 3])
    @pytest.mark.parametrize("bandwidth", [None, 40.0])
    def test_windowed_sums_match_full_walk(self, monkeypatch, chunk_rows, num_jitters,
                                           bandwidth):
        # n = 60 rows: one chunk, or 9 chunks of 7; a bandwidth of 40
        # standardized units puts every row in the window
        monkeypatch.setattr(estimators, "_CHUNK_ROWS", chunk_rows)
        kw = dict(num_jitters=num_jitters, seed=num_jitters, bandwidth=bandwidth)
        kde = _interleaved_fit(fit_kde, "dcc", "epanechnikov", **kw)
        loclin = _interleaved_fit(fit_loclin, "dcc", "epanechnikov", response_index=2, **kw)
        for model, cov in ((kde, [0, 1, 2]), (loclin, [0, 1])):
            assert model.order[0] == 1
            h = model.bandwidths * model.transform.scales
            points = _probe_points(model.origin.rows[:, cov], h)
            sizes = [_window_size(model, cov, p, h) for p in points]
            assert sizes[-1] == 0
            # the points on and near the data: a part of the rows, or all
            assert (sizes[:6] == [60] * 6) if bandwidth else max(sizes) < 60
            if model is kde:
                got = [kde_eval(model, p) for p in points]
                want = [reference_kde_eval(model, p, chunk_rows=chunk_rows) for p in points]
                assert got[-1] == 0.0 and max(got) > 0.0
            else:
                got = [_outcome(loclin_eval, model, p) for p in points]
                want = [_outcome(reference_loclin_eval, model, p, reference_product_weights,
                                 chunk_rows) for p in points]
                assert got[-1] == want[-1] == "NoLocalDataError"
            assert_sums_match_full_walk(model, points, got, want)

    def test_walk_computes_only_the_window(self, monkeypatch):
        # at n = 2e5 in point-eval's layout, each point's kernel factors
        # cover the rows within one bandwidth of its x, once for x and once
        # per replicate for z: a few percent of the full walk's
        n, num_jitters = 200_000, 2
        ds = _mixed_dataset(1, n, seed=60)
        ds = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        model = fit_kde(ds, SPEC, kernel=get_kernel("epanechnikov"), num_jitters=num_jitters,
                        seed=61)
        sizes = []
        factor = estimators._kernel_factor
        monkeypatch.setattr(estimators, "_kernel_factor",
                            lambda kernel, column, *rest: sizes.append(len(column))
                            or factor(kernel, column, *rest))
        x, hx = ds.rows[:, 1], model.effective_bandwidths[1]
        for z, px in [(0.0, -0.5), (1.0, 0.8), (2.0, 2.5), (4.0, 3.2)]:
            sizes.clear()
            kde_eval(model, [z, px])
            within = int(np.sum(np.abs(x - px) <= hx))
            assert 0 < within < n // 5
            assert (num_jitters + 1) * within <= sum(sizes) <= 2 * (num_jitters + 1) * within


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

    # bytes recorded from an earlier save_model: how a model holds its
    # replicates must not change them (the header digests each replicate's
    # C-order rows)
    @pytest.mark.parametrize("estimator, digest", [
        ("kde", "cbed03b2b4bb3fe575c1fbcdf3615a171b6046a770b8a0d179c77e7e7f939574"),
        ("loclin", "bbf6c75d4d6839ec4f04904bac3d05d588c039a9a514e93ebc2817fcac583bc0"),
    ])
    def test_artifact_bytes_pinned(self, tmp_path, estimator, digest):
        rng = np.random.default_rng(2024)
        z = rng.binomial(4, 0.3, 40).astype(float)
        x = z + rng.normal(size=40)
        ds = MixedDataset((ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")),
                          np.column_stack([z, x]))
        spec = NoiseSpec(0.8, 5, dims=1)
        model = (fit_kde(ds, spec, num_jitters=3, seed=7) if estimator == "kde"
                 else fit_loclin(ds, 1, spec, num_jitters=3, seed=7))
        path = tmp_path / "m.bin"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

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
    kde = KdeModel.from_replicates((rep,), kernel=get_kernel("gaussian"), noise=NO_DISCRETE,
                                   seed=0, bandwidths=kde_bandwidths,
                                   transform=Standardization(means=np.zeros(3), scales=np.ones(3)))
    origin2 = MixedDataset(origin.schema[:2], rows[:, :2])
    rep2 = JitteredDataset(origin=origin2, noise=NO_DISCRETE, seed=0, replicate_index=0,
                           rows=rows[:, :2])
    loclin = LocLinModel.from_replicates(
        (rep2,), kernel=get_kernel("gaussian"), noise=NO_DISCRETE, seed=0,
        bandwidths=loclin_bandwidths,
        transform=Standardization(means=np.zeros(1), scales=np.ones(1)), response_index=0)
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

    # R n = 20 rows; products of the effective bandwidths must stay normal
    # and finite: below 2.2e-308 the density's norm underflows (nan), and
    # past 1.8e308 it overflows (0.0)
    @pytest.mark.parametrize("bandwidths", [
        [1e-300, 1e-10, 0.5], [1e300, 1e9, 0.5], [1e307, 0.5, 0.5], [1e-308, 1.0, 1.0],
    ], ids=["narrow", "wide", "rows_overflow", "subnormal"])
    def test_kde_rejects_bandwidth_products_out_of_range(self, bandwidths):
        with pytest.raises(InvalidParameterError, match="effective bandwidths"):
            _hand_models(np.array(bandwidths), [0.5])

    @pytest.mark.parametrize("bandwidths", [
        [1e-300, 1e-7, 1e300], [1e-300, 1.0, 1.0], [1e306, 1.0, 1.0],
    ], ids=["balanced", "narrow_edge", "wide_edge"])
    def test_kde_accepts_bandwidth_products_in_range(self, bandwidths):
        kde, _ = _hand_models(np.array(bandwidths), [0.5])
        assert math.isfinite(kde_eval(kde, [0.0, 0.0, 0.0]))

    def test_bandwidth_product_checked_on_load(self, tmp_path):
        ds = _continuous_dataset()
        path = tmp_path / "m.bin"
        save_model(fit_kde(ds, NO_DISCRETE, seed=1), path)
        header, _, rows = path.read_bytes().partition(b"\n")
        header = json.loads(header)
        header["bandwidths"] = [1e-300, 1e-300]
        path.write_bytes(json.dumps(header).encode() + b"\n" + rows)
        with pytest.raises(InvalidParameterError, match="effective bandwidths"):
            load_model(path)
        # a local linear fit forms no such product
        assert fit_loclin(ds, 0, NO_DISCRETE, bandwidth=1e-300).bandwidths.tolist() == [1e-300]

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
        # the fit must standardize a C-order copy of replicate 0's rows:
        # numpy sums the column-major rows themselves, or a column-selected
        # copy of them, in another order, which changes the means and
        # scales in the last bit
        ds = _mixed_dataset(1, 300, seed=40)
        spec = NoiseSpec(0.8, 5, dims=1)
        model = fit_kde(ds, spec, kernel=get_kernel(kernel_name), num_jitters=2, seed=41)
        replicate_zero = jitter(ds, spec, 41, 0).rows
        rows = np.ascontiguousarray(replicate_zero)
        expected = Standardization.from_rows(rows)
        assert model.transform.means.tolist() == expected.means.tolist()
        assert model.transform.scales.tolist() == expected.scales.tolist()
        assert model.bandwidths.tolist() == select_bandwidth(rows).tolist()
        column_major = Standardization.from_rows(replicate_zero)
        assert column_major.means.tolist() != expected.means.tolist()

    def test_fit_loclin_standardizes_replicate_zero_covariates(self):
        ds = _mixed_dataset(1, 300, seed=42)
        spec = NoiseSpec(0.8, 5, dims=1)
        model = fit_loclin(ds, 2, spec, num_jitters=2, seed=43)
        cov = jitter(ds, spec, 43, 0).rows[:, [0, 1]]
        expected = Standardization.from_rows(cov)
        assert model.transform.means.tolist() == expected.means.tolist()
        assert model.transform.scales.tolist() == expected.scales.tolist()
        assert model.bandwidths.tolist() == select_bandwidth(cov).tolist()
