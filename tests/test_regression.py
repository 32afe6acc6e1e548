"""Conditional functionals: identities against the analytic jittered density,
then statistical checks on fitted KDE models."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jitterkit import (
    AnalyticJitteredDensity,
    ColumnSchema,
    DiscretePmf,
    FunctionalQuery,
    GaussianConditional,
    InvalidParameterError,
    JitteredDataset,
    KdeModel,
    Kernel,
    MixedDataset,
    NoLocalDataError,
    NoiseSpec,
    ResponseSlice,
    Standardization,
    SyntheticMixedModel,
    adaptive_integral,
    classify,
    cond_cdf,
    cond_mean,
    cond_quantile,
    dummy_code,
    fit_kde,
    fit_loclin,
    get_kernel,
    kde_eval,
    loclin_eval,
    response_slice,
    true_conditional,
)

from jitterkit import estimators
from conftest import (
    assert_sums_match_full_walk,
    discrete_dataset,
    jitter_replicates,
    mixed_dataset,
    reference_covariate_weights,
    reference_kde_eval,
    reference_kde_response_slice,
    reference_loclin_eval,
    reference_product_weights,
)

PMFS = {
    "bernoulli": DiscretePmf.bernoulli(0.3),
    "binomial": DiscretePmf.binomial(4, 0.3),
}


def _mean_q():
    return FunctionalQuery(kind="mean", response_index=0, response_kind="discrete")


def _cdf_q(t):
    return FunctionalQuery(kind="cdf", response_index=0, response_kind="discrete",
                           threshold=t)


def _quantile_q(alpha):
    return FunctionalQuery(kind="quantile", response_index=0, response_kind="discrete",
                           alpha=alpha)


class TestAnalyticIdentities:
    """The correction-term identity: functionals of the exact jittered
    density reproduce the original discrete functionals."""

    @pytest.mark.parametrize("name", list(PMFS))
    def test_mean(self, name, battery_spec):
        pmf = PMFS[name]
        dens = AnalyticJitteredDensity.from_pmf(pmf, battery_spec)
        est = cond_mean(dens, _mean_q())
        assert est.value == pytest.approx(pmf.mean(), abs=1e-8)
        assert est.denominator_mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name", list(PMFS))
    def test_cdf_every_integer(self, name, battery_spec):
        pmf = PMFS[name]
        dens = AnalyticJitteredDensity.from_pmf(pmf, battery_spec)
        for t in range(pmf.support_min - 1, pmf.support_max + 2):
            est = cond_cdf(dens, _cdf_q(t))
            assert est.value == pytest.approx(pmf.cdf(t), abs=1e-8)

    @pytest.mark.parametrize("name", list(PMFS))
    def test_quantile_grid(self, name, battery_spec):
        # levels kept away from the CDF jump values, where the quantile
        # function is discontinuous and any float comparison is knife-edge
        pmf = PMFS[name]
        dens = AnalyticJitteredDensity.from_pmf(pmf, battery_spec)
        for alpha in (0.05, 0.24, 0.3, 0.5, 0.65, 0.9, 0.99):
            est = cond_quantile(dens, _quantile_q(alpha))
            assert est.value == pmf.quantile(alpha)

    def test_quantile_alpha_zero_is_window_floor(self, binom43):
        dens = AnalyticJitteredDensity.from_pmf(binom43, NoiseSpec(0.8, 5, dims=1))
        est = cond_quantile(dens, _quantile_q(0.0))
        assert est.value == binom43.support_min - 2

    def test_correction_decomposition_theta_zero(self):
        """Bernoulli(0.3), uniform noise: the partial integral up to 0 and
        the correction term are each 0.35, summing to the true CDF 0.7."""
        pmf = DiscretePmf.bernoulli(0.3)
        spec = NoiseSpec(theta=0.0, nu=1, dims=1)
        dens = AnalyticJitteredDensity.from_pmf(pmf, spec)
        sl = dens.response_slice(0, {})
        kinks = (-0.5, 0.5, 1.5)  # k +- 1/2 for k in {0, 1}: uniform noise
        denom = adaptive_integral(sl.density, sl.lower, sl.upper, tol=1e-12, breakpoints=kinks)
        partial = adaptive_integral(sl.density, sl.lower, 0.0, tol=1e-12, breakpoints=kinks)
        correction = sl.density(0.0) / (2.0 * denom)
        assert partial / denom == pytest.approx(0.35, abs=1e-10)
        assert correction == pytest.approx(0.35, abs=1e-10)
        est = cond_cdf(dens, _cdf_q(0))
        assert est.value == pytest.approx(0.7, abs=1e-10)

    def test_cdf_thresholds_beyond_range(self, binom43):
        dens = AnalyticJitteredDensity.from_pmf(binom43, NoiseSpec(0.4, 2, dims=1))
        assert cond_cdf(dens, _cdf_q(binom43.support_min - 2)).value == 0.0
        assert cond_cdf(dens, _cdf_q(binom43.support_max + 2)).value == pytest.approx(
            1.0, abs=1e-10
        )

    def test_cdf_monotone_in_threshold(self, binom43):
        dens = AnalyticJitteredDensity.from_pmf(binom43, NoiseSpec(0.8, 5, dims=1))
        vals = [cond_cdf(dens, _cdf_q(t)).value for t in range(-2, 7)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestAnalyticContinuousResponse:
    """With a continuous response the functionals carry no correction term
    and match the conditional gaussian closed forms."""

    def _density(self):
        pmf = DiscretePmf.binomial(4, 0.3)
        cont = GaussianConditional(mean_intercept=1.0, mean_slope=2.0, scale_intercept=0.5)
        model = SyntheticMixedModel(margin=pmf, continuous=cont)
        return AnalyticJitteredDensity(model=model, spec=NoiseSpec(0.8, 5, dims=1))

    def test_conditional_mean(self):
        dens = self._density()
        q = FunctionalQuery(kind="mean", response_index=1, response_kind="continuous",
                            covariate_point={0: 2.0})
        assert cond_mean(dens, q).value == pytest.approx(5.0, abs=1e-8)

    def test_conditional_cdf(self):
        dens = self._density()
        q = FunctionalQuery(kind="cdf", response_index=1, response_kind="continuous",
                            covariate_point={0: 2.0}, threshold=5.0)
        assert cond_cdf(dens, q).value == pytest.approx(0.5, abs=1e-8)

    def test_conditional_quantile_bisection(self):
        dens = self._density()
        q = FunctionalQuery(kind="quantile", response_index=1, response_kind="continuous",
                            covariate_point={0: 2.0}, alpha=0.975)
        expected = scipy.stats.norm.ppf(0.975, loc=5.0, scale=0.5)
        assert cond_quantile(dens, q).value == pytest.approx(expected, abs=1e-7)

    def test_marginal_mean_over_discrete(self):
        # marginalizing the jittered coordinate: E[X] = 1 + 2 E[Z] = 3.4
        dens = self._density()
        q = FunctionalQuery(kind="mean", response_index=1, response_kind="continuous")
        assert cond_mean(dens, q).value == pytest.approx(3.4, abs=1e-8)

    def test_mean_then_true_conditional_agree(self):
        dens = self._density()
        q = FunctionalQuery(kind="mean", response_index=1, response_kind="continuous",
                            covariate_point={0: 3.0})
        expected = true_conditional(dens.model, "mean", given_z=3)
        assert cond_mean(dens, q).value == pytest.approx(expected, abs=1e-8)

    def test_cdf_monotone_on_fine_grid(self):
        dens = self._density()
        vals = []
        for t in np.linspace(2.0, 8.0, 61):
            q = FunctionalQuery(kind="cdf", response_index=1, response_kind="continuous",
                                covariate_point={0: 2.0}, threshold=float(t))
            vals.append(cond_cdf(dens, q).value)
        assert np.all(np.diff(vals) >= -1e-10)
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestQueryValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            FunctionalQuery(kind="mode", response_index=0, response_kind="discrete")

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            FunctionalQuery(kind="quantile", response_index=0, response_kind="discrete",
                            alpha=1.5)

    def test_non_integer_threshold_for_discrete(self):
        with pytest.raises(InvalidParameterError):
            FunctionalQuery(kind="cdf", response_index=0, response_kind="discrete",
                            threshold=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariate_point(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            FunctionalQuery(kind="mean", response_index=0, response_kind="discrete",
                            covariate_point={1: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold(self, value):
        with pytest.raises(InvalidParameterError, match="finite"):
            FunctionalQuery(kind="cdf", response_index=0, response_kind="continuous",
                            threshold=value)

    @pytest.mark.parametrize("query", [
        dict(kind="cdf", response_kind="discrete", threshold=10**400),
        dict(kind="cdf", response_kind="continuous", threshold=-10**400),
        dict(kind="mean", response_kind="discrete", covariate_point={1: 10**400}),
        dict(kind="quantile", response_kind="continuous", alpha=0.5,
             covariate_point={1: 0.0, 2: -10**400}),
    ], ids=["discrete_threshold", "continuous_threshold", "covariate", "second_covariate"])
    def test_integer_beyond_float_range(self, query):
        with pytest.raises(InvalidParameterError, match="finite"):
            FunctionalQuery(response_index=0, **query)

    def test_large_integer_threshold_within_float_range(self):
        q = FunctionalQuery(kind="cdf", response_index=0, response_kind="discrete",
                            threshold=10**300)
        assert q.threshold == 10**300

    def test_covariate_point_includes_response(self):
        with pytest.raises(InvalidParameterError):
            FunctionalQuery(kind="mean", response_index=0, response_kind="discrete",
                            covariate_point={0: 1.0})

    def test_class_probs_needs_columns(self):
        with pytest.raises(InvalidParameterError):
            FunctionalQuery(kind="class_probs", response_index=0, response_kind="discrete")

    @pytest.mark.parametrize("columns", [(0, 0), (2, 1, 2), (1, 3, 1, 3)])
    def test_repeated_class_columns(self, columns):
        # a repeated class would be counted twice in the renormalization
        with pytest.raises(InvalidParameterError, match="more than once"):
            FunctionalQuery(kind="class_probs", response_index=0, response_kind="discrete",
                            class_columns=columns)

    def test_kind_mismatch_raises(self, binom43):
        dens = AnalyticJitteredDensity.from_pmf(binom43, NoiseSpec(0.0, 1, dims=1))
        with pytest.raises(InvalidParameterError):
            cond_mean(dens, _cdf_q(0))


def _constant_response_model(c=2.0, n=40):
    """Hand-built KDE over (y, x) with constant response; the automatic
    fit would reject the zero-variance column, the estimator itself is fine."""
    rng = np.random.default_rng(0)
    rows = np.column_stack([np.full(n, c), rng.uniform(0, 1, n)])
    origin = MixedDataset(
        (ColumnSchema("y", "continuous"), ColumnSchema("x", "continuous")), rows
    )
    spec = NoiseSpec(theta=0.8, nu=5, dims=0)
    rep = JitteredDataset(origin=origin, noise=spec, seed=0, replicate_index=0, rows=rows)
    return KdeModel.from_replicates(
        (rep,),
        kernel=get_kernel("gaussian"),
        noise=spec,
        seed=0,
        bandwidths=np.array([0.3, 0.3]),
        transform=Standardization(means=np.zeros(2), scales=np.ones(2)),
    )


class TestKdeFunctionals:
    def test_constant_response_mean(self):
        model = _constant_response_model(c=2.0)
        q = FunctionalQuery(kind="mean", response_index=0, response_kind="continuous",
                            covariate_point={1: 0.5})
        assert cond_mean(model, q).value == pytest.approx(2.0, abs=1e-9)

    def test_binomial_mean_consistency(self, binom43):
        ds = discrete_dataset(binom43, 8000, seed=31)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=32)
        est = cond_mean(model, _mean_q())
        assert est.value == pytest.approx(1.2, abs=0.05)
        assert est.denominator_mass == pytest.approx(1.0, abs=1e-3)

    def test_binomial_cdf_and_median(self, binom43):
        ds = discrete_dataset(binom43, 4000, seed=33)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=34)
        assert cond_cdf(model, _cdf_q(1)).value == pytest.approx(0.6517, abs=0.04)
        assert cond_quantile(model, _quantile_q(0.5)).value == 1.0

    def test_mean_sandwich(self, binom43):
        ds = discrete_dataset(binom43, 400, seed=35)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), num_jitters=2, seed=36)
        est = cond_mean(model, _mean_q())
        assert ds.rows[:, 0].min() <= est.value <= ds.rows[:, 0].max()

    def test_cdf_monotone_on_kde(self, binom43):
        ds = discrete_dataset(binom43, 500, seed=37)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=38)
        vals = [cond_cdf(model, _cdf_q(t)).value for t in range(-2, 7)]
        assert np.all(np.diff(vals) >= -1e-10)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_quantile_cdf_coherence_on_kde(self, binom43):
        ds = discrete_dataset(binom43, 1000, seed=39)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=40)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = cond_quantile(model, _quantile_q(alpha)).value
            assert cond_cdf(model, _cdf_q(int(t))).value >= alpha - 1e-8

    def test_no_local_data_raises(self):
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.integers(0, 3, 60).astype(float),
                                rng.normal(size=60)])
        ds = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")), rows
        )
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=5)
        q = FunctionalQuery(kind="mean", response_index=0, response_kind="discrete",
                            covariate_point={1: 500.0})
        with pytest.raises(NoLocalDataError):
            cond_mean(model, q)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("huge", [1e300, -1e300])
    def test_huge_covariate_no_local_data(self, kernel_name, huge):
        # the covariate's (x - p) / h squares to inf: zero weight, and no warning
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.integers(0, 3, 60).astype(float),
                                rng.normal(size=60)])
        ds = MixedDataset(
            (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")), rows
        )
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), kernel=get_kernel(kernel_name), seed=5)
        q = FunctionalQuery(kind="mean", response_index=0, response_kind="discrete",
                            covariate_point={1: huge})
        with pytest.raises(NoLocalDataError):
            cond_mean(model, q)


def _two_class_dataset(n, seed, balanced=True):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n) if balanced else np.zeros(n, dtype=int)
    x = rng.normal(size=n)
    schema = (ColumnSchema("c", "categorical", ("a", "b")), ColumnSchema("x", "continuous"))
    ds = MixedDataset(schema, np.column_stack([labels.astype(float), x]))
    return dummy_code(ds, "c")


class TestClassify:
    def test_balanced_classes(self):
        ds = _two_class_dataset(4000, seed=50)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), seed=51)
        q = FunctionalQuery(kind="class_probs", response_index=0, response_kind="discrete",
                            covariate_point={2: 0.0}, class_columns=(0, 1))
        est = classify(model, q)
        assert_allclose(est.value, [0.5, 0.5], atol=0.06)
        assert est.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_class(self):
        # all rows in class a, encoded directly as dummy columns; the
        # jittered dummy means carry O(1/sqrt(n)) noise, so the estimate
        # approaches (1, 0) rather than hitting it exactly
        n = 2000
        rng = np.random.default_rng(52)
        rows = np.column_stack([np.ones(n), np.zeros(n), rng.normal(size=n)])
        schema = (
            ColumnSchema("c=a", "discrete_ordered"),
            ColumnSchema("c=b", "discrete_ordered"),
            ColumnSchema("x", "continuous"),
        )
        ds = MixedDataset(schema, rows)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), num_jitters=3, seed=53)
        q = FunctionalQuery(kind="class_probs", response_index=0, response_kind="discrete",
                            covariate_point={2: 0.0}, class_columns=(0, 1))
        est = classify(model, q)
        assert est.value[0] == pytest.approx(1.0, abs=0.05)
        assert est.value[1] == pytest.approx(0.0, abs=0.05)
        assert est.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        ds = _two_class_dataset(500, seed=54)
        model = fit_kde(ds, NoiseSpec(0.4, 2, dims=2), num_jitters=2, seed=55)
        for x0 in (-1.0, 0.0, 1.5):
            q = FunctionalQuery(kind="class_probs", response_index=0,
                                response_kind="discrete", covariate_point={2: x0},
                                class_columns=(0, 1))
            est = classify(model, q)
            assert est.value.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(est.value >= 0.0)

    @pytest.mark.parametrize("columns", [(1, 9), (0, 3), (-1, 0)])
    def test_class_column_out_of_range(self, columns):
        from jitterkit import SchemaError

        model = fit_kde(_two_class_dataset(200, seed=58), NoiseSpec(0.8, 5, dims=2),
                        num_jitters=2, seed=59)
        q = FunctionalQuery("class_probs", 0, "discrete", {}, class_columns=columns)
        with pytest.raises(SchemaError, match="out of range"):
            classify(model, q)

    def test_non_dummy_column_rejected(self, binom43):
        ds = discrete_dataset(binom43, 100, seed=56)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), seed=57)
        from jitterkit import SchemaError

        q = FunctionalQuery(kind="class_probs", response_index=0, response_kind="discrete",
                            class_columns=(0,))
        with pytest.raises(SchemaError):
            classify(model, q)


ZX_MODEL = SyntheticMixedModel(
    margin=DiscretePmf.binomial(4, 0.3), continuous=GaussianConditional(mean_slope=0.7)
)


def _zx_kde(kernel_name, n, seed, spec=NoiseSpec(0.8, 5, dims=1)):
    return fit_kde(mixed_dataset(ZX_MODEL, n, seed), spec, kernel=get_kernel(kernel_name),
                   num_jitters=2, seed=seed + 1)


class TestEpanechnikovFunctionals:
    """The Epanechnikov kernel sum has kinks at every r_i +- h; its
    functionals are closed-form kernel integrals and must all succeed."""

    def test_every_functional_is_finite(self):
        model = _zx_kde("epanechnikov", 2000, seed=60)
        Q = FunctionalQuery
        estimates = [
            cond_mean(model, Q("mean", 0, "discrete", {1: 0.3})),
            cond_mean(model, Q("mean", 1, "continuous", {0: 2.0})),
            cond_cdf(model, Q("cdf", 0, "discrete", {1: 0.3}, threshold=1)),
            cond_cdf(model, Q("cdf", 1, "continuous", threshold=0.5)),
            cond_quantile(model, Q("quantile", 0, "discrete", {1: 0.3}, alpha=0.5)),
            cond_quantile(model, Q("quantile", 1, "continuous", {0: 2.0}, alpha=0.5)),
        ]
        for est in estimates:
            assert math.isfinite(est.value)
            assert est.denominator_mass > 0.0
        ds = _two_class_dataset(2000, seed=61)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), kernel=get_kernel("epanechnikov"),
                        seed=62)
        q = Q("class_probs", 0, "discrete", {2: 0.0}, class_columns=(0, 1))
        probs = classify(model, q).value
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class _QuadratureSource:
    """A KDE's response slices with the closed forms dropped, so every
    functional integrates ``density`` by adaptive quadrature: the reference
    path. Gaussian slices get the per-integer noise kinks as breakpoints,
    Epanechnikov ones every kernel edge r_i +- h, the kinks of their sum."""

    def __init__(self, model):
        self.model = model

    def response_slice(self, response_index, covariate_point):
        sl = response_slice(self.model, response_index, covariate_point)
        if self.model.kernel.name == "epanechnikov":
            h = self.model.effective_bandwidths[response_index]
            resp = np.concatenate([rep.rows[:, response_index]
                                   for rep in jitter_replicates(self.model)])
            breaks = np.concatenate([resp - h, resp + h])
        else:
            g1, g2 = self.model.noise.gamma1, self.model.noise.gamma2
            breaks = [k + g for k in range(math.floor(sl.lower), math.ceil(sl.upper) + 1)
                      for g in (-g2, -g1, g1, g2)]
        breaks, density = tuple(breaks), sl.density
        return ResponseSlice(
            density=density, lower=sl.lower, upper=sl.upper,
            integral=lambda a, b: adaptive_integral(
                density, a, b, tol=1e-10, breakpoints=breaks),
            first_moment=lambda a, b: adaptive_integral(
                lambda s: s * density(s), a, b, tol=1e-10, breakpoints=breaks),
            response_min=sl.response_min, response_max=sl.response_max,
        )


def _battery_queries(response_index, point):
    Q = FunctionalQuery
    if response_index == 0:
        return [Q("mean", 0, "discrete", point)] + [
            Q("cdf", 0, "discrete", point, threshold=t) for t in (-1, 0, 1, 2, 5)
        ] + [Q("quantile", 0, "discrete", point, alpha=a) for a in (0.1, 0.5, 0.9)]
    return [Q("mean", 1, "continuous", point)] + [
        Q("cdf", 1, "continuous", point, threshold=t) for t in (-1.3, 0.2, 1.7)
    ] + [Q("quantile", 1, "continuous", point, alpha=a) for a in (0.1, 0.5, 0.9)]


class TestClosedFormMatchesQuadrature:
    @pytest.mark.parametrize("kernel_name,n", [("gaussian", 300), ("epanechnikov", 40)])
    @pytest.mark.parametrize("response_index,point", [
        (0, {}), (0, {1: 0.3}), (1, {}), (1, {0: 1.0}),
    ], ids=["z", "z|x", "x", "x|z"])
    def test_battery(self, kernel_name, n, response_index, point):
        model = _zx_kde(kernel_name, n, seed=70)
        reference = _QuadratureSource(model)
        functional = {"mean": cond_mean, "cdf": cond_cdf, "quantile": cond_quantile}
        for q in _battery_queries(response_index, point):
            fast = functional[q.kind](model, q)
            slow = functional[q.kind](reference, q)
            assert fast.denominator_mass == pytest.approx(slow.denominator_mass, abs=1e-10)
            if q.kind == "quantile" and q.response_kind == "discrete":
                assert fast.value == slow.value
            else:
                tol = 1e-8 if q.kind == "quantile" else 1e-10
                assert fast.value == pytest.approx(slow.value, abs=tol), q

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_integrals_on_subintervals(self, kernel_name):
        # cond_mean integrates over the whole window, where the partial
        # moment term vanishes; subintervals are where it counts
        model = _zx_kde(kernel_name, 40, seed=71)
        sl = response_slice(model, 1, {0: 2.0})
        ref = _QuadratureSource(model).response_slice(1, {0: 2.0})
        for a, b in [(sl.lower, sl.upper), (-0.4, 0.9), (1.0, 1.0), (sl.lower, -2.0)]:
            assert sl.integral(a, b) == pytest.approx(ref.integral(a, b), abs=1e-10)
            assert sl.first_moment(a, b) == pytest.approx(ref.first_moment(a, b), abs=1e-10)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("source", ["kde", "analytic"])
def test_response_slice_rejects_non_finite_covariate(source, value):
    # response_slice is public: a hand-built covariate point does not pass
    # through FunctionalQuery's check
    if source == "kde":
        model, response_index, point = _zx_kde("gaussian", 50, seed=73), 0, {1: value}
    else:
        model = AnalyticJitteredDensity(ZX_MODEL, NoiseSpec(0.8, 5, dims=1))
        response_index, point = 1, {0: value}
    with pytest.raises(InvalidParameterError, match="finite"):
        response_slice(model, response_index, point)


def _recomputing_quantile(model, point, alpha):
    """Continuous quantile of column 1 by the same bisection as
    ``cond_quantile``, recomputing every kernel CDF term at every step."""
    sl = response_slice(model, 1, point)
    h = model.effective_bandwidths
    cov_idx = sorted(point)
    cov_vals = [point[j] for j in cov_idx]
    reps = jitter_replicates(model)
    resp = np.concatenate([rep.rows[:, 1] for rep in reps])
    w = np.concatenate([reference_product_weights(model.kernel, rep.rows, cov_idx, cov_vals,
                                                  h[cov_idx]) for rep in reps])
    norm = len(resp) * h[1] * float(np.prod(h[cov_idx]))

    def cum(t):
        inc = model.kernel.cdf((t - resp) / h[1]) - model.kernel.cdf((sl.lower - resp) / h[1])
        return float((w * inc).sum()) * h[1] / norm

    denom = cum(sl.upper)
    lo, hi = sl.lower, sl.upper
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if min(max(cum(mid) / denom, 0.0), 1.0) >= alpha:
            hi = mid
        else:
            lo = mid
    return hi


def _continuous_cdf(model, point, t):
    return cond_cdf(model, FunctionalQuery("cdf", 1, "continuous", point, threshold=t)).value


def _kernel_cdf_bound(model, point):
    """Most Kernel.cdf calls a continuous quantile of column 1 may make:
    two per bisection step over the window, the floor and the denominator."""
    sl = response_slice(model, 1, point)
    return 2 * math.ceil(math.log2((sl.upper - sl.lower) / 1e-8)) + 4


def _counting_kernel_cdf(monkeypatch):
    calls = []
    cdf = Kernel.cdf
    monkeypatch.setattr(Kernel, "cdf", lambda self, u: calls.append(1) or cdf(self, u))
    return calls


class TestContinuousQuantileWork:
    """The bracketed Newton search lands within 1e-8 of the bisection it
    replaced, keeps the bracket contract, and needs few kernel CDF passes."""

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("point", [{}, {0: 1.0}], ids=["x", "x|z"])
    def test_identical_to_recomputing_bisection(self, kernel_name, point):
        # both searches return a point of [r, r + 1e-8] around the CDF's
        # crossing r, so they agree to 1e-8, not to the last digit
        model = _zx_kde(kernel_name, 200, seed=73)
        for alpha in (1e-4, 0.05, 0.5, 0.93, 0.9999, 1.0):
            q = FunctionalQuery("quantile", 1, "continuous", point, alpha=alpha)
            value = cond_quantile(model, q).value
            assert abs(value - _recomputing_quantile(model, point, alpha)) <= 1e-8, alpha
            assert _continuous_cdf(model, point, value) >= alpha
            assert _continuous_cdf(model, point, value - 1e-8) < alpha

    def test_kernel_cdf_calls(self, monkeypatch):
        # one call for the window floor, one for the denominator, the rest
        # one per search pass; bisection made 34
        model = _zx_kde("gaussian", 200, seed=74)
        calls = _counting_kernel_cdf(monkeypatch)
        cond_quantile(model, FunctionalQuery("quantile", 1, "continuous", {0: 1.0}, alpha=0.4))
        assert len(calls) <= 10

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_alpha_one_ends_within_bound(self, kernel_name, monkeypatch):
        # at alpha = 1 the crossing is where the CDF first rounds to 1.0 and
        # the slope there is about 0, so Newton alone would creep
        model = _zx_kde(kernel_name, 200, seed=75)
        bound = _kernel_cdf_bound(model, {0: 1.0})
        calls = _counting_kernel_cdf(monkeypatch)
        q = cond_quantile(model, FunctionalQuery("quantile", 1, "continuous", {0: 1.0},
                                                 alpha=1.0)).value
        assert len(calls) <= bound
        monkeypatch.undo()
        assert _continuous_cdf(model, {0: 1.0}, q) == 1.0
        assert _continuous_cdf(model, {0: 1.0}, q - 1e-8) < 1.0

    def test_coarse_floats_end_within_bound(self, monkeypatch):
        # near 1e9 adjacent floats lie 1.2e-7 apart, so no bracket narrows
        # to 1e-8; the search must still stop, at a value whose CDF reaches alpha
        rng = np.random.default_rng(76)
        rows = np.column_stack([rng.integers(0, 3, 50).astype(float),
                                1e9 + rng.normal(size=50)])
        ds = MixedDataset((ColumnSchema("z", "discrete_ordered"),
                           ColumnSchema("x", "continuous")), rows)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1))
        bound = _kernel_cdf_bound(model, {})
        calls = _counting_kernel_cdf(monkeypatch)
        q = cond_quantile(model, FunctionalQuery("quantile", 1, "continuous", alpha=0.5)).value
        assert len(calls) <= bound
        monkeypatch.undo()
        assert _continuous_cdf(model, {}, q) >= 0.5
        assert _continuous_cdf(model, {}, np.nextafter(q, -np.inf)) < 0.5

    def test_epanechnikov_plateau_left_end(self, monkeypatch):
        # two clusters further apart than 2h leave the CDF flat in between;
        # a level equal to that flat value is first reached where the last
        # kernel of the left cluster ends, and the slope there is 0
        x = np.array([-0.3, -0.1, 0.0, 0.2, 5.0, 5.1, 5.3, 5.4])
        z = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 2.0])
        ds = MixedDataset((ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous")),
                          np.column_stack([z, x]))
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), kernel=get_kernel("epanechnikov"),
                        bandwidth=[0.5, 0.01])
        h = float(model.effective_bandwidths[1])
        assert 5.0 - 0.2 > 2 * h
        alpha = _continuous_cdf(model, {}, 2.6)
        bound = _kernel_cdf_bound(model, {})
        calls = _counting_kernel_cdf(monkeypatch)
        q = cond_quantile(model, FunctionalQuery("quantile", 1, "continuous", alpha=alpha)).value
        assert len(calls) <= bound
        assert q == pytest.approx(0.2 + h, abs=1e-8)


def _counting(monkeypatch, name):
    calls = []
    method = getattr(Kernel, name)
    monkeypatch.setattr(Kernel, name,
                        lambda self, *args: calls.append(1) or method(self, *args))
    return calls


class TestKdeSliceWork:
    """A KDE slice takes each kernel CDF pass once: each window end on its
    first use, then each new threshold; classify builds the covariate
    weights once. Kept passes give the values fresh ones give."""

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_density_alone_takes_no_kernel_cdf(self, kernel_name, monkeypatch):
        # the kde_atom_mae of `jitterkit benchmark` reads a slice this way
        model = _zx_kde(kernel_name, 300, seed=79)
        calls = _counting_kernel_cdf(monkeypatch)
        sl = response_slice(model, 0, {})
        densities = [sl.density(float(z)) for z in range(5)]
        assert calls == []
        monkeypatch.undo()
        ended = response_slice(model, 0, {})
        ended.integral(ended.lower, ended.upper)  # both window ends taken
        assert densities == [ended.density(float(z)) for z in range(5)]

    def test_cond_mean_kernel_cdf_calls(self, monkeypatch):
        # the floor and the top, shared by the denominator and the moment
        model = _zx_kde("gaussian", 300, seed=80)
        calls = _counting(monkeypatch, "cdf")
        cond_mean(model, FunctionalQuery("mean", 0, "discrete", {1: 0.4}))
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha", [0.05, 0.7, 0.99])
    def test_discrete_quantile_carries_segment_cdf(self, alpha, monkeypatch):
        # each integer segment's upper CDF is the next one's lower: one new
        # pass per integer end inside the window, beside the window's ends
        model = _zx_kde("gaussian", 300, seed=81)
        sl = response_slice(model, 0, {1: 0.4})
        calls = _counting(monkeypatch, "cdf")
        q = cond_quantile(model, FunctionalQuery("quantile", 0, "discrete", {1: 0.4},
                                                 alpha=alpha)).value
        lo = math.floor(sl.response_min) - 2
        assert len(calls) == 2 + sum(sl.lower < t < sl.upper for t in range(lo, int(q) + 1))

    def test_classify_builds_covariate_weights_once(self, monkeypatch):
        # one continuous covariate: its kernel factor is the same in all 3
        # replicates, so one factor pass builds every class's weights
        ds = _two_class_dataset(300, seed=82)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), num_jitters=3, seed=83)
        q = FunctionalQuery("class_probs", 0, "discrete", {2: 0.1}, class_columns=(0, 1))
        factors = []
        factor = estimators._kernel_factor
        monkeypatch.setattr(estimators, "_kernel_factor",
                            lambda *args: factors.append(1) or factor(*args))
        cdfs = _counting(monkeypatch, "cdf")
        classify(model, q)
        assert len(factors) == 1
        assert len(cdfs) == 2 * 2

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_classify_is_the_class_means(self, kernel_name):
        ds = _two_class_dataset(300, seed=84)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=2), kernel=get_kernel(kernel_name),
                        num_jitters=2, seed=85)
        for x0 in (-1.0, 0.3, 2.0):
            means = [cond_mean(model, FunctionalQuery("mean", c, "discrete", {2: x0})).value
                     for c in (0, 1)]
            probs = np.clip(means, 0.0, 1.0)
            q = FunctionalQuery("class_probs", 0, "discrete", {2: x0}, class_columns=(0, 1))
            assert classify(model, q).value.tolist() == (probs / probs.sum()).tolist()

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_kept_passes_equal_fresh_ones(self, kernel_name):
        model = _zx_kde(kernel_name, 300, seed=86)
        point = {0: 1.0}
        kept = response_slice(model, 1, point)
        ts = [kept.lower, -1.0, 0.25, 0.25, 1.5, kept.upper, 40.0]
        for a, b in zip(ts, ts[1:]):
            for name in ("integral", "first_moment"):
                fresh = response_slice(model, 1, point)
                assert getattr(kept, name)(a, b) == getattr(fresh, name)(a, b), (name, a, b)
            assert kept.density(b) == response_slice(model, 1, point).density(b), b

    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_density_offsets_are_symmetric(self, kernel_name):
        # the density reuses (t - resp) / h of the CDF just taken at t; the
        # kernel is symmetric, so it equals the sum over (resp - t) / h
        model = _zx_kde(kernel_name, 300, seed=87)
        kernel = model.kernel
        h = float(model.effective_bandwidths[1])
        resp = np.concatenate([rep.rows[:, 1] for rep in jitter_replicates(model)])
        sl = response_slice(model, 1, {})
        for t in (-2.0, 0.0, 0.7, 1.3, 4.0):
            sl.integral(sl.lower, t)
            want = float(kernel.profile((resp - t) / h).sum()) / (len(resp) * h)
            assert sl.density(t) == want


def _zxy_class_dataset(n, seed):
    """z ~ binomial(4, .3), x | z ~ N(z, 1), y ~ N(0, 1), and a two-class
    label that leans on x, dummy-coded: z and both dummies are jittered,
    x and y are not."""
    rng = np.random.default_rng(seed)
    z = rng.binomial(4, 0.3, n).astype(float)
    x = z + rng.normal(size=n)
    y = rng.normal(size=n)
    a = (x + rng.normal(size=n) > 1.2).astype(float)
    schema = (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous"),
              ColumnSchema("y", "continuous"), ColumnSchema("c=a", "discrete_ordered"),
              ColumnSchema("c=b", "discrete_ordered"))
    return MixedDataset(schema, np.column_stack([z, x, y, a, 1.0 - a]))


# (response column, response kind, probe thresholds); z is jittered, x
# is not, and c=a is a jittered dummy
_SLICE_RESPONSES = [(0, "discrete", (-1.0, 0.0, 1.0, 3.0)),
                    (1, "continuous", (-0.5, 1.0, 2.5)),
                    (3, "discrete", (0.0, 1.0))]
# covariates held: none, a jittered one, an unjittered one, and both
_SLICE_POINTS = [{}, {4: 1.0}, {2: 0.3}, {4: 0.0, 2: -0.4}, {0: 1.0}, {0: 2.0, 2: 0.3}]


def _outcome(f, *args):
    try:
        value = f(*args).value
    except NoLocalDataError as err:
        return type(err).__name__
    return value.tolist() if isinstance(value, np.ndarray) else value


def _slice_battery(model):
    """Every functional and slice value of ``model`` over the responses
    and covariate points above."""
    out = []
    for resp, kind, thresholds in _SLICE_RESPONSES:
        for point in _SLICE_POINTS:
            if resp in point:
                continue
            out.append(_outcome(cond_mean, model, FunctionalQuery("mean", resp, kind, point)))
            for t in thresholds:
                out.append(_outcome(cond_cdf, model,
                                    FunctionalQuery("cdf", resp, kind, point, threshold=t)))
            for alpha in (0.05, 0.5, 0.95):
                out.append(_outcome(cond_quantile, model,
                                    FunctionalQuery("quantile", resp, kind, point, alpha=alpha)))
            sl = response_slice(model, resp, point)
            out += [sl.density(t) for t in thresholds]
            out += [sl.first_moment(thresholds[0], t) for t in thresholds[1:]]
    for point in ({}, {2: 0.3}, {0: 1.0}, {0: 2.0, 2: 0.3}):
        q = FunctionalQuery("class_probs", 3, "discrete", point, class_columns=(3, 4))
        out.append(_outcome(classify, model, q))
    return out


class TestUnjitteredResponseOnce:
    """A KDE slice takes its kernel passes over the n values of an
    unjittered response and its weights as one n-vector when no held
    covariate is jittered, and every value stays bit-identical to the
    stacked slice it replaced (``reference_kde_response_slice``), which
    takes every pass over all R * n replicate rows."""

    # R * n = 10 000 in the last case is past numpy's 8 192-element buffer
    @pytest.mark.parametrize("n, num_jitters",
                             [(50, 1), (50, 2), (50, 3), (50, 5), (700, 1), (700, 2),
                              (700, 3), (700, 5), (2000, 5)])
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_equals_stacked_reference(self, monkeypatch, kernel_name, n, num_jitters):
        from jitterkit import regression

        model = fit_kde(_zxy_class_dataset(n, seed=n + num_jitters), NoiseSpec(0.8, 5, dims=3),
                        kernel=get_kernel(kernel_name), num_jitters=num_jitters, seed=90)
        got = _slice_battery(model)
        monkeypatch.setattr(regression, "_kde_response_slice", reference_kde_response_slice)
        monkeypatch.setattr(regression, "_covariate_weights", reference_covariate_weights)
        want = _slice_battery(model)
        assert len(got) > 150
        assert got == want

    @pytest.mark.parametrize("resp, point, jittered", [
        (1, {0: 1.0}, False), (1, {}, False), (0, {1: 0.4}, True), (0, {}, True)])
    def test_kernel_cdf_sees_one_block_unless_jittered(self, monkeypatch, resp, point, jittered):
        n, num_jitters = 300, 5
        ds = mixed_dataset(ZX_MODEL, n, seed=91)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=1), num_jitters=num_jitters, seed=92)
        sizes = []
        cdf = Kernel.cdf
        monkeypatch.setattr(Kernel, "cdf", lambda self, u: sizes.append(u.size) or cdf(self, u))
        kind = "discrete" if jittered else "continuous"
        cond_quantile(model, FunctionalQuery("quantile", resp, kind, point, alpha=0.6))
        assert len(sizes) >= 3
        assert set(sizes) == {num_jitters * n if jittered else n}

    def test_slice_holds_one_block_of_weights(self):
        # z given x at n = 2e4, R = 5: the slice reads the model's own (R, n)
        # response, and a fresh one holds only the weights, n floats, where
        # the stacked slice kept R n; the first integral over the window
        # keeps both ends' offsets and CDFs, 4 R n floats, beside them
        import tracemalloc

        n, num_jitters = 20_000, 5
        model = fit_kde(mixed_dataset(ZX_MODEL, n, seed=93), NoiseSpec(0.8, 5, dims=1),
                        num_jitters=num_jitters, seed=94)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sl = response_slice(model, 0, {1: 0.5})
            built = (tracemalloc.get_traced_memory()[0] - before) / 8
            assert sl.integral(sl.lower, sl.upper) > 0.0
            held = (tracemalloc.get_traced_memory()[0] - before) / 8
        finally:
            tracemalloc.stop()
        assert built < 2 * n
        assert 4 * num_jitters * n <= held < 4 * num_jitters * n + 2 * n


def _chunk_battery(model):
    """A few of each functional of ``model``: responses jittered or not,
    covariates held none, jittered, unjittered or both."""
    Q = FunctionalQuery
    return [_outcome(f, model, q) for f, q in (
        (cond_mean, Q("mean", 0, "discrete", {1: 0.5})),
        (cond_mean, Q("mean", 1, "continuous", {0: 1.0})),
        (cond_mean, Q("mean", 1, "continuous", {2: 0.3})),
        (cond_cdf, Q("cdf", 0, "discrete", {1: 0.5}, threshold=1)),
        (cond_cdf, Q("cdf", 1, "continuous", {0: 2.0}, threshold=1.7)),
        (cond_quantile, Q("quantile", 0, "discrete", {}, alpha=0.6)),
        (cond_quantile, Q("quantile", 1, "continuous", {0: 1.0, 2: 0.3}, alpha=0.3)),
        (classify, Q("class_probs", 3, "discrete", {1: 0.5}, class_columns=(3, 4))),
    )]


class TestModelColumns:
    """A model holds each unjittered column once and each jittered one as
    an (R, n) array; every estimate stays bit-identical to the references
    in ``conftest``, which redraw the replicates with ``jitter`` and work
    replicate by replicate or on stacked replicates, at n past one
    32 768-row chunk."""

    @pytest.mark.parametrize("num_jitters", [1, 2, 5])
    @pytest.mark.parametrize("kernel_name", ["gaussian", "epanechnikov"])
    def test_past_one_chunk_equals_references(self, monkeypatch, kernel_name, num_jitters):
        from jitterkit import regression

        n = 33_000
        ds = _zxy_class_dataset(n, seed=num_jitters)
        kernel = get_kernel(kernel_name)
        model = fit_kde(ds, NoiseSpec(0.8, 5, dims=3), kernel=kernel,
                        num_jitters=num_jitters, seed=95)
        points = [[1.0, 0.5, 0.0, 1.0, 0.0], [2.0, 2.5, -0.3, 0.0, 1.0],
                  [0.0, -0.5, 0.4, 0.0, 1.0]]
        got = [kde_eval(model, p) for p in points]
        assert_sums_match_full_walk(model, points, got,
                                    [reference_kde_eval(model, p) for p in points])
        assert min(got) > 0.0
        zx = MixedDataset(ds.schema[:2], ds.rows[:, :2])
        for response, jitter_response in ((1, False), (0, False), (0, True)):
            loclin = fit_loclin(zx, response, NoiseSpec(0.8, 5, dims=1), kernel=kernel,
                                num_jitters=num_jitters, seed=96,
                                jitter_response=jitter_response)
            points = [[0.5], [2.0]]
            assert_sums_match_full_walk(loclin, points, [loclin_eval(loclin, x0) for x0 in points],
                                        [reference_loclin_eval(loclin, x0) for x0 in points])
        got = _chunk_battery(model)
        monkeypatch.setattr(regression, "_kde_response_slice", reference_kde_response_slice)
        monkeypatch.setattr(regression, "_covariate_weights", reference_covariate_weights)
        assert got == _chunk_battery(model)
        assert all(isinstance(v, (float, list)) for v in got)


_KDE_PROPERTIES = settings(max_examples=25, deadline=None, derandomize=True, database=None)
_small_fits = st.tuples(
    st.sampled_from(["gaussian", "epanechnikov"]),
    st.integers(10, 60),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.4, 0.8]),
    st.sampled_from([1, 2, 5]),
)


def _fit(params):
    kernel_name, n, seed, theta, nu = params
    return _zx_kde(kernel_name, n, seed, spec=NoiseSpec(theta, nu, dims=1))


class TestKdeProperties:
    @_KDE_PROPERTIES
    @given(_small_fits, st.lists(st.floats(-4.0, 6.0), min_size=2, max_size=8))
    def test_continuous_cdf_bounded_and_monotone(self, params, thresholds):
        model = _fit(params)
        z = float(model.origin.rows[0, 0])
        vals = [
            cond_cdf(model, FunctionalQuery("cdf", 1, "continuous", {0: z}, threshold=t)).value
            for t in sorted(thresholds)
        ]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert np.all(np.diff(vals) >= -1e-12)

    @_KDE_PROPERTIES
    @given(_small_fits, st.floats(1e-6, 1.0))
    def test_continuous_quantile_bracket(self, params, alpha):
        model = _fit(params)
        point = {0: float(model.origin.rows[0, 0])}
        q = cond_quantile(model, FunctionalQuery("quantile", 1, "continuous", point,
                                                 alpha=alpha)).value
        assert _continuous_cdf(model, point, q) >= alpha
        assert _continuous_cdf(model, point, q - 1e-8) < alpha

    @_KDE_PROPERTIES
    @given(_small_fits, st.floats(0.02, 0.98))
    def test_discrete_quantile_cdf_coherence(self, params, alpha):
        model = _fit(params)
        x = float(model.origin.rows[0, 1])
        q = cond_quantile(model, FunctionalQuery("quantile", 0, "discrete", {1: x},
                                                 alpha=alpha)).value

        def cdf(t):
            return cond_cdf(model, FunctionalQuery("cdf", 0, "discrete", {1: x},
                                                   threshold=t)).value

        assert 0.0 <= cdf(q) <= 1.0
        assert cdf(q) >= alpha - 1e-9
        if q > model.origin.rows[:, 0].min() - 2:
            assert cdf(q - 1.0) < alpha

    @_KDE_PROPERTIES
    @given(_small_fits)
    def test_classify_sums_to_one(self, params):
        kernel_name, n, seed, theta, nu = params
        ds = _two_class_dataset(n, seed)
        model = fit_kde(ds, NoiseSpec(theta, nu, dims=2), kernel=get_kernel(kernel_name),
                        seed=seed + 1)
        x = float(ds.rows[0, 2])
        est = classify(model, FunctionalQuery("class_probs", 0, "discrete", {2: x},
                                              class_columns=(0, 1)))
        assert np.all(est.value >= 0.0)
        assert est.value.sum() == pytest.approx(1.0, abs=1e-12)
