"""Analytic oracle: convolution, quadrature, finite differences, functionals."""

import math

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from jitterkit import (
    DiscretePmf,
    GaussianConditional,
    InvalidParameterError,
    NoiseSpec,
    NumericalError,
    SyntheticMixedModel,
    UndefinedConditionalError,
    adaptive_integral,
    convolve_density,
    eta_density,
    finite_difference,
    model_from_config,
    sample_model,
    true_conditional,
)

BINOM_PMF = scipy.stats.binom.pmf(np.arange(5), 4, 0.3)  # independent reference


class TestDiscretePmf:
    def test_binomial_matches_scipy(self):
        pmf = DiscretePmf.binomial(4, 0.3)
        assert_allclose(pmf.probabilities, BINOM_PMF, atol=1e-14)
        assert_allclose(pmf.probabilities, [0.2401, 0.4116, 0.2646, 0.0756, 0.0081],
                        atol=1e-12)

    def test_bernoulli(self):
        pmf = DiscretePmf.bernoulli(0.3)
        assert pmf.probabilities == (0.7, 0.3)

    def test_poisson_truncated_normalizes(self):
        pmf = DiscretePmf.poisson_truncated(1.5, 6)
        assert sum(pmf.probabilities) == pytest.approx(1.0, abs=1e-14)
        ref = scipy.stats.poisson.pmf(np.arange(7), 1.5)
        assert_allclose(pmf.probabilities, ref / ref.sum(), atol=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DiscretePmf(0, (0.5, 0.4))  # does not sum to 1
        with pytest.raises(InvalidParameterError):
            DiscretePmf(0, (1.2, -0.2))
        with pytest.raises(InvalidParameterError):
            DiscretePmf(0, ())

    def test_mass_outside_support(self):
        pmf = DiscretePmf.binomial(4, 0.3)
        assert pmf.mass(-1) == 0.0
        assert pmf.mass(5) == 0.0


class TestConvolveDensity:
    def test_atom_value(self, binom43):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        assert convolve_density(binom43, spec, 2.0) == pytest.approx(0.2646, abs=1e-12)

    def test_theta_zero_step(self, binom43):
        spec = NoiseSpec(theta=0.0, nu=1, dims=1)
        assert convolve_density(binom43, spec, 2.3) == pytest.approx(0.2646, abs=1e-12)

    def test_nan_rejected(self, binom43, battery_spec):
        with pytest.raises(InvalidParameterError):
            convolve_density(binom43, battery_spec, math.nan)

    def test_far_outside_support(self, binom43, battery_spec):
        z = binom43.support_min - 2
        assert convolve_density(binom43, battery_spec, float(z)) == 0.0

    def test_equality_at_atoms(self, binom43, battery_spec):
        """Jittered density equals the pmf at every integer support point."""
        for z in binom43.support:
            assert convolve_density(binom43, battery_spec, float(z)) == pytest.approx(
                binom43.mass(z), abs=1e-12
            )

    def test_mass_conserved(self, binom43, battery_spec):
        g1, g2 = battery_spec.gamma1, battery_spec.gamma2
        breaks = [k + d for k in range(-1, 6) for d in (-g2, -g1, g1, g2)]
        mass = adaptive_integral(
            lambda z: convolve_density(binom43, battery_spec, z),
            -1.0, 5.0, tol=1e-10, breakpoints=breaks,
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_brute_force_sum(self, binom43):
        """Independent oracle: direct sum over all integers in a wide window."""
        spec = NoiseSpec(theta=0.4, nu=2, dims=1)
        for z in (-0.7, 0.2, 1.5, 2.0, 3.3, 4.9):
            brute = sum(
                binom43.mass(k) * eta_density(spec, z - k) for k in range(-10, 15)
            )
            assert convolve_density(binom43, spec, z) == pytest.approx(brute, abs=1e-15)


class TestAdaptiveIntegral:
    def test_constant(self):
        assert adaptive_integral(lambda x: 1.0, 0.0, 1.0, tol=1e-12) == pytest.approx(1.0)

    def test_eta_mass(self):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        mass = adaptive_integral(
            lambda x: eta_density(spec, x), -1.0, 1.0, tol=1e-10,
            breakpoints=(-spec.gamma2, -spec.gamma1, spec.gamma1, spec.gamma2),
        )
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_integral(lambda x: x, 2.0, 2.0) == 0.0

    def test_bounds_out_of_order(self):
        with pytest.raises(InvalidParameterError):
            adaptive_integral(lambda x: x, 1.0, 0.0)

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(NumericalError) as err:
            adaptive_integral(
                lambda x: np.sin(1.0 / x), 1e-8, 1.0, tol=1e-13, max_subdivisions=12
            )
        assert err.value.best_estimate is not None
        assert np.isfinite(err.value.best_estimate)


class TestFiniteDifference:
    def test_first_order_on_square(self):
        assert finite_difference(lambda x: x * x, 1.0, 1, 1e-4) == pytest.approx(2.0, abs=1e-6)

    def test_second_order_on_square(self):
        assert finite_difference(lambda x: x * x, 0.0, 2, 1e-3) == pytest.approx(2.0, abs=1e-4)

    def test_invalid_order_and_step(self):
        with pytest.raises(InvalidParameterError):
            finite_difference(lambda x: x, 0.0, 3, 0.1)
        with pytest.raises(InvalidParameterError):
            finite_difference(lambda x: x, 0.0, 1, 0.0)

    def test_convolved_density_flat_at_atoms(self, binom43):
        """The plateau forces the jittered density to be locally constant
        around integers, so both difference orders vanish."""
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        h = spec.gamma1 / 2.0
        f = lambda z: convolve_density(binom43, spec, z)
        for z in binom43.support:
            assert abs(finite_difference(f, float(z), 1, h)) < 1e-6
            assert abs(finite_difference(f, float(z), 2, h)) < 1e-6


class TestTrueConditional:
    def test_marginal_mean(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        assert true_conditional(model, "mean") == pytest.approx(1.2, abs=1e-14)

    def test_marginal_median(self, binom43):
        # cumulative pmf 0.2401, 0.6517 crosses 0.5 at z = 1
        model = SyntheticMixedModel(margin=binom43)
        assert true_conditional(model, "quantile", alpha=0.5) == 1

    def test_marginal_q90(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        assert true_conditional(model, "quantile", alpha=0.9) == 2

    def test_bernoulli_cdf(self):
        model = SyntheticMixedModel(margin=DiscretePmf.bernoulli(0.3))
        assert true_conditional(model, "cdf", at=0) == pytest.approx(0.7, abs=1e-14)

    def test_quantile_cdf_coherence(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        for alpha in np.linspace(0.0, 1.0, 21):
            q = true_conditional(model, "quantile", alpha=alpha)
            assert true_conditional(model, "cdf", at=q) >= alpha - 1e-12
            # infimum: one integer lower no longer reaches alpha
            if alpha > 0 and q > binom43.support_min:
                assert true_conditional(model, "cdf", at=q - 1) < alpha

    def test_given_z(self, binom43):
        cont = GaussianConditional(mean_intercept=1.0, mean_slope=2.0, scale_intercept=0.5)
        model = SyntheticMixedModel(margin=binom43, continuous=cont)
        assert true_conditional(model, "mean", given_z=3) == pytest.approx(7.0)
        assert true_conditional(model, "cdf", at=7.0, given_z=3) == pytest.approx(0.5)
        q = true_conditional(model, "quantile", alpha=0.975, given_z=3)
        assert q == pytest.approx(scipy.stats.norm.ppf(0.975, loc=7.0, scale=0.5))

    def test_given_z_zero_probability(self, binom43):
        cont = GaussianConditional()
        model = SyntheticMixedModel(margin=binom43, continuous=cont)
        with pytest.raises(UndefinedConditionalError):
            true_conditional(model, "mean", given_z=9)

    def test_given_x_interval(self):
        """Bayes oracle: reweight the margin by the interval mass of each
        conditional and compare with direct computation."""
        pmf = DiscretePmf.bernoulli(0.4)
        cont = GaussianConditional(mean_intercept=0.0, mean_slope=1.0, scale_intercept=1.0)
        model = SyntheticMixedModel(margin=pmf, continuous=cont)
        a, b = 0.5, 1.5
        w0 = 0.6 * (scipy.stats.norm.cdf(b) - scipy.stats.norm.cdf(a))
        w1 = 0.4 * (scipy.stats.norm.cdf(b - 1) - scipy.stats.norm.cdf(a - 1))
        expected = w1 / (w0 + w1)
        assert true_conditional(model, "mean", given_x=(a, b)) == pytest.approx(expected, abs=1e-12)


class TestSampleModel:
    def test_frequencies(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        n = 20_000
        rows = sample_model(model, n, seed=5)
        for z, p in zip(binom43.support, binom43.probabilities):
            freq = (rows[:, 0] == z).mean()
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_determinism(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        assert np.array_equal(sample_model(model, 100, 3), sample_model(model, 100, 3))

    def test_zero_count(self, binom43):
        model = SyntheticMixedModel(margin=binom43)
        assert sample_model(model, 0, 1).shape == (0, 1)

    def test_mixed_has_two_columns(self, binom43):
        model = SyntheticMixedModel(margin=binom43, continuous=GaussianConditional())
        assert sample_model(model, 10, 1).shape == (10, 2)


class TestGaussianConditional:
    def test_each_conditional_integrates_to_one(self, binom43):
        cont = GaussianConditional(mean_intercept=0.5, mean_slope=1.5, scale_intercept=0.4,
                                   scale_slope=0.1)
        model = SyntheticMixedModel(margin=binom43, continuous=cont)
        for z in model.margin.support:
            lo = cont.quantile(1e-12, float(z))
            hi = cont.quantile(1 - 1e-12, float(z))
            mass = adaptive_integral(lambda x: cont.density(x, float(z)), lo, hi, tol=1e-10)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_nonpositive_scale_rejected(self, binom43):
        with pytest.raises(InvalidParameterError):
            SyntheticMixedModel(
                margin=binom43,
                continuous=GaussianConditional(scale_intercept=0.5, scale_slope=-0.2),
            )

    @pytest.mark.parametrize("cont, z", [
        (GaussianConditional(scale_intercept=-1.0), 0.0),
        (GaussianConditional(scale_intercept=0.0), 0.0),
        (GaussianConditional(scale_intercept=0.5, scale_slope=-0.2), 3.0),
        (GaussianConditional(scale_intercept=math.nan), 0.0),
    ])
    def test_nonpositive_scale_raises_on_use(self, cont, z):
        with pytest.raises(InvalidParameterError):
            cont.density(0.3, z)
        with pytest.raises(InvalidParameterError):
            cont.cdf(0.3, z)
        with pytest.raises(InvalidParameterError):
            cont.quantile(0.3, z)

    def test_matches_scipy_stats_norm(self):
        """pdf within 1e-15 relative, cdf and ppf bit-identical to
        ``scipy.stats.norm`` on a seeded battery of 20 000 points."""
        rng = np.random.default_rng(20_000)
        n = 20_000
        params = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-2, 2, n),
                                  rng.uniform(0.05, 3, n)])
        z = rng.integers(0, 5, n).astype(float)
        x = rng.normal(0.0, 4.0, n)
        alpha = np.concatenate([rng.uniform(0, 1, n - 4), [0.0, 1e-13, 1 - 1e-13, 1.0]])
        loc, scale = params[:, 0] + params[:, 1] * z, params[:, 2]
        ref_pdf = scipy.stats.norm.pdf(x, loc=loc, scale=scale)
        ref_cdf = scipy.stats.norm.cdf(x, loc=loc, scale=scale)
        ref_ppf = scipy.stats.norm.ppf(alpha, loc=loc, scale=scale)
        conts = [GaussianConditional(a, b, s) for a, b, s in params.tolist()]
        pdf = np.array([c.density(xi, zi) for c, xi, zi in zip(conts, x.tolist(), z.tolist())])
        cdf = np.array([c.cdf(xi, zi) for c, xi, zi in zip(conts, x.tolist(), z.tolist())])
        ppf = np.array([c.quantile(a, zi) for c, a, zi in zip(conts, alpha.tolist(), z.tolist())])
        assert np.all(np.abs(pdf - ref_pdf) <= 1e-15 * ref_pdf)
        assert np.array_equal(cdf, ref_cdf)
        assert np.array_equal(ppf, ref_ppf)


class TestModelFromConfig:
    def test_binomial_with_gaussian(self):
        model = model_from_config(
            {
                "margin": {"family": "binomial", "n": 4, "p": 0.3},
                "continuous": {"family": "gaussian", "mean": [0.0, 1.0], "scale": [0.5]},
            }
        )
        assert_allclose(model.margin.probabilities, BINOM_PMF, atol=1e-14)
        assert model.continuous.mean(2.0) == 2.0
        assert model.continuous.scale(2.0) == 0.5

    def test_pure_discrete(self):
        model = model_from_config({"margin": {"family": "bernoulli", "p": 0.2}})
        assert model.continuous is None

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            model_from_config({"margin": {"family": "geometric", "p": 0.5}})

    def test_missing_margin(self):
        with pytest.raises(InvalidParameterError):
            model_from_config({})

    @pytest.mark.parametrize("config, named", [
        ({"margin": {"family": "binomial", "p": 0.3}}, "'n'"),
        ({"margin": {"family": "binomial", "n": 4, "p": "x"}}, "'p'"),
        ({"margin": {"family": "binomial", "n": 4.7, "p": 0.3}}, "'n'"),
        ({"margin": {"family": "binomial", "n": True, "p": 0.3}}, "'n'"),
        ({"margin": {"family": "bernoulli", "p": 10**400}}, "'p'"),
        ({"margin": {"family": "poisson_truncated", "lam": 1.5}}, "'max_k'"),
        ({"margin": {"family": "poisson_truncated", "lam": 1.5, "max_k": 6.5}}, "'max_k'"),
        ({"margin": "binomial"}, "'margin'"),
        ({"margin": {"family": "bernoulli", "p": 0.2}, "continuous": {"mean": ["a"]}},
         "'mean'"),
        ({"margin": {"family": "bernoulli", "p": 0.2}, "continuous": {"scale": 0.5}},
         "'scale'"),
        ({"margin": {"family": "bernoulli", "p": 0.2}, "continuous": {"mean": []}},
         "'mean'"),
        ({"margin": {"family": "bernoulli", "p": 0.2}, "continuous": [0.0]}, "'continuous'"),
    ], ids=["missing_n", "word_p", "fraction_n", "bool_n", "huge_p", "missing_max_k",
            "fraction_max_k", "word_margin", "word_mean", "bare_scale", "empty_mean",
            "list_continuous"])
    def test_missing_or_mistyped_field(self, config, named):
        with pytest.raises(InvalidParameterError, match=named):
            model_from_config(config)

    def test_whole_float_counts(self):
        model = model_from_config({"margin": {"family": "binomial", "n": 4.0, "p": 0.3},
                                   "continuous": {"mean": [1.0], "scale": [0.5, 0.1]}})
        assert_allclose(model.margin.probabilities, BINOM_PMF, atol=1e-14)
        assert model.continuous.mean(2.0) == 1.0
        assert model.continuous.scale(2.0) == pytest.approx(0.7)
