"""Noise family: beta CDF, density shape, sampling, membership checks."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from jitterkit import (
    InvalidParameterError,
    NoiseSpec,
    beta_cdf,
    eta_density,
    sample_noise,
    verify_membership,
)

from conftest import BATTERY


class TestNoiseSpec:
    def test_gamma_bounds(self, battery_spec):
        g1, g2 = battery_spec.gamma1, battery_spec.gamma2
        assert 0.0 < g1 <= 0.5 <= g2 < 1.0
        assert_allclose(g1 + g2, 1.0, atol=1e-15)

    @pytest.mark.parametrize("theta", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_theta(self, theta):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(theta=theta, nu=1, dims=1)

    @pytest.mark.parametrize("nu", [0, -1])
    def test_invalid_nu(self, nu):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(theta=0.5, nu=nu, dims=1)

    def test_zero_dims_allowed(self):
        # purely continuous data has nothing to jitter
        assert NoiseSpec(theta=0.5, nu=2, dims=0).dims == 0

    def test_negative_dims_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseSpec(theta=0.5, nu=2, dims=-1)


class TestBetaCdf:
    def test_nu_one_is_uniform(self):
        assert beta_cdf(1, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_symmetry_point(self):
        assert beta_cdf(5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_nu_two_closed_form(self):
        # I_x(2, 2) integrates 6 t (1 - t): 3 x^2 - 2 x^3
        x = 0.25
        assert beta_cdf(2, x) == pytest.approx(3 * x**2 - 2 * x**3, abs=1e-14)
        assert beta_cdf(2, x) == pytest.approx(0.15625, abs=1e-12)

    def test_clamping(self):
        assert beta_cdf(3, -0.5) == 0.0
        assert beta_cdf(3, 0.0) == 0.0
        assert beta_cdf(3, 1.0) == 1.0
        assert beta_cdf(3, 1.7) == 1.0

    def test_invalid_nu(self):
        with pytest.raises(InvalidParameterError):
            beta_cdf(0, 0.5)

    def test_nan_rejected_inf_clamped(self):
        with pytest.raises(InvalidParameterError):
            beta_cdf(5, math.nan)
        assert beta_cdf(5, math.inf) == 1.0
        assert beta_cdf(5, -math.inf) == 0.0

    @pytest.mark.parametrize("nu", [1, 2, 3, 5, 8])
    def test_against_scipy(self, nu):
        xs = np.linspace(1e-9, 1 - 1e-9, 801)
        ours = np.array([beta_cdf(nu, x) for x in xs])
        ref = scipy.special.betainc(nu, nu, xs)
        assert_allclose(ours, ref, atol=1e-13)

    @pytest.mark.parametrize("nu", [1, 2, 4, 6, 20, 40])
    def test_against_binomial_sum(self, nu):
        """Independent oracle: for integer shapes, I_x(nu, nu) equals the
        upper binomial tail P(Binomial(2 nu - 1, x) >= nu)."""
        for x in np.linspace(0.01, 0.99, 49):
            m = 2 * nu - 1
            tail = sum(
                math.comb(m, j) * x**j * (1 - x) ** (m - j) for j in range(nu, m + 1)
            )
            assert beta_cdf(nu, x) == pytest.approx(tail, abs=1e-12)

    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_monotone_and_reflection(self, nu):
        xs = np.linspace(0.0, 1.0, 501)
        vals = np.array([beta_cdf(nu, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-15)
        refl = np.array([beta_cdf(nu, 1.0 - x) for x in xs])
        assert_allclose(vals + refl, 1.0, atol=1e-12)


class TestEtaDensity:
    def test_uniform_interior(self):
        spec = NoiseSpec(theta=0.0, nu=1, dims=1)
        assert eta_density(spec, 0.49) == 1.0
        assert eta_density(spec, -0.49) == 1.0
        assert eta_density(spec, 0.51) == 0.0

    def test_plateau_value(self):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        assert eta_density(spec, 0.0) == 1.0
        assert eta_density(spec, 0.05) == 1.0

    def test_shoulder_value(self):
        # F_B5(1.75) clamps to 1, F_B5(0.5) = 0.5 by symmetry
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        assert eta_density(spec, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_bitwise_and_bounds(self, battery_spec):
        xs = np.random.default_rng(0).uniform(-1.2, 1.2, 400)
        for x in xs:
            v = eta_density(battery_spec, x)
            assert v == eta_density(battery_spec, -x)
            assert 0.0 <= v <= 1.0

    def test_plateau_and_support_exact(self, battery_spec):
        # the plateau is closed; the support condition binds strictly outside
        # [-gamma2, gamma2] (for theta = 0 the two boundaries coincide)
        g1, g2 = battery_spec.gamma1, battery_spec.gamma2
        for x in np.linspace(-g1, g1, 101):
            assert eta_density(battery_spec, x) == 1.0
        for x in np.linspace(np.nextafter(g2, 2.0), 1.5, 57):
            assert eta_density(battery_spec, x) == 0.0
            assert eta_density(battery_spec, -x) == 0.0

    def test_non_finite_input(self, battery_spec):
        with pytest.raises(InvalidParameterError):
            eta_density(battery_spec, math.nan)
        assert eta_density(battery_spec, math.inf) == 0.0
        assert eta_density(battery_spec, -math.inf) == 0.0

    def test_against_convolution_oracle(self):
        """Independent oracle: eta is the density of U + theta (B - 0.5),
        i.e. the B-average of a shifted uniform indicator (quadrature)."""
        spec = NoiseSpec(theta=0.6, nu=3, dims=1)
        for x in (0.1, 0.25, 0.4, 0.55, 0.7, 0.75):
            assert eta_density(spec, x) == pytest.approx(_convolution_oracle(spec, x), abs=1e-9)

    @pytest.mark.parametrize("theta,nu", [tv for tv in BATTERY if tv[0] > 0.0],
                             ids=str)
    def test_against_convolution_oracle_battery(self, theta, nu):
        spec = NoiseSpec(theta=theta, nu=nu, dims=1)
        shoulder = np.linspace(spec.gamma1, spec.gamma2, 9)[1:-1]
        for x in (0.1, 0.25, 0.4, 0.55, 0.7, 0.75, *shoulder):
            assert eta_density(spec, x) == pytest.approx(_convolution_oracle(spec, x), abs=1e-9)


def _convolution_oracle(spec, x):
    """eta at ``x`` as the Beta(nu, nu) average of the uniform density of
    U + theta (B - 0.5) given B, by quadrature over B."""
    val, _ = scipy.integrate.quad(
        lambda b: scipy.stats.beta.pdf(b, spec.nu, spec.nu)
        * (abs(x - spec.theta * (b - 0.5)) < 0.5),
        0.0,
        1.0,
        limit=200,
        points=[(x - 0.5) / spec.theta + 0.5, (x + 0.5) / spec.theta + 0.5],
    )
    return val


class TestSampleNoise:
    def test_uniform_moments(self):
        spec = NoiseSpec(theta=0.0, nu=1, dims=2)
        draws = sample_noise(spec, seed=123, count=10_000)
        assert draws.shape == (10_000, 2)
        se = math.sqrt(1.0 / 12.0) / math.sqrt(10_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se)

    def test_support_strict(self, battery_spec):
        draws = sample_noise(battery_spec, seed=7, count=100_000)
        g2 = battery_spec.gamma2
        assert draws.min() > -g2
        assert draws.max() < g2

    def test_variance_decomposition(self):
        # Var = Var(U) + theta^2 Var(B_nu), Var(Beta(nu, nu)) = 1 / (4 (2 nu + 1))
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        draws = sample_noise(spec, seed=42, count=200_000)
        expected = 1.0 / 12.0 + 0.64 / 44.0
        assert draws.var() == pytest.approx(expected, rel=0.02)

    def test_determinism(self, battery_spec):
        a = sample_noise(battery_spec, seed=99, count=500, replicate_index=3)
        b = sample_noise(battery_spec, seed=99, count=500, replicate_index=3)
        assert_array_equal(a, b)

    def test_replicate_streams_differ(self):
        spec = NoiseSpec(theta=0.4, nu=2, dims=1)
        a = sample_noise(spec, seed=99, count=500, replicate_index=0)
        b = sample_noise(spec, seed=99, count=500, replicate_index=1)
        assert not np.array_equal(a, b)

    def test_count_zero(self):
        spec = NoiseSpec(theta=0.4, nu=2, dims=3)
        assert sample_noise(spec, seed=1, count=0).shape == (0, 3)

    def test_negative_seed_rejected(self):
        spec = NoiseSpec(theta=0.4, nu=2, dims=1)
        with pytest.raises(InvalidParameterError):
            sample_noise(spec, seed=-1, count=10)
        with pytest.raises(InvalidParameterError):
            sample_noise(spec, seed=1, count=10, replicate_index=-2)

    def test_coordinates_within_row_independentish(self):
        # crude: sample correlation across coordinates is near zero
        spec = NoiseSpec(theta=0.8, nu=5, dims=2)
        draws = sample_noise(spec, seed=5, count=50_000)
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.02


class TestVerifyMembership:
    def test_battery_passes(self, battery_spec):
        report = verify_membership(battery_spec, grid_points=401, tol=1e-8)
        assert report.value_at_zero == 1.0
        assert report.plateau_ok
        assert report.support_ok
        assert report.mass == pytest.approx(1.0, abs=1e-8)
        assert report.passed

    def test_corrupted_density_flagged(self):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        report = verify_membership(
            spec, grid_points=201, tol=1e-8, density=lambda x: 0.9 * eta_density(spec, x)
        )
        assert report.value_at_zero == pytest.approx(0.9, abs=1e-15)
        assert not report.plateau_ok
        assert not report.passed

    def test_grid_too_small(self):
        with pytest.raises(InvalidParameterError):
            verify_membership(NoiseSpec(theta=0.0, nu=1, dims=1), grid_points=2)

    def test_report_text_fields(self):
        report = verify_membership(NoiseSpec(theta=0.4, nu=2, dims=1))
        text = report.to_text()
        for key in ("value_at_zero", "plateau_ok", "support_ok", "mass",
                    "max_abs_plateau_deviation"):
            assert key in text


def test_battery_is_the_full_grid():
    assert len(BATTERY) == 9
