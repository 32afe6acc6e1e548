"""Acceptance gate: the release criteria, each pinned to its tolerance.

Each test prints one machine-readable pass/fail line (run pytest with -s
to watch them stream). Runtime budgets are asserted alongside the
numerical tolerances.
"""

import contextlib
import json
import time

import numpy as np

from jitterkit import (
    AnalyticJitteredDensity,
    ColumnSchema,
    DiscretePmf,
    FunctionalQuery,
    KdeModel,
    MixedDataset,
    NoiseSpec,
    SyntheticMixedModel,
    adaptive_integral,
    cond_cdf,
    cond_mean,
    cond_quantile,
    convolve_density,
    eta_density,
    finite_difference,
    fit_kde,
    fit_loclin,
    get_kernel,
    kde_eval,
    loclin_eval,
    sample_model,
)
from jitterkit.cli import main as cli_main

BATTERY = [(t, v) for t in (0.0, 0.4, 0.8) for v in (1, 2, 5)]
BINOM = DiscretePmf.binomial(4, 0.3)
BINOM_VALUES = (0.2401, 0.4116, 0.2646, 0.0756, 0.0081)


@contextlib.contextmanager
def criterion(num, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= limit_seconds
    label = "PASS" if ok else "FAIL (runtime)"
    print(f"\nACCEPTANCE {num} ({name}): {label} [{elapsed:.2f}s, budget {limit_seconds:g}s]")
    assert ok, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s > {limit_seconds}s"


def test_criterion_1_noise_class_battery():
    with criterion(1, "noise-class battery", 1.0):
        for theta, nu in BATTERY:
            spec = NoiseSpec(theta=theta, nu=nu, dims=1)
            assert eta_density(spec, 0.0) == 1.0
            plateau = np.linspace(-spec.gamma1, spec.gamma1, 101)
            assert max(abs(eta_density(spec, x) - 1.0) for x in plateau) <= 1e-12
            outside = np.concatenate([
                np.linspace(np.nextafter(spec.gamma2, 2.0), 1.5, 101),
                -np.linspace(np.nextafter(spec.gamma2, 2.0), 1.5, 101),
            ])
            assert all(eta_density(spec, x) == 0.0 for x in outside)
            mass = adaptive_integral(
                lambda x: eta_density(spec, x), -1.0, 1.0, tol=1e-10,
                breakpoints=(-spec.gamma2, -spec.gamma1, spec.gamma1, spec.gamma2),
            )
            assert abs(mass - 1.0) <= 1e-8


def test_criterion_2_convolution_equality():
    with criterion(2, "density equality at atoms", 1.0):
        for theta, nu in BATTERY:
            spec = NoiseSpec(theta=theta, nu=nu, dims=1)
            for z, expected in zip(range(5), BINOM_VALUES):
                assert abs(convolve_density(BINOM, spec, float(z)) - expected) <= 1e-10
        spec0 = NoiseSpec(theta=0.0, nu=1, dims=1)
        for z, expected in zip(range(5), BINOM_VALUES):
            assert abs(convolve_density(BINOM, spec0, z + 0.3) - expected) <= 1e-10


def test_criterion_3_vanishing_derivatives():
    with criterion(3, "vanishing derivatives", 1.0):
        for theta in (0.4, 0.8):
            spec = NoiseSpec(theta=theta, nu=5, dims=1)
            h = spec.gamma1 / 2.0
            f = lambda s: convolve_density(BINOM, spec, s)
            for z in range(5):
                assert abs(finite_difference(f, float(z), 1, h)) < 1e-6
                assert abs(finite_difference(f, float(z), 2, h)) < 1e-6


def test_criterion_4_functional_identity_suite():
    with criterion(4, "functional identities vs oracle", 5.0):
        bern = DiscretePmf.bernoulli(0.3)
        for theta, nu in BATTERY:
            spec = NoiseSpec(theta=theta, nu=nu, dims=1)
            dens_b = AnalyticJitteredDensity.from_pmf(bern, spec)
            dens_n = AnalyticJitteredDensity.from_pmf(BINOM, spec)

            mean_q = FunctionalQuery(kind="mean", response_index=0, response_kind="discrete")
            assert abs(cond_mean(dens_b, mean_q).value - 0.3) <= 1e-8
            assert abs(cond_mean(dens_n, mean_q).value - 1.2) <= 1e-8

            cdf_q = FunctionalQuery(kind="cdf", response_index=0,
                                    response_kind="discrete", threshold=0)
            assert abs(cond_cdf(dens_b, cdf_q).value - 0.7) <= 1e-8

            med_q = FunctionalQuery(kind="quantile", response_index=0,
                                    response_kind="discrete", alpha=0.5)
            assert cond_quantile(dens_n, med_q).value == 1.0
            q90_q = FunctionalQuery(kind="quantile", response_index=0,
                                    response_kind="discrete", alpha=0.9)
            assert cond_quantile(dens_n, q90_q).value == 2.0

        # correction decomposition in the uniform-noise case: 0.35 + 0.35
        spec0 = NoiseSpec(theta=0.0, nu=1, dims=1)
        sl = AnalyticJitteredDensity.from_pmf(bern, spec0).response_slice(0, {})
        kinks = (-0.5, 0.5, 1.5)  # k +- 1/2 for k in {0, 1}: uniform noise
        denom = adaptive_integral(sl.density, sl.lower, sl.upper, tol=1e-12, breakpoints=kinks)
        partial = adaptive_integral(sl.density, sl.lower, 0.0, tol=1e-12, breakpoints=kinks)
        assert abs(partial / denom - 0.35) <= 1e-8
        assert abs(sl.density(0.0) / (2 * denom) - 0.35) <= 1e-8


def _binom_dataset(n, seed):
    rows = sample_model(SyntheticMixedModel(margin=BINOM), n, seed)
    return MixedDataset((ColumnSchema("z", "discrete_ordered"),), rows)


def test_criterion_5_statistical_consistency():
    with criterion(5, "KDE error decreases in n", 120.0):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        n_grid = (500, 2000, 8000)
        mae = []
        for n in n_grid:
            errs = []
            for s in range(20):
                ds = _binom_dataset(n, seed=100_000 * n + s)
                model = fit_kde(ds, spec, seed=17 * s + 1)
                errs.append(np.mean([
                    abs(kde_eval(model, [float(z)]) - BINOM.mass(z)) for z in BINOM.support
                ]))
            mae.append(float(np.mean(errs)))
        print(f"\n  consistency MAE by n: {dict(zip(n_grid, np.round(mae, 5)))}")
        assert mae[0] > mae[1] > mae[2], f"MAE not strictly decreasing: {mae}"
        slope = np.polyfit(np.log(n_grid), np.log(mae), 1)[0]
        print(f"  log-log slope: {slope:.3f}")
        assert slope < 0.0


def test_criterion_6_local_linear_exactness():
    with criterion(6, "local linear exactness", 5.0):
        rng = np.random.default_rng(77)
        x = rng.uniform(0.0, 1.0, 120)
        schema = (ColumnSchema("y", "continuous"), ColumnSchema("x", "continuous"))
        spec = NoiseSpec(theta=0.8, nu=5, dims=0)
        points = rng.uniform(0.05, 0.95, 10)
        for kernel_name in ("gaussian", "epanechnikov"):
            kernel = get_kernel(kernel_name)
            const = MixedDataset(schema, np.column_stack([np.full(120, 2.0), x]))
            m_const = fit_loclin(const, 0, spec, kernel=kernel, seed=1)
            for x0 in points:
                assert abs(loclin_eval(m_const, [x0]) - 2.0) <= 1e-10
            linear = MixedDataset(schema, np.column_stack([-1.0 + 3.0 * x, x]))
            m_lin = fit_loclin(linear, 0, spec, kernel=kernel, seed=1)
            for x0 in points:
                assert abs(loclin_eval(m_lin, [x0]) - (-1.0 + 3.0 * x0)) <= 1e-8


def test_criterion_7_jitter_averaging():
    with criterion(7, "jitter averaging", 60.0):
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        ds = _binom_dataset(800, seed=9)
        model5 = fit_kde(ds, spec, num_jitters=5, seed=13)
        rng = np.random.default_rng(0)
        settings = dict(kernel=model5.kernel, noise=model5.noise, seed=model5.seed,
                        bandwidths=model5.bandwidths, transform=model5.transform)
        for p in rng.uniform(-1.0, 5.0, 100):
            singles = [
                kde_eval(KdeModel.from_replicates((rep,), **settings), [p])
                for rep in model5.replicates
            ]
            assert abs(kde_eval(model5, [p]) - np.mean(singles)) <= 1e-14

        # one-sided variance comparison across 20 seeds; the factor 2.0
        # absorbs sampling noise of a variance ratio at 20 replications
        atoms = [float(z) for z in BINOM.support]
        est1 = np.empty((20, 5))
        est5 = np.empty((20, 5))
        for s in range(20):
            data = _binom_dataset(1000, seed=500 + s)
            m1 = fit_kde(data, spec, num_jitters=1, seed=900 + s)
            m5 = fit_kde(data, spec, num_jitters=5, seed=900 + s)
            est1[s] = [kde_eval(m1, [a]) for a in atoms]
            est5[s] = [kde_eval(m5, [a]) for a in atoms]
        var1 = est1.var(axis=0, ddof=1).sum()
        var5 = est5.var(axis=0, ddof=1).sum()
        print(f"\n  pooled atom variance: J=1 {var1:.3e}, J=5 {var5:.3e}")
        assert var5 <= 2.0 * var1


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI determinism", 60.0):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"margin": {"family": "binomial", "n": 4, "p": 0.3}}))
        data = tmp_path / "data.csv"
        assert cli_main(["simulate", "--model-config", str(cfg), "--count", "200",
                         "--seed", "3", "--output", str(data)]) == 0

        outputs = {}
        for tag in ("first", "second"):
            jit = tmp_path / f"jit_{tag}.csv"
            model = tmp_path / f"model_{tag}.bin"
            ev = tmp_path / f"eval_{tag}.csv"
            assert cli_main(["jitter", "--input", str(data), "--output", str(jit),
                             "--discrete", "z", "--seed", "11"]) == 0
            assert cli_main(["fit", "--input", str(data), "--output", str(model),
                             "--discrete", "z", "--seed", "11", "--jitters", "3"]) == 0
            assert cli_main(["eval", "--model", str(model), "--functional", "quantile",
                             "--response", "z", "--alpha", "0.5",
                             "--output", str(ev)]) == 0
            outputs[tag] = (jit.read_bytes(), model.read_bytes(), ev.read_bytes())
        assert outputs["first"] == outputs["second"]
