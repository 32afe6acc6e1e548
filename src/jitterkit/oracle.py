"""Analytic ground truth for synthetic mixed models.

This module provides the exact quantities the estimators are judged
against: finite-support probability mass functions, the exact density of
a jittered discrete variable (an exact finite sum over the support),
closed-form conditional functionals of small synthetic models, and
finite-difference probes for derivative checks.

:class:`AnalyticJitteredDensity` exposes the exact jittered joint density
through the same slicing interface fitted KDE models use, so the
regression layer can be run against ground truth instead of an estimate.
Its slices bring their own integrals, by adaptive quadrature
(:mod:`jitterkit.quadrature`): this module owns the only quadrature behind
a conditional functional, so the first one evaluated on an oracle slice
loads ``scipy.integrate``. :class:`GaussianConditional` needs only
``math`` for its density and ``scipy.special`` for its CDF and quantile,
which load on first use too.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import (
    InvalidParameterError,
    SchemaError,
    UndefinedConditionalError,
)
from .noise import NoiseSpec, eta_density
from .quadrature import adaptive_integral
from .regression import ResponseSlice

_PMF_SUM_TOL = 1e-12
_INTEGRAL_TOL = 1e-10
_TAIL_QUANTILE = 1e-13
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class DiscretePmf:
    """Probability mass function on a finite range of consecutive integers."""

    support_min: int
    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if not probs:
            raise InvalidParameterError("pmf needs at least one support point")
        if any(p < 0 for p in probs):
            raise InvalidParameterError("pmf probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > _PMF_SUM_TOL:
            raise InvalidParameterError(f"pmf probabilities sum to {sum(probs)}, not 1")
        object.__setattr__(self, "support_min", int(self.support_min))
        object.__setattr__(self, "probabilities", probs)

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.support_min, self.support_min + len(self.probabilities))

    @property
    def support_max(self) -> int:
        return self.support_min + len(self.probabilities) - 1

    def mass(self, z: int) -> float:
        k = int(z) - self.support_min
        if z != int(z) or not 0 <= k < len(self.probabilities):
            return 0.0
        return self.probabilities[k]

    def mean(self) -> float:
        return float(np.dot(self.support, self.probabilities))

    def cdf(self, t: float) -> float:
        return float(sum(p for z, p in zip(self.support, self.probabilities) if z <= t))

    def quantile(self, alpha: float) -> int:
        """Smallest support point whose CDF reaches ``alpha``."""
        if not 0.0 <= alpha <= 1.0:
            raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
        acc = 0.0
        for z, p in zip(self.support, self.probabilities):
            acc += p
            if acc >= alpha:
                return int(z)
        return int(self.support_max)

    @classmethod
    def binomial(cls, n: int, p: float) -> "DiscretePmf":
        if n < 1 or not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"invalid binomial parameters n={n}, p={p}")
        try:
            probs = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
        except OverflowError:
            raise InvalidParameterError(
                f"binomial n={n} is too large: a binomial coefficient exceeds the float range"
            ) from None
        return cls(support_min=0, probabilities=tuple(probs))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscretePmf":
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"invalid bernoulli parameter p={p}")
        return cls(support_min=0, probabilities=(1.0 - p, p))

    @classmethod
    def poisson_truncated(cls, lam: float, max_k: int) -> "DiscretePmf":
        """Poisson(lam) restricted to {0, ..., max_k} and renormalized."""
        if not 0 < lam < math.inf or max_k < 1:
            raise InvalidParameterError(f"invalid truncated poisson lam={lam}, max_k={max_k}")
        try:
            raw = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(max_k + 1)]
        except OverflowError:
            raise InvalidParameterError(
                f"truncated poisson lam={lam}, max_k={max_k}: a term exceeds the float range"
            ) from None
        total = sum(raw)
        if not total > 0.0:
            raise InvalidParameterError(
                f"truncated poisson lam={lam}, max_k={max_k}: every term underflows to 0"
            )
        return cls(support_min=0, probabilities=tuple(r / total for r in raw))


def _eta_mixture(spec: NoiseSpec, weights, s: float) -> float:
    """``sum_k w_k * eta(s - k)`` over the ``(k, w_k)`` pairs in ``weights``.

    Terms with zero weight or with ``|s - k|`` outside the noise support
    contribute exactly zero and are skipped.
    """
    total = 0.0
    for k, w in weights:
        if w == 0.0 or abs(s - k) >= spec.gamma2:
            continue
        total += w * eta_density(spec, s - k)
    return total


def convolve_density(pmf: DiscretePmf, spec: NoiseSpec, z: float) -> float:
    """Exact density of the jittered variable: ``sum_k pmf(k) * eta(z - k)``.

    The sum runs over the pmf's finite support; terms with ``|z - k|``
    outside the noise support contribute exactly zero, so the value is
    exact up to floating error. At integer ``z`` it reproduces the pmf.
    """
    support = range(pmf.support_min, pmf.support_max + 1)  # ints: numpy scalars are slow here
    return _eta_mixture(spec, zip(support, pmf.probabilities), float(z))


def _quadrature_slice(
    density: Callable[[float], float], lower: float, upper: float,
    response_min: float, response_max: float, breakpoints: tuple[float, ...] = (),
) -> ResponseSlice:
    """Response slice whose ``integral`` and ``first_moment`` integrate
    ``density`` by adaptive quadrature, split at the kinks in ``breakpoints``."""
    return ResponseSlice(
        density=density,
        lower=lower,
        upper=upper,
        integral=lambda a, b: adaptive_integral(
            density, a, b, tol=_INTEGRAL_TOL, breakpoints=breakpoints),
        first_moment=lambda a, b: adaptive_integral(
            lambda s: s * density(s), a, b, tol=_INTEGRAL_TOL, breakpoints=breakpoints),
        response_min=response_min,
        response_max=response_max,
    )


def finite_difference(f: Callable[[float], float], x: float, order: int, h: float) -> float:
    """Central finite difference of ``f`` at ``x``; a verification probe only."""
    if h <= 0:
        raise InvalidParameterError(f"step h must be positive, got {h}")
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise InvalidParameterError(f"order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class GaussianConditional:
    """Gaussian response whose mean and scale are affine in the discrete value.

    mean(z) = mean_intercept + mean_slope * z,
    scale(z) = scale_intercept + scale_slope * z.
    """

    mean_intercept: float = 0.0
    mean_slope: float = 0.0
    scale_intercept: float = 1.0
    scale_slope: float = 0.0

    def mean(self, z: float) -> float:
        return self.mean_intercept + self.mean_slope * z

    def scale(self, z: float) -> float:
        return self.scale_intercept + self.scale_slope * z

    def _positive_scale(self, z: float) -> float:
        s = self.scale(z)
        if not s > 0.0:
            raise InvalidParameterError(f"conditional scale must be positive, got {s} at z={z}")
        return s

    def density(self, x: float, z: float) -> float:
        s = self._positive_scale(z)
        u = (x - self.mean(z)) / s
        return math.exp(-u * u / 2.0) / _SQRT_2PI / s

    def cdf(self, x: float, z: float) -> float:
        s = self._positive_scale(z)
        return float(_scipy.ndtr((x - self.mean(z)) / s))

    def quantile(self, alpha: float, z: float) -> float:
        s = self._positive_scale(z)
        return float(self.mean(z) + s * _scipy.ndtri(alpha))

    def sample(self, rng: np.random.Generator, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return self.mean_intercept + self.mean_slope * z + (
            self.scale_intercept + self.scale_slope * z
        ) * rng.standard_normal(z.shape)


@dataclass(frozen=True)
class SyntheticMixedModel:
    """A discrete margin with an optional one-dimensional continuous part.

    The joint density factorizes as ``pmf(z) * density(x | z)``; with
    ``continuous=None`` the model is purely discrete.
    """

    margin: DiscretePmf
    continuous: GaussianConditional | None = None

    def __post_init__(self):
        if self.continuous is not None:
            for z in self.margin.support:
                self.continuous._positive_scale(float(z))

    @property
    def column_names(self) -> tuple[str, ...]:
        return ("z",) if self.continuous is None else ("z", "x")


_MARGIN_FAMILIES = ("binomial", "bernoulli", "poisson_truncated")


def _number(value, key: str, whole: bool = False):
    """A model config's numeric field: a JSON number, a whole one if ``whole``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or (
        whole and isinstance(value, float) and not value.is_integer()
    ):
        kind = "a whole number" if whole else "a number"
        raise InvalidParameterError(f"model config field {key!r} must be {kind}, got {value!r}")
    try:
        return int(value) if whole else float(value)
    except OverflowError:
        raise InvalidParameterError(f"model config field {key!r} is too large") from None


def _field(section: Mapping, key: str, whole: bool = False):
    if key not in section:
        raise InvalidParameterError(f"model config needs field {key!r}")
    return _number(section[key], key, whole)


def _affine(section: Mapping, key: str, default: tuple[float, float]) -> tuple[float, float]:
    """An (intercept, slope) field given as one or two numbers; slope defaults to 0."""
    items = section.get(key, default)
    if not isinstance(items, (list, tuple)) or len(items) not in (1, 2):
        raise InvalidParameterError(
            f"model config field {key!r} must be one or two numbers, got {items!r}"
        )
    return _number(items[0], key), _number(items[1] if len(items) > 1 else 0.0, key)


def model_from_config(config: Mapping) -> SyntheticMixedModel:
    """Build a synthetic model from a declarative config mapping.

    Expected shape::

        {"margin": {"family": "binomial", "n": 4, "p": 0.3},
         "continuous": {"family": "gaussian", "mean": [0.0, 1.0], "scale": [1.0, 0.0]}}

    ``margin.family`` is one of binomial / bernoulli / poisson_truncated;
    ``continuous`` is optional, gaussian only, with ``mean`` and ``scale``
    giving (intercept, slope) in the discrete value. A missing or mistyped
    field raises :class:`InvalidParameterError`.
    """
    margin_cfg = config.get("margin") if isinstance(config, Mapping) else None
    if not isinstance(margin_cfg, Mapping):
        raise InvalidParameterError("model config needs a 'margin' section")
    family = margin_cfg.get("family")
    if family == "binomial":
        margin = DiscretePmf.binomial(_field(margin_cfg, "n", whole=True), _field(margin_cfg, "p"))
    elif family == "bernoulli":
        margin = DiscretePmf.bernoulli(_field(margin_cfg, "p"))
    elif family == "poisson_truncated":
        margin = DiscretePmf.poisson_truncated(
            _field(margin_cfg, "lam"), _field(margin_cfg, "max_k", whole=True)
        )
    else:
        raise InvalidParameterError(
            f"unknown margin family {family!r}; choose from {_MARGIN_FAMILIES}"
        )
    cont_cfg = config.get("continuous")
    continuous = None
    if cont_cfg is not None:
        if not isinstance(cont_cfg, Mapping):
            raise InvalidParameterError("model config's 'continuous' section must be an object")
        if cont_cfg.get("family", "gaussian") != "gaussian":
            raise InvalidParameterError("only the gaussian conditional family is supported")
        continuous = GaussianConditional(
            *_affine(cont_cfg, "mean", (0.0, 0.0)), *_affine(cont_cfg, "scale", (1.0, 0.0))
        )
    return SyntheticMixedModel(margin=margin, continuous=continuous)


def sample_model(model: SyntheticMixedModel, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows from the model; deterministic given ``seed``.

    Returns an (n, 1) array of discrete values, or (n, 2) with the
    continuous coordinate in the second column.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be nonnegative, got {count}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed))))
    cum = np.cumsum(model.margin.probabilities)
    u = rng.random(int(count))
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    z = model.margin.support_min + idx.astype(float)
    if model.continuous is None:
        return z[:, None]
    x = model.continuous.sample(rng, z)
    return np.column_stack([z, x])


def true_conditional(
    model: SyntheticMixedModel,
    kind: str,
    *,
    at: float | None = None,
    alpha: float | None = None,
    given_z: int | None = None,
    given_x: tuple[float, float] | None = None,
) -> float:
    """Exact conditional functional of the synthetic model.

    ``kind`` is one of mean / cdf / quantile (``at`` for cdf, ``alpha``
    for quantile). With ``given_z`` the response is the continuous
    coordinate conditioned on Z = given_z; with ``given_x`` (an interval)
    the response is Z conditioned on X falling in the interval; with
    neither, the marginal discrete functional.
    """
    if kind not in ("mean", "cdf", "quantile"):
        raise InvalidParameterError(f"unknown functional kind {kind!r}")
    if kind == "cdf" and at is None:
        raise InvalidParameterError("cdf needs 'at'")
    if kind == "quantile" and (alpha is None or not 0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"quantile needs alpha in [0, 1], got {alpha}")
    if given_z is not None and given_x is not None:
        raise InvalidParameterError("condition on either the discrete or the continuous part")

    if given_z is not None:
        if model.continuous is None:
            raise UndefinedConditionalError("model has no continuous coordinate")
        if model.margin.mass(given_z) == 0.0:
            raise UndefinedConditionalError(
                f"P(Z = {given_z}) = 0 under the discrete margin"
            )
        cont = model.continuous
        if kind == "mean":
            return cont.mean(float(given_z))
        if kind == "cdf":
            return cont.cdf(float(at), float(given_z))
        return cont.quantile(float(alpha), float(given_z))

    if given_x is not None:
        if model.continuous is None:
            raise UndefinedConditionalError("model has no continuous coordinate")
        a, b = float(given_x[0]), float(given_x[1])
        if not a < b:
            raise InvalidParameterError(f"interval must satisfy a < b, got ({a}, {b})")
        weights = [
            p * (model.continuous.cdf(b, float(z)) - model.continuous.cdf(a, float(z)))
            for z, p in zip(model.margin.support, model.margin.probabilities)
        ]
        total = sum(weights)
        if total <= 0.0:
            raise UndefinedConditionalError(f"P(X in ({a}, {b})) = 0 under the model")
        pmf = DiscretePmf(
            support_min=model.margin.support_min,
            probabilities=tuple(w / total for w in weights),
        )
    else:
        pmf = model.margin

    if kind == "mean":
        return pmf.mean()
    if kind == "cdf":
        return pmf.cdf(float(at))
    return float(pmf.quantile(float(alpha)))


@dataclass(frozen=True)
class AnalyticJitteredDensity:
    """Exact jittered joint density of a synthetic model.

    Column 0 is the jittered discrete coordinate, column 1 (when the
    model has a continuous part) the continuous coordinate. Implements
    ``response_slice`` so the regression functionals can be evaluated on
    exact ground truth instead of a fitted estimator.
    """

    model: SyntheticMixedModel
    spec: NoiseSpec

    @classmethod
    def from_pmf(cls, pmf: DiscretePmf, spec: NoiseSpec) -> "AnalyticJitteredDensity":
        return cls(model=SyntheticMixedModel(margin=pmf), spec=spec)

    @property
    def ncols(self) -> int:
        return 1 if self.model.continuous is None else 2

    def response_slice(
        self, response_index: int, covariate_point: Mapping[int, float]
    ) -> ResponseSlice:
        if not 0 <= response_index < self.ncols:
            raise SchemaError(
                f"response_index {response_index} out of range for {self.ncols} columns"
            )
        for j in covariate_point:
            if not 0 <= j < self.ncols or j == response_index:
                raise SchemaError(f"covariate column index {j} invalid for this density")

        pmf = self.model.margin
        cont = self.model.continuous
        spec = self.spec

        if response_index == 0:
            x_cond = covariate_point.get(1)
            weights = []
            for k, p in zip(pmf.support, pmf.probabilities):
                w = p if x_cond is None else p * cont.density(float(x_cond), float(k))
                weights.append((int(k), w))

            g1, g2 = spec.gamma1, spec.gamma2
            breaks = []
            for k in pmf.support:
                breaks.extend((k - g2, k - g1, k + g1, k + g2))
            return _quadrature_slice(
                lambda s: _eta_mixture(spec, weights, s),
                lower=float(pmf.support_min) - 1.0,
                upper=float(pmf.support_max) + 1.0,
                response_min=float(pmf.support_min),
                response_max=float(pmf.support_max),
                breakpoints=tuple(float(b) for b in breaks),
            )

        if cont is None:
            raise SchemaError("model has no continuous coordinate")
        z_cond = covariate_point.get(0)
        if z_cond is None:
            weights = list(zip(pmf.support, pmf.probabilities))
        else:
            weights = [
                (k, p * eta_density(spec, float(z_cond) - float(k)))
                for k, p in zip(pmf.support, pmf.probabilities)
            ]

        def density(s: float) -> float:
            return sum(w * cont.density(s, float(k)) for k, w in weights if w > 0.0)

        lo = min(cont.quantile(_TAIL_QUANTILE, float(k)) for k in pmf.support)
        hi = max(cont.quantile(1.0 - _TAIL_QUANTILE, float(k)) for k in pmf.support)
        return _quadrature_slice(density, lower=lo, upper=hi, response_min=lo, response_max=hi)
