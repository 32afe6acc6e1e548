"""Conditional functionals of a jittered joint density.

Every operation here reduces a joint density to a one-dimensional
profile along the response axis (covariates held fixed at the query
point) and integrates it:

* conditional mean: ratio of ``int s f(s) ds`` to ``int f(s) ds``,
* conditional CDF: ratio of the partial integral up to the threshold,
  plus, for a discrete response, the correction term
  ``f(threshold) / (2 * int f(s) ds)`` that aligns the jittered CDF with
  the original discrete CDF at integer thresholds,
* conditional quantile: infimum of the threshold at which the (corrected)
  CDF reaches the level,
* class probabilities: conditional means of dummy response columns.

The density source is either a fitted :class:`~jitterkit.estimators.KdeModel`
or any object exposing ``response_slice`` (the analytic jittered densities
in :mod:`jitterkit.oracle` do, which is how the identities are verified
against exact ground truth). Along the response axis a KDE is a weighted
sum of shifted kernels, so its integrals are exact sums of the kernel's
antiderivatives (:meth:`~jitterkit.estimators.Kernel.cdf` and
:meth:`~jitterkit.estimators.Kernel.partial_moment`); only slices without
a closed form, such as the oracle's, fall back to adaptive quadrature.

Covariates are addressed by column index. Columns absent from
``covariate_point`` are marginalized out; for product kernels this is
exact, so queries may condition on any subset (including none).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NoLocalDataError, QuantileSearchError, SchemaError
from .estimators import KdeModel
from .quadrature import adaptive_integral

_MIN_DENOMINATOR = 1e-12
_INTEGRAL_TOL = 1e-10
_BISECT_TOL = 1e-8
_CDF_SLACK = 1e-9
_QUANTILE_MARGIN = 2  # integers searched beyond the observed response range
_WINDOW_BANDWIDTHS = 6.0

_KINDS = ("mean", "cdf", "quantile", "class_probs")
_RESPONSE_KINDS = ("discrete", "continuous")


def _check_finite_point(point: Mapping[int, float]) -> None:
    if not all(math.isfinite(float(v)) for v in point.values()):
        raise InvalidParameterError(f"covariate_point values must be finite, got {dict(point)}")


@dataclass(frozen=True)
class FunctionalQuery:
    """What to estimate, about which column, at which covariate point.

    ``covariate_point`` maps column indices to values; omitted columns
    are integrated out. ``threshold`` is required for ``cdf`` (integer
    when the response is discrete), ``alpha`` for ``quantile``, and
    ``class_columns`` (dummy column indices) for ``class_probs``.
    """

    kind: str
    response_index: int
    response_kind: str
    covariate_point: Mapping[int, float] | None = None
    threshold: float | None = None
    alpha: float | None = None
    class_columns: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown functional kind {self.kind!r}")
        if self.response_kind not in _RESPONSE_KINDS:
            raise InvalidParameterError(f"unknown response kind {self.response_kind!r}")
        point = dict(self.covariate_point) if self.covariate_point else {}
        if self.response_index in point:
            raise InvalidParameterError("covariate_point must not include the response column")
        _check_finite_point(point)
        object.__setattr__(self, "covariate_point", point)
        if self.kind == "cdf":
            if self.threshold is None:
                raise InvalidParameterError("cdf queries need a threshold")
            if not math.isfinite(float(self.threshold)):
                raise InvalidParameterError(f"threshold must be finite, got {self.threshold}")
            if self.response_kind == "discrete" and not float(self.threshold).is_integer():
                raise InvalidParameterError(
                    f"discrete-response threshold must be an integer, got {self.threshold}"
                )
        if self.kind == "quantile":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise InvalidParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.kind == "class_probs" and not self.class_columns:
            raise InvalidParameterError("class_probs queries need class_columns")


@dataclass(frozen=True, eq=False)
class ConditionalEstimate:
    """Estimated functional value plus the conditioning density mass."""

    value: float | np.ndarray
    denominator_mass: float
    query: FunctionalQuery


@dataclass(frozen=True, eq=False)
class ResponseSlice:
    """One-dimensional profile of a joint density along the response axis.

    ``density`` evaluates the joint density with all conditioned
    covariates held at the query point; ``lower``/``upper`` bound the
    region holding all of its mass, ``breakpoints`` list the kink
    locations for quadrature, and ``response_min``/``response_max`` span
    the observed (or supported) response values.

    ``integral(a, b)`` and ``first_moment(a, b)`` return ``int_a^b f`` and
    ``int_a^b s f(s) ds``. A slice that knows them in closed form passes
    them in; otherwise they default to adaptive quadrature of ``density``
    over ``breakpoints``.
    """

    density: Callable[[float], float]
    lower: float
    upper: float
    breakpoints: tuple[float, ...] = ()
    response_min: float = field(default=math.nan)
    response_max: float = field(default=math.nan)
    integral: Callable[[float, float], float] | None = None
    first_moment: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.integral is None:
            object.__setattr__(self, "integral", lambda a, b: adaptive_integral(
                self.density, a, b, tol=_INTEGRAL_TOL, breakpoints=self.breakpoints))
        if self.first_moment is None:
            object.__setattr__(self, "first_moment", lambda a, b: adaptive_integral(
                lambda s: s * self.density(s), a, b,
                tol=_INTEGRAL_TOL, breakpoints=self.breakpoints))


def _kde_response_slice(
    model: KdeModel, response_index: int, covariate_point: Mapping[int, float]
) -> ResponseSlice:
    """Slice of a KDE: along the response axis it is a weighted sum of
    shifted kernels, so its integrals are sums of kernel antiderivatives."""
    d = len(model.schema)
    if not 0 <= response_index < d:
        raise SchemaError(f"response_index {response_index} out of range for {d} columns")
    for j in covariate_point:
        if not 0 <= j < d or j == response_index:
            raise SchemaError(f"covariate column index {j} invalid for this model")

    h = model.effective_bandwidths
    h_resp = float(h[response_index])
    cov_idx = sorted(covariate_point)
    cov_vals = np.array([float(covariate_point[j]) for j in cov_idx])
    cov_h = h[cov_idx]
    kernel = model.kernel
    reps = model.replicates
    # the replicates' response values and covariate weights, stacked over all R * n rows
    resp = np.concatenate([rep.rows[:, response_index] for rep in reps])
    w = np.concatenate([kernel.product_weights(rep.rows, cov_idx, cov_vals, cov_h)
                        for rep in reps])
    norm = len(resp) * h_resp * float(np.prod(cov_h))

    observed = model.origin.rows[:, response_index]
    r_min = float(observed.min())
    r_max = float(observed.max())
    pad = _WINDOW_BANDWIDTHS * float(h.max()) + 1.0
    lower = r_min - pad
    # most integrals start at the window floor (every bisection step of a
    # continuous quantile does), so its kernel CDF is computed once
    floor_cdf = kernel.cdf((lower - resp) / h_resp)

    def cdf_at(t: float) -> np.ndarray:
        return floor_cdf if t == lower else kernel.cdf((t - resp) / h_resp)

    def density(s: float) -> float:
        return float((w * kernel.profile((resp - s) / h_resp)).sum()) / norm

    # int_a^b K((s - r) / h) ds = h [C(ub) - C(ua)]; with s = r + h t the
    # first moment adds h^2 [M(ub) - M(ua)] to r times that mass
    def integral(a: float, b: float) -> float:
        return float((w * (cdf_at(b) - cdf_at(a))).sum()) * h_resp / norm

    def first_moment(a: float, b: float) -> float:
        centres = resp * (cdf_at(b) - cdf_at(a))
        moment = kernel.partial_moment
        spreads = h_resp * (moment((b - resp) / h_resp) - moment((a - resp) / h_resp))
        return float((w * (centres + spreads)).sum()) * h_resp / norm

    return ResponseSlice(
        density=density,
        lower=lower,
        upper=r_max + pad,
        response_min=r_min,
        response_max=r_max,
        integral=integral,
        first_moment=first_moment,
    )


def response_slice(
    model, response_index: int, covariate_point: Mapping[int, float]
) -> ResponseSlice:
    """Profile of ``model``'s joint density along column ``response_index``
    with the covariates in ``covariate_point`` held fixed.

    ``model`` is a fitted :class:`~jitterkit.estimators.KdeModel` or any
    object with a ``response_slice`` method of the same signature.
    Covariate values must be finite.
    """
    _check_finite_point(covariate_point)
    if isinstance(model, KdeModel):
        return _kde_response_slice(model, response_index, covariate_point)
    if hasattr(model, "response_slice"):
        return model.response_slice(response_index, covariate_point)
    raise InvalidParameterError(
        f"cannot take conditional functionals of {type(model).__name__}"
    )


def _denominator(sl: ResponseSlice, query: FunctionalQuery) -> float:
    denom = sl.integral(sl.lower, sl.upper)
    if not denom > _MIN_DENOMINATOR:
        raise NoLocalDataError(
            f"conditioning mass {denom} at covariate point "
            f"{dict(query.covariate_point)} is below {_MIN_DENOMINATOR}"
        )
    return denom


def cond_mean(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional mean of the response at the query's covariate point."""
    if query.kind != "mean":
        raise InvalidParameterError(f"cond_mean got a {query.kind!r} query")
    sl = response_slice(model, query.response_index, query.covariate_point)
    denom = _denominator(sl, query)
    num = sl.first_moment(sl.lower, sl.upper)
    return ConditionalEstimate(value=num / denom, denominator_mass=denom, query=query)


def _corrected_cdf(
    sl: ResponseSlice, denom: float, t: float, discrete: bool, cum: float | None = None
) -> float:
    if cum is None:
        cum = 0.0 if t <= sl.lower else sl.integral(sl.lower, min(t, sl.upper))
    value = cum / denom
    if discrete:
        value += sl.density(t) / (2.0 * denom)
    return min(max(value, 0.0), 1.0)


def cond_cdf(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional CDF of the response at the query's threshold.

    For a discrete response the plain integral ratio is off by half the
    response atom; adding ``density(t) / (2 * denominator)`` restores the
    original conditional CDF exactly at integer thresholds. A continuous
    response needs no correction.
    """
    if query.kind != "cdf":
        raise InvalidParameterError(f"cond_cdf got a {query.kind!r} query")
    sl = response_slice(model, query.response_index, query.covariate_point)
    denom = _denominator(sl, query)
    value = _corrected_cdf(sl, denom, float(query.threshold), query.response_kind == "discrete")
    return ConditionalEstimate(value=value, denominator_mass=denom, query=query)


def _discrete_quantile(sl: ResponseSlice, denom: float, alpha: float) -> float:
    lo = math.floor(sl.response_min) - _QUANTILE_MARGIN
    hi = math.ceil(sl.response_max) + _QUANTILE_MARGIN
    cum = 0.0
    prev = sl.lower
    attained = 0.0
    for t in range(lo, hi + 1):
        seg_hi = min(float(t), sl.upper)
        if seg_hi > prev:
            cum += sl.integral(prev, seg_hi)
            prev = seg_hi
        corrected = _corrected_cdf(sl, denom, float(t), discrete=True, cum=cum)
        attained = max(attained, corrected)
        if corrected >= alpha - _CDF_SLACK:
            return float(t)
    raise QuantileSearchError(
        f"level {alpha} unreachable on integer window [{lo}, {hi}] "
        f"(attained supremum {attained})",
        attained=attained,
    )


def _continuous_quantile(sl: ResponseSlice, denom: float, alpha: float) -> float:
    if alpha <= 0.0:
        return sl.lower
    top = _corrected_cdf(sl, denom, sl.upper, discrete=False)
    if top < alpha - _CDF_SLACK:
        raise QuantileSearchError(
            f"level {alpha} unreachable on [{sl.lower}, {sl.upper}] "
            f"(attained supremum {top})",
            attained=top,
        )
    lo_t, hi_t = sl.lower, sl.upper
    while hi_t - lo_t > _BISECT_TOL:
        mid = 0.5 * (lo_t + hi_t)
        if _corrected_cdf(sl, denom, mid, discrete=False) >= alpha:
            hi_t = mid
        else:
            lo_t = mid
    return hi_t


def cond_quantile(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional quantile: smallest response value whose CDF reaches alpha.

    Discrete responses scan the integers spanning the observed range
    (expanded by two on each side) against the corrected CDF; continuous
    responses bisect the monotone CDF estimate to 1e-8 in the response
    coordinate.
    """
    if query.kind != "quantile":
        raise InvalidParameterError(f"cond_quantile got a {query.kind!r} query")
    sl = response_slice(model, query.response_index, query.covariate_point)
    denom = _denominator(sl, query)
    alpha = float(query.alpha)
    if query.response_kind == "discrete":
        value = _discrete_quantile(sl, denom, alpha)
    else:
        value = _continuous_quantile(sl, denom, alpha)
    return ConditionalEstimate(value=value, denominator_mass=denom, query=query)


def classify(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional class probabilities over dummy-coded response columns.

    Each class probability is the conditional mean of that class's
    binary indicator column; the vector is clamped to [0, 1] and
    renormalized to sum to one.
    """
    if query.kind != "class_probs":
        raise InvalidParameterError(f"classify got a {query.kind!r} query")
    origin = getattr(model, "origin", None)
    if origin is not None:
        for c in query.class_columns:
            col = origin.schema[c]
            vals = origin.rows[:, c]
            if col.kind != "discrete_ordered" or not np.all((vals == 0) | (vals == 1)):
                raise SchemaError(
                    f"class column {col.name!r} is not a binary dummy column; "
                    "dummy-code the response at ingestion"
                )
    probs = np.empty(len(query.class_columns))
    denom = math.nan
    for i, c in enumerate(query.class_columns):
        sub = FunctionalQuery(
            kind="mean",
            response_index=c,
            response_kind="discrete",
            covariate_point=query.covariate_point,
        )
        est = cond_mean(model, sub)
        probs[i] = est.value
        denom = est.denominator_mass if i == 0 else denom
    probs = np.clip(probs, 0.0, 1.0)
    total = probs.sum()
    if not total > 0.0:
        raise NoLocalDataError(
            f"all class probabilities vanish at covariate point {dict(query.covariate_point)}"
        )
    return ConditionalEstimate(value=probs / total, denominator_mass=denom, query=query)
