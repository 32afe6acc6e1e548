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
against exact ground truth). Every slice brings its own ``integral`` and
``first_moment``, so this module never integrates numerically. Along the
response axis a KDE is a weighted sum of shifted kernels, so its
integrals are exact sums of the kernel's antiderivatives
(:meth:`~jitterkit.estimators.Kernel.cdf` and
:meth:`~jitterkit.estimators.Kernel.partial_moment`); the oracle's slices
integrate numerically, and :mod:`jitterkit.oracle` owns that.

Covariates are addressed by column index. Columns absent from
``covariate_point`` are marginalized out; for product kernels this is
exact, so queries may condition on any subset (including none).

A KDE averages R jitter replicates, and only its discrete columns differ
between them. So a slice holds an unjittered response once, as n values,
and its covariate weights once unless a held covariate is jittered; each
kernel pass runs over n values, or R * n where the data differ. Every
weighted sum still adds the R * n products of all replicates in one
order, so each estimate is bit-identical to one from stacked replicates.

A KDE slice takes a kernel CDF pass at each end of its window on the
first integral that reads that end, and keeps it after. So a slice read
only through its density takes no CDF pass (and so never loads
``scipy.special``), while every functional takes the passes it took
before, in the same order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NoLocalDataError, QuantileSearchError, SchemaError
from .estimators import KdeModel, product_weights

_MIN_DENOMINATOR = 1e-12
_BISECT_TOL = 1e-8
_CDF_SLACK = 1e-9
_QUANTILE_MARGIN = 2  # integers searched beyond the observed response range
_WINDOW_BANDWIDTHS = 6.0

_KINDS = ("mean", "cdf", "quantile", "class_probs")
_RESPONSE_KINDS = ("discrete", "continuous")


def _float(value) -> float:
    """``float(value)``, or inf for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_finite_point(point: Mapping[int, float]) -> None:
    if not all(math.isfinite(_float(v)) for v in point.values()):
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
            if not math.isfinite(_float(self.threshold)):
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
        if len(set(self.class_columns)) < len(self.class_columns):
            raise InvalidParameterError(
                f"a class column is given more than once in {tuple(self.class_columns)}"
            )


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
    region holding all of its mass, and ``response_min``/``response_max``
    span the observed (or supported) response values.

    ``integral(a, b)`` and ``first_moment(a, b)`` return ``int_a^b f`` and
    ``int_a^b s f(s) ds``; the slice's source supplies both.
    """

    density: Callable[[float], float]
    lower: float
    upper: float
    integral: Callable[[float, float], float]
    first_moment: Callable[[float, float], float]
    response_min: float = field(default=math.nan)
    response_max: float = field(default=math.nan)


def _covariate_weights(
    model: KdeModel, covariate_point: Mapping[int, float]
) -> tuple[np.ndarray, float]:
    """The product-kernel weights of the covariates at ``covariate_point``,
    and the product of their bandwidths. They do not depend on the
    response column. When a conditioned covariate is jittered they are an
    (R, n) array, one row per replicate; otherwise every replicate's
    weights are the same, and they are one n-vector."""
    d = len(model.schema)
    for j in covariate_point:
        if not 0 <= j < d:
            raise SchemaError(f"covariate column index {j} invalid for this model")
    cov_idx = sorted(covariate_point)
    cov_vals = np.array([float(covariate_point[j]) for j in cov_idx])
    cov_h = model.effective_bandwidths[cov_idx]
    stacked = any(model.columns[j].ndim == 2 for j in cov_idx)  # a jittered covariate
    # zeros, since a compact kernel's chunks skip rows of weight 0
    w = np.zeros((model.num_jitters if stacked else 1, model.origin.n))
    for r, rows, _, chunk in product_weights(model, cov_idx, cov_vals, cov_h):
        if r < len(w):
            w[r, rows] = chunk
    return (w if stacked else w[0]), float(np.prod(cov_h))


def _kde_response_slice(
    model: KdeModel, response_index: int, covariate_point: Mapping[int, float],
    weights: tuple[np.ndarray, float] | None = None,
) -> ResponseSlice:
    """Slice of a KDE: along the response axis it is a weighted sum of
    shifted kernels, so its integrals are sums of kernel antiderivatives.
    ``weights`` are :func:`_covariate_weights` at ``covariate_point``, when
    the caller already has them.

    The response is the model's own column: a C-contiguous (R, n) array
    of its replicates when it is jittered (``discrete_ordered``), else
    one n-vector, the same in every replicate. Each kernel pass
    runs over the response's own shape, and each weighted sum over the
    (R, n) product of weights and pass, so it adds the same R * n terms
    in the same order as one flat array of all replicates would."""
    d = len(model.schema)
    if not 0 <= response_index < d:
        raise SchemaError(f"response_index {response_index} out of range for {d} columns")
    if response_index in covariate_point:
        raise SchemaError(f"covariate column index {response_index} invalid for this model")
    w, cov_norm = weights if weights is not None else _covariate_weights(model, covariate_point)

    h = model.effective_bandwidths
    h_resp = float(h[response_index])
    kernel = model.kernel
    resp = model.columns[response_index]
    num_rows = model.num_jitters * model.origin.n
    norm = num_rows * h_resp * cov_norm

    def weighted_sum(terms: np.ndarray) -> float:
        product = w * terms
        if product.size < num_rows:  # weights and terms are both one n-vector
            product = np.tile(product, model.num_jitters)
        return float(product.sum())

    observed = model.origin.rows[:, response_index]
    r_min = float(observed.min())
    r_max = float(observed.max())
    pad = _WINDOW_BANDWIDTHS * float(h.max()) + 1.0
    lower = r_min - pad
    upper = r_max + pad

    # each kernel CDF pass is kept with its offsets (t - resp) / h_resp:
    # a window end's from its first use on, since the denominator and every
    # integral from the floor read it, and the last other t's, which is the
    # next integer segment's lower end in a discrete quantile and the point
    # a density follows. A slice read only through its density takes none.
    def offsets_and_cdf(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        u = (t - resp) / h_resp
        return t, u, kernel.cdf(u)

    ends = {}
    last = [(math.nan,)]  # a nan t, which no t equals

    def at(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        if t == lower or t == upper:
            if t not in ends:
                ends[t] = offsets_and_cdf(t)
            return ends[t]
        if last[0][0] != t:
            last[0] = offsets_and_cdf(t)
        return last[0]

    def density(s: float) -> float:
        # the kernel is symmetric, so (s - resp) / h_resp serves as well as its negative
        kept = last[0]
        u = kept[1] if kept[0] == s else (s - resp) / h_resp
        return weighted_sum(kernel.profile(u)) / norm

    # int_a^b K((s - r) / h) ds = h [C(ub) - C(ua)]; with s = r + h t the
    # first moment adds h^2 [M(ub) - M(ua)] to r times that mass
    def integral(a: float, b: float) -> float:
        (_, _, ca), (_, _, cb) = at(a), at(b)
        return weighted_sum(cb - ca) * h_resp / norm

    def first_moment(a: float, b: float) -> float:
        (_, ua, ca), (_, ub, cb) = at(a), at(b)
        centres = resp * (cb - ca)
        moment = kernel.partial_moment
        spreads = h_resp * (moment(ub) - moment(ua))
        return weighted_sum(centres + spreads) * h_resp / norm

    return ResponseSlice(
        density=density,
        lower=lower,
        upper=upper,
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


def _mean(sl: ResponseSlice, query: FunctionalQuery) -> ConditionalEstimate:
    denom = _denominator(sl, query)
    num = sl.first_moment(sl.lower, sl.upper)
    return ConditionalEstimate(value=num / denom, denominator_mass=denom, query=query)


def cond_mean(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional mean of the response at the query's covariate point."""
    if query.kind != "mean":
        raise InvalidParameterError(f"cond_mean got a {query.kind!r} query")
    return _mean(response_slice(model, query.response_index, query.covariate_point), query)


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


def _bisections(width: float) -> int:
    """Bisection passes that narrow a bracket of ``width`` to ``_BISECT_TOL``."""
    return max(0, math.ceil(math.log2(width / _BISECT_TOL)))


def _continuous_quantile(sl: ResponseSlice, denom: float, alpha: float) -> float:
    # Newton on cdf - alpha, whose derivative is density / denom, kept in a
    # bracket cdf(lo) < alpha <= cdf(hi) and falling back to bisection
    # (rtsafe, Numerical Recipes 9.4). The window floor holds no mass and
    # the top all of it (its integral is the denominator's own), so
    # [lower, upper] brackets every alpha in (0, 1].
    if alpha <= 0.0:
        return sl.lower
    lo, hi = sl.lower, sl.upper
    # twice what bisection alone takes; Newton is tried only while bisection
    # could still close the bracket within it, and the loop stops there even
    # where floats are too coarse to narrow it to 1e-8 (|t| above ~6.7e7)
    budget = 2 * _bisections(hi - lo)
    t = 0.5 * (lo + hi)
    last = before_last = hi - lo
    after_short = False  # the last pass took a short step past the root
    for done in range(1, budget + 1):
        f = _corrected_cdf(sl, denom, t, discrete=False) - alpha
        if f >= 0.0:
            hi = t
        else:
            lo = t
        if hi - lo <= _BISECT_TOL:
            break
        nxt, short = 0.5 * (lo + hi), False
        if done + 1 + _bisections(hi - lo) <= budget:
            slope = sl.density(t) / denom
            newton = f / slope if slope > 0.0 else math.inf
            short = abs(newton) < 0.5 * _BISECT_TOL
            # a short step lands just past the root, so the far side closes
            step = newton + math.copysign(0.5 * _BISECT_TOL, f) if short else newton
            # Newton must stay inside the bracket and shrink to at most half
            # the step before last; a short step that missed means the slope
            # is no guide, so no second one follows
            if lo < t - step < hi and abs(newton) <= 0.5 * before_last and not (
                    short and after_short):
                nxt = t - step
            else:
                short = False
        before_last, last, after_short = last, abs(nxt - t), short
        t = nxt
    return hi


def cond_quantile(model, query: FunctionalQuery) -> ConditionalEstimate:
    """Conditional quantile: smallest response value whose CDF reaches alpha.

    Discrete responses scan the integers spanning the observed range
    (expanded by two on each side) against the corrected CDF. Continuous
    responses run a bracketed Newton search on the CDF estimate, whose
    derivative is the slice density, falling back to bisection where a
    Newton step leaves the bracket or shrinks too slowly. It returns the
    bracket's upper end once the bracket is 1e-8 wide, as bisection
    would: a value whose CDF reaches alpha, within 1e-8 of where it first
    does.
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
        d = len(origin.schema)
        for c in query.class_columns:
            if not 0 <= c < d:
                raise SchemaError(f"class column index {c} out of range for {d} columns")
            col = origin.schema[c]
            vals = origin.rows[:, c]
            if col.kind != "discrete_ordered" or not np.all((vals == 0) | (vals == 1)):
                raise SchemaError(
                    f"class column {col.name!r} is not a binary dummy column; "
                    "dummy-code the response at ingestion"
                )
    probs = np.empty(len(query.class_columns))
    denom = math.nan
    weights = None  # a KDE's covariate weights, built once for every class column
    for i, c in enumerate(query.class_columns):
        sub = FunctionalQuery(
            kind="mean",
            response_index=c,
            response_kind="discrete",
            covariate_point=query.covariate_point,
        )
        if isinstance(model, KdeModel):
            weights = weights or _covariate_weights(model, sub.covariate_point)
            sl = _kde_response_slice(model, c, sub.covariate_point, weights)
        else:
            sl = response_slice(model, c, sub.covariate_point)
        est = _mean(sl, sub)
        probs[i] = est.value
        denom = est.denominator_mass if i == 0 else denom
    probs = np.clip(probs, 0.0, 1.0)
    total = probs.sum()
    if not total > 0.0:
        raise NoLocalDataError(
            f"all class probabilities vanish at covariate point {dict(query.covariate_point)}"
        )
    return ConditionalEstimate(value=probs / total, denominator_mass=denom, query=query)
