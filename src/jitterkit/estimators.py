"""Jittering estimators: kernel density and local linear regression.

Both estimators follow the same recipe: draw one or more jitter
replicates of the dataset, smooth each replicate with a product kernel,
and average the per-replicate results. One fit helper and one model base
class hold that shared part. Bandwidths live on the standardized scale
(the transform is computed from the first jitter replicate), so
evaluation uses the effective per-column bandwidth ``b_j * scale_j`` on
original units. Nothing here integrates numerically: the kernel's
antiderivatives (:meth:`Kernel.cdf`, :meth:`Kernel.partial_moment`) give
the KDE functionals in closed form, and :mod:`jitterkit.quadrature`
serves only the analytic oracle and the noise checks.

Every kernel sum goes through :meth:`Kernel.product_weights`, which
builds the product-kernel weights one column at a time on 1-D column
views, so no (n, d) temporary is made. ``kde_eval`` and ``loclin_eval``
walk each replicate in fixed chunks of ``_CHUNK_ROWS`` rows, which bounds
their working memory independently of n.

A Gaussian weight whose exponent ``-0.5 * sum u_j^2`` is below -700 is
an exact 0.0 (see ``_exp``). Rows more than about 37 bandwidths from the
point have such exponents, and for them numpy's ``exp`` leaves its
vectorised loop for a much slower underflow path, so a few far rows
scattered through an array multiplied the time of a whole evaluation.
A dropped weight is below ``e^-700 (2 pi)^(-k/2)``, about 1e-305, before
normalisation, which bounds the change to any result.

A fit is deterministic given its inputs, so a saved model holds those
inputs (the origin rows, noise, seed, kernel and bandwidths) and a
digest of each replicate, not the replicates: ``load_model`` refits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy

from .data import (
    ColumnSchema,
    JitteredDataset,
    MixedDataset,
    Standardization,
    jitter,
)
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    NoLocalDataError,
    NumericalError,
    SchemaError,
)
from .noise import NoiseSpec

_KERNEL_NAMES = ("gaussian", "epanechnikov")
_RIDGE_FACTOR = 1e-8
_MIN_TOTAL_WEIGHT = 1e-12
_CHUNK_ROWS = 32_768  # rows per evaluation chunk: ~256 KB per float column
_EXP_FLOOR = -700.0  # Gaussian exp arguments below it give a weight of exactly 0

MODEL_FORMAT = "jitterkit-model"
MODEL_VERSION = 2


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` in place, except that an argument below ``_EXP_FLOOR``
    gives an exact 0.0, so no lane takes numpy's underflow slow path."""
    near = None
    if x.size and x.min() < _EXP_FLOOR:
        near = x >= _EXP_FLOOR
        np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    if near is not None:
        # far lanes are scattered through the rows: a multiply by the mask
        # zeroes them without the branch a masked store takes per lane
        np.multiply(x, near, out=x)
    return x


@dataclass(frozen=True)
class Kernel:
    """Univariate symmetric kernel density; multivariate use is the product
    across coordinates."""

    name: str

    def __post_init__(self):
        if self.name not in _KERNEL_NAMES:
            raise InvalidParameterError(
                f"unknown kernel {self.name!r}; choose from {_KERNEL_NAMES}"
            )

    def profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            return _exp(np.asarray(-0.5 * u * u)) / math.sqrt(2.0 * math.pi)
        # epanechnikov, compact support [-1, 1]
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)

    def product_weights(self, rows: np.ndarray, columns, point, h) -> np.ndarray:
        """Product-kernel weights ``prod_j K((rows[:, c_j] - p_j) / h_j)``.

        ``columns`` indexes the columns of ``rows`` that ``point`` and ``h``
        give values and bandwidths for; with no columns every weight is 1.
        Works column by column on 1-D views, so its temporaries are a few
        arrays of ``len(rows)`` floats whatever the number of columns.
        """
        if not len(columns):
            return np.ones(len(rows))
        acc = None
        # a huge coordinate squares to u^2 = inf, whose weight is exactly 0
        with np.errstate(over="ignore"):
            for c, p, hj in zip(columns, point, h):
                u = np.subtract(rows[:, c], p)
                u /= hj
                np.square(u, out=u)
                if self.name != "gaussian":
                    # 1 - u^2 clipped at 0 is exactly 0 outside the support |u| <= 1
                    np.subtract(1.0, u, out=u)
                    np.maximum(u, 0.0, out=u)
                # the first column's factor is the accumulator: 0 + u^2 and 1 * v are exact
                if acc is None:
                    acc = u
                elif self.name == "gaussian":
                    acc += u
                else:
                    acc *= u
        k = len(columns)
        if self.name == "gaussian":
            acc *= -0.5
            _exp(acc)
            acc *= (2.0 * math.pi) ** (-0.5 * k)
        else:
            acc *= 0.75**k
        return acc

    def cdf(self, u: np.ndarray) -> np.ndarray:
        """Antiderivative ``int_{-inf}^u K(t) dt``."""
        u = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            return scipy.special.ndtr(u)
        u = np.clip(u, -1.0, 1.0)
        return 0.5 + 0.75 * (u - u * u * u / 3.0)

    def partial_moment(self, u: np.ndarray) -> np.ndarray:
        """Antiderivative ``int_{-inf}^u t K(t) dt``; it vanishes at both
        ends of the support, since the kernel is symmetric."""
        u = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            return -self.profile(u)
        u2 = np.clip(u, -1.0, 1.0) ** 2
        return 0.75 * (0.5 * u2 - 0.25 * u2 * u2) - 3.0 / 16.0


GAUSSIAN = Kernel("gaussian")
EPANECHNIKOV = Kernel("epanechnikov")


def get_kernel(name: str) -> Kernel:
    return Kernel(name)


def select_bandwidth(data) -> np.ndarray:
    """Normal-reference bandwidth per coordinate on standardized data.

    ``b_j = (4 / (d + 2))^(1/(d+4)) * n^(-1/(d+4))`` for every coordinate
    (all have unit sample sd after standardization). Accepts a dataset, a
    jitter replicate, or a plain (n, d) matrix.
    """
    rows = data if isinstance(data, np.ndarray) else data.rows
    n, d = rows.shape
    if n < 2:
        raise InsufficientDataError(f"bandwidth selection needs n >= 2, got n = {n}")
    if d < 1:
        raise InvalidParameterError("bandwidth selection needs at least one column")
    b = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return np.full(d, b)


@dataclass(frozen=True, eq=False)
class _JitteredModel:
    """What both jittered estimators hold: the kernel, the noise and seed
    the replicates were drawn with, the jitter replicates averaged over,
    and the standardization and bandwidths of the smoothed columns.

    ``transform`` covers the smoothed columns (``smoothed_indices``), and
    ``bandwidths`` are on the standardized scale, one finite positive
    value per smoothed column. Models are immutable and safe for
    concurrent evaluation.
    """

    kernel: Kernel
    noise: NoiseSpec
    seed: int
    bandwidths: np.ndarray
    transform: Standardization
    replicates: tuple[JitteredDataset, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "replicates", tuple(self.replicates))
        if not self.replicates:
            raise InvalidParameterError("model needs at least one jitter replicate")
        d = len(self.smoothed_indices)
        if len(self.transform.scales) != d:
            raise InvalidParameterError(
                f"transform covers {len(self.transform.scales)} columns, "
                f"but the model smooths {d}"
            )
        b = np.asarray(self.bandwidths, dtype=float)
        if b.shape != (d,):
            raise InvalidParameterError(
                f"expected {d} bandwidths, one per smoothed column, got shape {b.shape}"
            )
        if not (np.all(b > 0) and np.all(np.isfinite(b))):
            raise InvalidParameterError(f"bandwidths must be positive and finite, got {b.tolist()}")
        b.setflags(write=False)
        object.__setattr__(self, "bandwidths", b)

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self.replicates[0].schema

    @property
    def smoothed_indices(self) -> tuple[int, ...]:
        """The columns the kernel smooths: all of them, unless a subclass says."""
        return tuple(range(len(self.schema)))

    @property
    def origin(self) -> MixedDataset:
        return self.replicates[0].origin

    @property
    def num_jitters(self) -> int:
        return len(self.replicates)


def _jittered_fit(
    dataset: MixedDataset, spec: NoiseSpec, kernel: Kernel, num_jitters: int, seed: int,
    bandwidth, response_index: int | None = None,
) -> dict:
    """The fit steps both estimators share, returned as the base model's fields.

    Draws ``num_jitters`` jitter replicates, then standardizes replicate
    0's smoothed columns (every column but ``response_index``) and selects
    their normal-reference bandwidths, unless ``bandwidth`` overrides them
    (a scalar for all columns, or a sequence with one per column; stored
    verbatim).
    """
    if num_jitters < 1:
        raise InvalidParameterError(f"num_jitters must be >= 1, got {num_jitters}")
    categorical = [c.name for c in dataset.schema if c.kind == "categorical"]
    if categorical:
        raise SchemaError(f"categorical columns {categorical} must be dummy-coded before fitting")
    replicates = tuple(jitter(dataset, spec, seed, r) for r in range(num_jitters))
    smoothed = [j for j in range(len(dataset.schema)) if j != response_index]
    # a KDE standardizes the replicate's own rows: a fancy-indexed copy is
    # not C-contiguous, and numpy would sum its columns in another order
    rows = replicates[0].rows if response_index is None else replicates[0].rows[:, smoothed]
    transform = Standardization.from_rows(rows, tuple(dataset.schema[j].name for j in smoothed))
    if bandwidth is None:
        bandwidths = select_bandwidth(rows)
    elif np.ndim(bandwidth) == 0:
        bandwidths = np.full(len(smoothed), float(bandwidth))
    else:
        bandwidths = np.asarray(bandwidth, dtype=float)
    return dict(kernel=kernel, noise=spec, seed=int(seed), bandwidths=bandwidths,
                transform=transform, replicates=replicates)


@dataclass(frozen=True, eq=False)
class KdeModel(_JitteredModel):
    """Fitted jittered kernel density estimator; it smooths every column."""

    @property
    def effective_bandwidths(self) -> np.ndarray:
        """Per-column bandwidths on original units: b_j * scale_j."""
        return self.bandwidths * self.transform.scales


def fit_kde(
    dataset: MixedDataset,
    spec: NoiseSpec,
    kernel: Kernel = GAUSSIAN,
    num_jitters: int = 1,
    seed: int = 0,
    bandwidth=None,
) -> KdeModel:
    """Fit the jittered kernel density estimator.

    Draws ``num_jitters`` independent jitter replicates from the seeded
    noise streams, standardizes on the first replicate, and selects
    normal-reference bandwidths unless ``bandwidth`` overrides them
    (stored verbatim). Deterministic given its inputs.
    """
    if dataset.n < 2:
        raise InsufficientDataError(f"fit_kde needs n >= 2 observations, got {dataset.n}")
    return KdeModel(**_jittered_fit(dataset, spec, kernel, num_jitters, seed, bandwidth))


def _finite_point(point, d: int, what: str) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (d,):
        raise InvalidParameterError(f"{what} must have {d} coordinates, got shape {point.shape}")
    if not np.all(np.isfinite(point)):
        raise InvalidParameterError(f"{what} must be finite, got {point.tolist()}")
    return point


def kde_eval(model: KdeModel, point) -> float:
    """Density estimate at ``point`` (original units).

    The value is the arithmetic mean of the per-replicate product-kernel
    estimates; it is nonnegative and a pure function of (model, point).
    """
    d = len(model.schema)
    point = _finite_point(point, d, "point")
    h = model.effective_bandwidths
    columns = range(d)
    norm = float(np.prod(h))
    vals = np.empty(model.num_jitters)
    for r, rep in enumerate(model.replicates):
        total = 0.0
        for start in range(0, rep.n, _CHUNK_ROWS):
            chunk = rep.rows[start:start + _CHUNK_ROWS]
            total += float(model.kernel.product_weights(chunk, columns, point, h).sum())
        vals[r] = total / (rep.n * norm)
    return float(np.mean(vals))


@dataclass(frozen=True, eq=False)
class LocLinModel(_JitteredModel):
    """Fitted jittered local linear regression estimator.

    It smooths the covariates, every column but ``response_index``. The
    response column keeps its original values unless it is discrete and
    response jittering was requested at fit time.
    """

    response_index: int
    jitter_response: bool = False

    @property
    def covariate_indices(self) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.schema)) if j != self.response_index)

    smoothed_indices = covariate_indices

    def response_values(self, replicate: JitteredDataset) -> np.ndarray:
        if self.jitter_response:
            return replicate.rows[:, self.response_index]
        return self.origin.rows[:, self.response_index]


def fit_loclin(
    dataset: MixedDataset,
    response_index: int,
    spec: NoiseSpec,
    kernel: Kernel = GAUSSIAN,
    num_jitters: int = 1,
    seed: int = 0,
    bandwidth=None,
    jitter_response: bool = False,
) -> LocLinModel:
    """Fit jittered local linear regression of one column on the rest.

    Covariates are jittered (discrete ones) and standardized; the
    response stays on original values unless ``jitter_response`` is set
    and the response column is discrete. Deterministic given its inputs.
    """
    ncol = len(dataset.schema)
    if not 0 <= response_index < ncol:
        raise SchemaError(f"response_index {response_index} out of range for {ncol} columns")
    d = ncol - 1
    if d < 1:
        raise SchemaError("local linear regression needs at least one covariate")
    if dataset.n < d + 2:
        raise InsufficientDataError(
            f"local linear fit needs n >= d + 2 = {d + 2} rows, got {dataset.n}"
        )
    discrete_response = dataset.schema[response_index].kind == "discrete_ordered"
    return LocLinModel(
        response_index=int(response_index),
        jitter_response=bool(jitter_response and discrete_response),
        **_jittered_fit(dataset, spec, kernel, num_jitters, seed, bandwidth, response_index),
    )


def _normal_equations(
    kernel: Kernel, rows: np.ndarray, y: np.ndarray, columns, x0: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted normal equations ``(A'WA, A'Wy)`` of the local linear
    fit around ``x0`` over ``rows``, where row i of ``A`` is
    ``(1, rows[i, columns] - x0)``."""
    w = kernel.product_weights(rows, columns, x0, h)
    dx = np.empty((len(columns), len(rows)))
    for j, c in enumerate(columns):
        np.subtract(rows[:, c], x0[j], out=dx[j])
    wdx = dx * w
    m = np.empty((len(columns) + 1, len(columns) + 1))
    m[0, 0] = w.sum()
    m[0, 1:] = m[1:, 0] = wdx.sum(axis=1)
    m[1:, 1:] = wdx @ dx.T
    wy = np.multiply(w, y, out=w)
    return m, np.concatenate(([wy.sum()], dx @ wy))


def _weighted_local_fit(m: np.ndarray, rhs: np.ndarray) -> float:
    """Solve the kernel-weighted least squares for the local intercept.

    ``m`` and ``rhs`` are the normal equations of minimizing
    ``sum_i w_i (y_i - a - beta' dx_i)^2``; returns ``a``, the fitted value
    at the evaluation point. Falls back to a small ridge on the normal
    equations only when the local design is singular.
    """
    try:
        beta = np.linalg.solve(m, rhs)
        if np.all(np.isfinite(beta)):
            return float(beta[0])
    except np.linalg.LinAlgError:
        pass
    ridge = _RIDGE_FACTOR * np.trace(m) / m.shape[0]
    beta = np.linalg.solve(m + ridge * np.eye(m.shape[0]), rhs)
    return float(beta[0])


def loclin_eval(model: LocLinModel, covariate_point) -> float:
    """Estimated conditional mean of the response at ``covariate_point``.

    Per replicate, solves the product-kernel weighted least squares
    around the point and returns the replicate average of the local
    intercept. Raises :class:`NoLocalDataError` when the total kernel
    weight in any replicate is below 1e-12.
    """
    cov_idx = model.covariate_indices
    x0 = _finite_point(covariate_point, len(cov_idx), "covariate point")
    h = model.bandwidths * model.transform.scales
    estimates = np.empty(model.num_jitters)
    for r, rep in enumerate(model.replicates):
        y = model.response_values(rep)
        m = np.zeros((len(cov_idx) + 1, len(cov_idx) + 1))
        rhs = np.zeros(len(cov_idx) + 1)
        for start in range(0, rep.n, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk_m, chunk_rhs = _normal_equations(
                model.kernel, rep.rows[start:stop], y[start:stop], cov_idx, x0, h
            )
            m += chunk_m
            rhs += chunk_rhs
        total = m[0, 0]
        if not total > _MIN_TOTAL_WEIGHT:
            raise NoLocalDataError(
                f"total kernel weight {total} at point {x0.tolist()} (replicate {r})"
            )
        estimates[r] = _weighted_local_fit(m, rhs)
    return float(np.mean(estimates))


def _digest(rows: np.ndarray) -> str:
    return hashlib.sha256(rows.tobytes()).hexdigest()


def save_model(model: KdeModel | LocLinModel, path) -> None:
    """Write a fitted model as the inputs of its fit, for :func:`load_model`
    to refit.

    One JSON header line (type, kernel, noise, seed, bandwidths, schema,
    one SHA-256 per jitter replicate and, for a local linear model, its
    response settings) precedes the origin rows as one ``.npy`` block.
    Identical fits write identical bytes. Only what :func:`fit_kde` or
    :func:`fit_loclin` returned reloads as itself: a model assembled by
    hand reloads as its fit would have made it, or, when its replicates
    are not the fit's draws, fails as RNG-stream drift.
    """
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "type": "loclin" if isinstance(model, LocLinModel) else "kde",
        "kernel": model.kernel.name,
        "noise": [model.noise.theta, model.noise.nu, model.noise.dims],
        "seed": model.seed,
        "bandwidths": model.bandwidths.tolist(),
        "schema": [[c.name, c.kind] for c in model.schema],
        "replicate_sha256": [_digest(rep.rows) for rep in model.replicates],
    }
    if isinstance(model, LocLinModel):
        header["response_index"] = model.response_index
        header["jitter_response"] = model.jitter_response
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        np.lib.format.write_array(fh, model.origin.rows, allow_pickle=False)


# each header field's JSON shape: a type, [shape] for a list of any length,
# or (shape, ...) for a list of exactly those items
_HEADER_FIELDS = {"kernel": str, "noise": (float, int, int), "seed": int,
                  "bandwidths": [float], "schema": [(str, str)], "replicate_sha256": [str]}
_LOCLIN_FIELDS = {"response_index": int, "jitter_response": bool}


def _has_shape(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_has_shape(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return (isinstance(value, list) and len(value) == len(shape)
                and all(map(_has_shape, value, shape)))
    # JSON true and false must not pass as integers
    return isinstance(value, shape) and (shape is bool or not isinstance(value, bool))


def _read_rows(fh, path) -> np.ndarray:
    """Read the origin rows' ``.npy`` block at ``fh``'s position. Any dtype
    but float64, and any shape that claims more bytes than follow, is
    refused before anything is allocated for it."""
    start = fh.tell()
    try:
        np.lib.format.read_magic(fh)
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if dtype != np.float64 or math.prod(shape) * dtype.itemsize > left:
            raise ValueError(f"expected float64 rows in {left} bytes, got {dtype} {shape}")
        fh.seek(start)
        return np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as exc:
        raise InvalidParameterError(f"{path}: unreadable origin rows: {exc}") from None


def load_model(path) -> KdeModel | LocLinModel:
    """Rebuild a model written by :func:`save_model` by rerunning its fit.

    Checks each header field's JSON type, reads the origin rows without
    unpickling, and refits them with the stored bandwidths. Raises
    :class:`NumericalError` when the refitted replicates' digests differ
    from the stored ones: the noise RNG stream has drifted since.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except (ValueError, RecursionError):
            header = None  # not JSON: an older binary artifact, a CSV, a cut-off header
        if (not isinstance(header, dict) or header.get("format") != MODEL_FORMAT
                or header.get("version") != MODEL_VERSION
                or header.get("type") not in ("kde", "loclin")):
            raise InvalidParameterError(
                f"{path}: not a jitterkit model artifact of version {MODEL_VERSION}"
            )
        fields = _HEADER_FIELDS | (_LOCLIN_FIELDS if header["type"] == "loclin" else {})
        for name, shape in fields.items():
            if not _has_shape(header.get(name), shape):
                raise InvalidParameterError(f"{path}: model artifact field {name!r} is "
                                            f"missing or of the wrong type: {header.get(name)!r}")
        rows = _read_rows(fh, path)
    dataset = MixedDataset(tuple(ColumnSchema(*column) for column in header["schema"]), rows)
    fit = dict(spec=NoiseSpec(*header["noise"]), kernel=Kernel(header["kernel"]),
               num_jitters=len(header["replicate_sha256"]), seed=header["seed"],
               bandwidth=header["bandwidths"])
    if header["type"] == "loclin":
        model = fit_loclin(dataset, header["response_index"],
                           jitter_response=header["jitter_response"], **fit)
    else:
        model = fit_kde(dataset, **fit)
    if [_digest(rep.rows) for rep in model.replicates] != header["replicate_sha256"]:
        raise NumericalError(
            f"{path}: the refitted jitter replicates do not match the artifact's SHA-256 "
            "digests: the noise RNG stream has drifted since it was written; refit the model"
        )
    return model
