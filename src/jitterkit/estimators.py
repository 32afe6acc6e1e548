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
serves only the analytic oracle and the noise checks. The Gaussian
kernel's CDF is ``scipy.special.ndtr``, imported on its first call, so
fitting, saving, loading and point evaluation load no scipy module.

Jittering moves only the discrete columns, so a model holds its dataset
once, as ``origin``, and the data it smooths as one read-only,
C-contiguous array per column: the origin's own column, a view, for a
column that is not ``discrete_ordered`` (or that no evaluation reads
jittered: a local linear model's unjittered response), and an (R, n)
array whose row r is replicate r for a jittered one. A fit fills those
one replicate at a time, drawing replicate r with
:func:`~jitterkit.data.jitter`, copying its jittered columns into row r
and dropping it, so no more than one full replicate is ever alive.

A jitter replicate belongs to its dataset, noise, seed and index, not to
an estimator, so every fit on one ``MixedDataset`` object takes its
(R, n) arrays from one memo, ``_DRAWS``, keyed on the dataset and on
(noise, seed, R, column), and draws only what the memo lacks. Three fits
of one dataset with one noise, seed and R hold the same arrays. The memo
also holds, per dataset and column, the stable ``argsort`` of an
unjittered column that a compact-kernel model orders its rows by (see
below), computed at fit time and shared by every model of the dataset.
It holds datasets and arrays weakly, so it keeps nothing alive that no
model holds.

Every kernel sum (``kde_eval``, ``loclin_eval`` and a KDE's conditional
functionals) goes through :func:`product_weights`. It walks the rows in
fixed chunks of ``_CHUNK_ROWS``, every replicate within each chunk, and
builds the product-kernel weights one column at a time on contiguous
column slices in buffers reused from chunk to chunk, so working memory is
bounded independently of n and no (n, d) temporary is made. The kernel
factor of an unjittered column is the same in every replicate: it is
computed once per chunk and combined with each replicate's jittered
factors in column order, which keeps every weight bit-identical to one
built from that replicate alone. Each offset is multiplied by the
reciprocal of its bandwidth, computed once per sum, so no pass divides,
unless the bandwidth is subnormal and its reciprocal overflows.

The weights leave out the kernel's normalising constant,
(2 pi)^(-k/2) or 0.75^k (:meth:`Kernel.constant`), and each sum applies
it once: ``kde_eval`` to its per-replicate totals, a KDE slice to its
covariate weights, and ``loclin_eval``, whose solve it cancels from, only
to the total weight it checks against ``_MIN_TOTAL_WEIGHT``, so
:class:`NoLocalDataError` fires where the normalised weights say.

The Epanechnikov kernel vanishes outside one bandwidth, so a row whose
unjittered column lies farther than ``h`` from the point weighs exactly
0 in every replicate. An Epanechnikov model orders the rows by its first
unjittered smoothed column, and a sum that evaluates that column walks
only its window: the rows within ``h`` of the point there, found by
binary search and walked in that order, in chunks of ``_CHUNK_ROWS``.
It is the far-point pruning of tree-based kernel sums on one sorted
axis. The weights stay bit-identical; only ``kde_eval`` and
``loclin_eval`` add them in another order, so their values move by
rounding alone. A Gaussian model, and a sum that does not evaluate the
ordered column, walk every row.

A Gaussian weight is ``exp(x) - e^-700`` for its exponent
``x = -0.5 * sum u_j^2`` clamped at -700 (see ``_exp``): the cutoff of a
truncated and shifted potential. Rows more than about 37 bandwidths from
the point have exponents below -700, and for them numpy's ``exp`` leaves
its vectorised loop for a much slower underflow path, so a few far rows
scattered through an array multiplied the time of a whole evaluation.
The clamp keeps every lane in the vectorised loop, with no branch on the
data, and the shift makes the weight exactly 0.0 at and below the floor
and continuous there. A weight above about 1e-288 keeps every bit, since
e^-700 is below half its ulp; any other moves by at most e^-700, so with
the constant, by at most ``e^-700 (2 pi)^(-k/2)``, about 1e-305, before
normalisation, which bounds the change to any result.

A fit is deterministic given its inputs, so a saved model holds those
inputs (the origin rows, noise, seed, kernel and bandwidths) and a
digest of each replicate's rows, not the replicates: ``load_model``
refits.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import sys
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import _scipy
from .data import (
    ColumnSchema,
    JitteredDataset,
    MixedDataset,
    Standardization,
    check_jitter,
    jitter,
    read_only,
)
from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    NoLocalDataError,
    NumericalError,
    SchemaError,
)
from .noise import NoiseSpec, _whole

_KERNEL_NAMES = ("gaussian", "epanechnikov")
_RIDGE_FACTOR = 1e-8
_MIN_TOTAL_WEIGHT = 1e-12
_CHUNK_ROWS = 32_768  # rows per evaluation chunk: ~256 KB per float column
_EXP_FLOOR = -700.0  # Gaussian exp arguments at or below it give a weight of exactly 0
_EXP_AT_FLOOR = 9.85967654375977e-305  # e^-700, which numpy's exp gives at the floor

MODEL_FORMAT = "jitterkit-model"
MODEL_VERSION = 2


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x) - e^-700`` in place, with ``x`` clamped at ``_EXP_FLOOR``
    first: an argument at or below the floor gives an exact 0.0, and no
    lane takes numpy's underflow slow path. Three passes and no branch."""
    np.maximum(x, _EXP_FLOOR, out=x)
    np.exp(x, out=x)
    x -= _EXP_AT_FLOOR
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

    def cdf(self, u: np.ndarray) -> np.ndarray:
        """Antiderivative ``int_{-inf}^u K(t) dt``."""
        u = np.asarray(u, dtype=float)
        if self.name == "gaussian":
            return _scipy.ndtr(u)
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

    def constant(self, k: int) -> float:
        """The normalising constant of the k-variate product kernel, which
        :func:`product_weights` leaves out of its weights: (2 pi)^(-k/2)
        (Gaussian) or 0.75^k (Epanechnikov)."""
        return (2.0 * math.pi) ** (-0.5 * k) if self.name == "gaussian" else 0.75**k


GAUSSIAN = Kernel("gaussian")
EPANECHNIKOV = Kernel("epanechnikov")


def get_kernel(name: str) -> Kernel:
    return Kernel(name)


def _kernel_factor(kernel: Kernel, column: np.ndarray, p: float, scaling,
                   offset: np.ndarray, out: np.ndarray) -> None:
    """One column's factor of the product kernel: writes the offsets
    ``column - p`` into ``offset`` and, for ``u = op(offset, operand)``
    with ``(op, operand) = scaling`` (see :func:`product_weights`), u^2
    (Gaussian) or ``max(1 - u^2, 0)`` (Epanechnikov) into ``out``."""
    op, operand = scaling
    # a huge coordinate squares to u^2 = inf, whose weight is exactly 0
    with np.errstate(over="ignore"):
        np.subtract(column, p, out=offset)
        op(offset, operand, out=out)
        np.square(out, out=out)
    if kernel.name != "gaussian":
        # 1 - u^2 clipped at 0 is exactly 0 outside the support |u| <= 1
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)


def _window_rows(model: _JitteredModel, columns, point, h):
    """The rows of a compact-kernel sum's window, as consecutive pieces of
    at most ``_CHUNK_ROWS`` row indices of the model's order; None when the
    sum walks every row.

    A window needs the model's ordered column (see :class:`_JitteredModel`)
    among ``columns``. It holds the rows whose value there lies in
    ``[p - h, p + h]``, found by binary search over the order. A row
    outside it has ``|u| >= 1`` in that column, and so a weight of exactly
    0. The reach is widened by a few ulps, so that rounding ``p +- h``
    drops no row of nonzero weight.
    """
    if model.order is None or model.order[0] not in columns:
        return None
    c, order = model.order
    j = list(columns).index(c)
    reach = h[j] * (1.0 + 4.0 * sys.float_info.epsilon)
    value = model.columns[c].__getitem__
    lo = bisect.bisect_left(order, point[j] - reach, key=value)
    hi = bisect.bisect_right(order, point[j] + reach, lo=lo, key=value)
    return (order[start:min(start + _CHUNK_ROWS, hi)] for start in range(lo, hi, _CHUNK_ROWS))


def product_weights(model: _JitteredModel, columns, point, h):
    """Yield ``(r, rows, dx, w)`` for each chunk of at most ``_CHUNK_ROWS``
    rows and, within it, each replicate ``r`` in turn: the chunk's
    ``rows``, the offsets ``dx[j] = column_j[rows] - point[j]`` of each of
    ``columns`` in replicate ``r`` as one (k, m) array, and the
    product-kernel weights ``w = prod_j K(dx[j] / h[j])`` without the
    kernel's constant (:meth:`Kernel.constant`), which the caller applies
    once per sum: ``exp(-0.5 sum_j u_j^2)`` (Gaussian, through ``_exp``)
    or ``prod_j max(1 - u_j^2, 0)`` (Epanechnikov), all 1 when
    ``columns`` is empty. ``u_j`` is ``dx[j]`` times the reciprocal of
    ``h[j]``, computed once per sum, or ``dx[j] / h[j]`` for a subnormal
    ``h[j]``, whose reciprocal overflows.

    The chunks are consecutive slices of every row, except for a compact
    kernel whose model orders a column among ``columns``: then they are
    index arrays that cover only the window of :func:`_window_rows`, and
    every row they leave out has a weight of exactly 0.

    A column that :func:`~jitterkit.data.jitter` leaves untouched is held
    once, as an n-vector, so its offsets and factor are computed once per
    chunk; with no jittered column the weights, too, are computed once per
    chunk. The factors combine in column order, ``+=`` of u^2 then
    ``*= -0.5`` and one ``_exp`` (Gaussian) or ``*=`` (Epanechnikov), so
    each replicate's weights are bit-identical to ones built from its own
    rows alone.
    ``dx`` and ``w`` are buffers that the next yield overwrites: callers
    read them and write into neither.
    """
    kernel, data = model.kernel, model.columns
    k, n = len(columns), model.origin.n
    fresh = [data[c].ndim == 2 for c in columns]  # jittered: one row per replicate
    combine = np.add if kernel.name == "gaussian" else np.multiply
    with np.errstate(divide="ignore", over="ignore"):
        inv_h = 1.0 / np.asarray(h, dtype=float)
    # a subnormal bandwidth has no finite reciprocal: its offsets divide
    scalings = [(np.multiply, float(inv)) if math.isfinite(inv) else (np.divide, float(hj))
                for inv, hj in zip(inv_h, h)]
    chunks = _window_rows(model, columns, point, h)
    if chunks is None:
        chunks = (slice(start, min(start + _CHUNK_ROWS, n)) for start in range(0, n, _CHUNK_ROWS))
    w = np.empty(0)
    for rows in chunks:
        m = rows.stop - rows.start if isinstance(rows, slice) else len(rows)
        # a chunk of another size gets buffers of its own, so that dx stays
        # one contiguous (k, m) array
        if m != len(w):
            dx, factors, w = np.empty((k, m)), np.empty((k, m)), np.empty(m)
        for j, c in enumerate(columns):
            if not fresh[j]:
                _kernel_factor(kernel, data[c][rows], point[j], scalings[j], dx[j], factors[j])
        for r in range(model.num_jitters):
            if r == 0 or any(fresh):  # else replicate 0's weights hold for every replicate
                # the first column's factor is the accumulator
                for j, c in enumerate(columns):
                    if fresh[j]:
                        _kernel_factor(kernel, data[c][r, rows], point[j], scalings[j], dx[j],
                                       w if j == 0 else factors[j])
                    elif j == 0:
                        np.copyto(w, factors[0])
                    if j > 0:
                        combine(w, factors[j], out=w)
                if k == 0:
                    w.fill(1.0)
                elif kernel.name == "gaussian":
                    w *= -0.5
                    _exp(w)
            yield r, rows, dx, w


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
    the replicates were drawn with, the standardization and bandwidths of
    the smoothed columns, and the data of ``num_jitters`` jitter
    replicates of ``origin``.

    A model is given ``jittered``, one (R, n) array per column of
    ``jittered_indices`` in column order, row r being replicate r: every
    ``discrete_ordered`` column but one that no evaluation reads jittered.
    Every reader indexes ``columns``: one read-only, C-contiguous array
    per column of the origin, that (R, n) array for a held column and
    else the origin's own column, a view, the same in every replicate.
    :func:`fit_kde` and :func:`fit_loclin` take the held arrays from the
    memo of their dataset's draws, drawing one replicate at a time on a
    miss, so models fitted from one dataset with one noise, seed and R
    share them; :meth:`from_replicates` packs replicates drawn by hand,
    and :attr:`replicates` rebuilds them on demand.

    ``transform`` covers the smoothed columns (``smoothed_indices``), and
    ``bandwidths`` are on the standardized scale, one finite positive
    value per smoothed column. Models are immutable and safe for
    concurrent evaluation.

    A compact-kernel model also holds ``order``: its first unjittered
    smoothed column ``c`` and the stable ``argsort`` of that column, as
    ``(c, argsort)``, from the same memo, for :func:`product_weights` to
    find the rows within one bandwidth by binary search. It is None for a
    Gaussian model and for one whose smoothed columns are all jittered.
    """

    kernel: Kernel
    noise: NoiseSpec
    seed: int
    bandwidths: np.ndarray
    transform: Standardization
    origin: MixedDataset
    num_jitters: int
    jittered: tuple[np.ndarray, ...] = field(repr=False)
    columns: tuple[np.ndarray, ...] = field(init=False, repr=False)
    order: tuple[int, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_jitters < 1:
            raise InvalidParameterError("model needs at least one jitter replicate")
        indices = self.jittered_indices
        if len(self.jittered) != len(indices):
            raise SchemaError(f"model holds {len(self.jittered)} jittered columns, "
                              f"but its origin has {len(indices)}")
        columns = list(self.origin.rows.T)
        for j, col in zip(indices, self.jittered):
            col = columns[j] = read_only(col, "C")
            if col.shape != (self.num_jitters, self.origin.n):
                raise SchemaError(f"column {self.schema[j].name!r} holds shape {col.shape}, "
                                  f"expected {(self.num_jitters, self.origin.n)}")
        object.__setattr__(self, "jittered", tuple(columns[j] for j in indices))
        object.__setattr__(self, "columns", tuple(columns))
        ordered = [j for j in self.smoothed_indices if columns[j].ndim == 1]
        compact = self.kernel.name != "gaussian"
        object.__setattr__(self, "order", (ordered[0], _column_order(self.origin, ordered[0]))
                           if compact and ordered else None)
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

    @classmethod
    def from_replicates(cls, replicates, **fields):
        """A model over jitter replicates drawn by hand from one dataset;
        ``fields`` are the model's others, ``origin``, ``num_jitters`` and
        ``jittered`` aside."""
        replicates = tuple(replicates)
        if not replicates:
            raise InvalidParameterError("model needs at least one jitter replicate")
        origin = replicates[0].origin
        if any(rep.origin is not origin for rep in replicates):
            raise InvalidParameterError("every jitter replicate must be drawn from one dataset")
        held = _held_indices(origin, fields.get("response_index"),
                             fields.get("jitter_response", False))
        jittered = tuple(np.stack([rep.rows[:, j] for rep in replicates]) for j in held)
        return cls(origin=origin, num_jitters=len(replicates), jittered=jittered, **fields)

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self.origin.schema

    @property
    def effective_bandwidths(self) -> np.ndarray:
        """Per smoothed column, the bandwidth on original units: b_j * scale_j."""
        return self.bandwidths * self.transform.scales

    @property
    def smoothed_indices(self) -> tuple[int, ...]:
        """The columns the kernel smooths: all of them, unless a subclass says."""
        return tuple(range(len(self.schema)))

    @property
    def jittered_indices(self) -> tuple[int, ...]:
        """The columns held as (R, n) arrays: every ``discrete_ordered``
        one, unless a subclass says."""
        return _held_indices(self.origin)

    def _replicate_rows(self, r: int) -> np.ndarray:
        """Replicate ``r``'s rows, rebuilt as one C-order (n, d) array. A
        jittered column the model does not hold is drawn again with
        :func:`~jitterkit.data.jitter`."""
        rows = np.empty((self.origin.n, len(self.columns)))
        for j, col in enumerate(self.columns):
            rows[:, j] = col[r] if col.ndim == 2 else col
        dropped = [j for j in self.origin.indices_of_kind("discrete_ordered")
                   if j not in self.jittered_indices]
        if dropped:
            rows[:, dropped] = jitter(self.origin, self.noise, self.seed, r).rows[:, dropped]
        return rows

    @property
    def replicates(self) -> tuple[JitteredDataset, ...]:
        """The jitter replicates, rebuilt from ``columns``; no evaluation
        reads them."""
        return tuple(JitteredDataset(self.origin, self.noise, self.seed, r,
                                     self._replicate_rows(r)) for r in range(self.num_jitters))


def _standardize(rows: np.ndarray, names: tuple[str, ...],
                 bandwidth) -> tuple[Standardization, np.ndarray]:
    """The standardization of ``rows`` and their bandwidths: the
    normal-reference ones unless ``bandwidth`` overrides them (a scalar for
    all columns, or a sequence with one per column; stored verbatim)."""
    transform = Standardization.from_rows(rows, names)
    if bandwidth is None:
        return transform, select_bandwidth(rows)
    if np.ndim(bandwidth) == 0:
        return transform, np.full(len(names), float(bandwidth))
    return transform, np.asarray(bandwidth, dtype=float)


def _held_indices(origin: MixedDataset, response_index: int | None = None,
                  jitter_response: bool = False) -> tuple[int, ...]:
    """The columns a model holds per replicate: every ``discrete_ordered``
    one but a local linear model's response when it is not jittered, whose
    replicates no evaluation reads."""
    return tuple(j for j in origin.indices_of_kind("discrete_ordered")
                 if j != response_index or jitter_response)


# The jittered (R, n) arrays of every fit, per dataset and then per
# (noise, seed, R, column), and the orders of its unjittered columns, per
# ("order", column). Weak both ways: an entry lives only as long as its
# dataset, and an array only as long as some model holds it.
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _column_order(dataset: MixedDataset, j: int) -> np.ndarray:
    """The stable ``argsort`` of ``dataset``'s column ``j``, read-only: the
    memo's where it holds it, else computed, and then held. A race
    computes it twice, with equal results."""
    draws = _DRAWS.setdefault(dataset, weakref.WeakValueDictionary())
    order = draws.get(("order", j))
    if order is None:
        order = np.argsort(dataset.rows[:, j], kind="stable")
        order.setflags(write=False)
        draws[("order", j)] = order
    return order


def _jittered_columns(dataset: MixedDataset, spec: NoiseSpec, seed: int, num_jitters: int,
                      indices: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Replicates 0 to R - 1 of each of ``indices``, as read-only (R, n)
    arrays: the memo's where it holds them, else fresh draws, which it
    then holds.

    A miss draws the replicates one at a time and keeps only the missing
    columns; with no column asked for it draws nothing, but makes
    :func:`~jitterkit.data.jitter`'s checks of the noise and seed. Two fits
    that miss at once each draw, and the memo keeps the later arrays,
    bit-identical to the earlier: a race repeats a draw and changes no
    result.
    """
    draws = _DRAWS.setdefault(dataset, weakref.WeakValueDictionary())
    try:
        # the seeds that name one noise stream are one key
        keys = [(spec, _whole(seed, "seed", 0), num_jitters, j) for j in indices]
    except InvalidParameterError:
        keys = [None] * len(indices)  # an invalid seed, which jitter refuses below
    columns = [draws.get(key) for key in keys]
    fresh = {i: np.empty((num_jitters, dataset.n)) for i, col in enumerate(columns) if col is None}
    if not indices:
        check_jitter(dataset, spec, seed)
    if not fresh:
        return tuple(columns)
    for r in range(num_jitters):
        rows = jitter(dataset, spec, seed, r).rows
        for i, col in fresh.items():
            col[r] = rows[:, indices[i]]
        del rows  # the next replicate is drawn with none alive
    for i, col in fresh.items():
        col.setflags(write=False)  # so the model keeps these arrays, not copies
        columns[i] = draws[keys[i]] = col
    return tuple(columns)


def _jittered_fit(
    dataset: MixedDataset, spec: NoiseSpec, kernel: Kernel, num_jitters: int, seed: int,
    bandwidth, response_index: int | None = None, jitter_response: bool = False,
) -> dict:
    """The fit steps both estimators share, returned as the base model's fields.

    Takes the held columns of ``num_jitters`` jitter replicates from
    :func:`_jittered_columns` and standardizes replicate 0's smoothed
    columns (every column but ``response_index``), rebuilt from the
    origin and row 0 of each held column.
    """
    if num_jitters < 1:
        raise InvalidParameterError(f"num_jitters must be >= 1, got {num_jitters}")
    categorical = [c.name for c in dataset.schema if c.kind == "categorical"]
    if categorical:
        raise SchemaError(f"categorical columns {categorical} must be dummy-coded before fitting")
    smoothed = [j for j in range(len(dataset.schema)) if j != response_index]
    indices = _held_indices(dataset, response_index, jitter_response)
    jittered = _jittered_columns(dataset, spec, seed, num_jitters, indices)
    # numpy sums each column in an order set by the array's layout, and so
    # the transform's last bits: replicate 0 is rebuilt in the F order that
    # jitter returns, and a KDE standardizes a C-order copy of it, a local
    # linear fit the F-order copy that selecting its covariates makes
    rows = np.array(dataset.rows, order="F")
    for j, col in zip(indices, jittered):
        rows[:, j] = col[0]
    rows = np.ascontiguousarray(rows) if response_index is None else rows[:, smoothed]
    transform, bandwidths = _standardize(
        rows, tuple(dataset.schema[j].name for j in smoothed), bandwidth)
    return dict(kernel=kernel, noise=spec, seed=int(seed), bandwidths=bandwidths,
                transform=transform, origin=dataset, num_jitters=num_jitters,
                jittered=jittered)


@dataclass(frozen=True, eq=False)
class KdeModel(_JitteredModel):
    """Fitted jittered kernel density estimator; it smooths every column.

    Its estimates divide by R * n times a product of effective bandwidths
    (all of them for a density, the response's and the held covariates'
    for a slice), so a model whose such products can overflow or
    underflow is refused: R * n times the product of the effective
    bandwidths >= 1 must be finite, and the product of those < 1 a
    positive normal float. Every product the estimates form lies between
    the two.
    """

    def __post_init__(self):
        super().__post_init__()
        with np.errstate(over="ignore"):
            h = self.effective_bandwidths.tolist()
        wide = self.num_jitters * self.origin.n * math.prod(x for x in h if x >= 1.0)
        narrow = math.prod(x for x in h if x < 1.0)
        if not (math.isfinite(wide) and narrow >= sys.float_info.min):
            raise InvalidParameterError(
                f"effective bandwidths {h} over R * n = {self.num_jitters * self.origin.n} "
                "rows overflow or underflow the density's normalization"
            )


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
    totals = np.zeros(model.num_jitters)
    for r, _, _, w in product_weights(model, range(d), point, h):
        totals[r] += w.sum()
    totals *= model.kernel.constant(d)
    return float(np.mean(totals / (model.origin.n * float(np.prod(h)))))


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

    @property
    def jittered_indices(self) -> tuple[int, ...]:
        """Every ``discrete_ordered`` column, but the response only when it
        is jittered."""
        return _held_indices(self.origin, self.response_index, self.jitter_response)

    def response_values(self, r: int) -> np.ndarray:
        """The response the fit regresses on in replicate ``r``: the
        replicate's own column when the model holds it jittered, else the
        origin's."""
        column = self.columns[self.response_index]
        return column[r] if column.ndim == 2 else column


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
    jitter_response = bool(jitter_response
                           and dataset.schema[response_index].kind == "discrete_ordered")
    return LocLinModel(
        response_index=int(response_index),
        jitter_response=jitter_response,
        **_jittered_fit(dataset, spec, kernel, num_jitters, seed, bandwidth, response_index,
                        jitter_response),
    )


def _normal_equations(
    dx: np.ndarray, w: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted normal equations ``(A'WA, A'Wy)`` of a local linear
    fit, where row i of ``A`` is ``(1, dx[:, i])``: the covariate offsets
    from the point, as :func:`product_weights` yields them."""
    k = len(dx)
    wdx = dx * w
    m = np.empty((k + 1, k + 1))
    m[0, 0] = w.sum()
    m[0, 1:] = m[1:, 0] = wdx.sum(axis=1)
    m[1:, 1:] = wdx @ dx.T
    wy = w * y
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
    k = len(cov_idx)
    x0 = _finite_point(covariate_point, k, "covariate point")
    h = model.effective_bandwidths
    ys = [model.response_values(r) for r in range(model.num_jitters)]
    ms = [np.zeros((k + 1, k + 1)) for _ in ys]
    rhss = [np.zeros(k + 1) for _ in ys]
    for r, rows, dx, w in product_weights(model, cov_idx, x0, h):
        chunk_m, chunk_rhs = _normal_equations(dx, w, ys[r][rows])
        ms[r] += chunk_m
        rhss[r] += chunk_rhs
    # the kernel's constant cancels in the solve, but not in the threshold
    constant = model.kernel.constant(k)
    estimates = np.empty(model.num_jitters)
    for r, (m, rhs) in enumerate(zip(ms, rhss)):
        total = m[0, 0] * constant
        if not total > _MIN_TOTAL_WEIGHT:
            raise NoLocalDataError(
                f"total kernel weight {total} at point {x0.tolist()} (replicate {r})"
            )
        estimates[r] = _weighted_local_fit(m, rhs)
    return float(np.mean(estimates))


def _digests(model: _JitteredModel) -> list[str]:
    """SHA-256 of each replicate's C-order rows, rebuilt one at a time."""
    return [hashlib.sha256(model._replicate_rows(r).tobytes()).hexdigest()
            for r in range(model.num_jitters)]


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
        "replicate_sha256": _digests(model),
    }
    if isinstance(model, LocLinModel):
        header["response_index"] = model.response_index
        header["jitter_response"] = model.jitter_response
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        np.lib.format.write_array(fh, np.ascontiguousarray(model.origin.rows), allow_pickle=False)


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
    if _digests(model) != header["replicate_sha256"]:
        raise NumericalError(
            f"{path}: the refitted jitter replicates do not match the artifact's SHA-256 "
            "digests: the noise RNG stream has drifted since it was written; refit the model"
        )
    return model
