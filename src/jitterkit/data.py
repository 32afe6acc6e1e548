"""Datasets with typed columns: ingestion, dummy coding, jittering, scaling.

Columns are one of three kinds:

* ``discrete_ordered`` -- integer-valued with a natural ordering; these
  are the columns that get jittered,
* ``continuous`` -- real-valued, never touched by jittering,
* ``categorical`` -- unordered labels, stored label-encoded until
  ``dummy_code`` replaces them with binary indicator columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumnError,
    IngestionError,
    InsufficientDataError,
    InvalidParameterError,
    SchemaError,
)
from .noise import NoiseSpec, noise_stream, sample_noise

COLUMN_KINDS = ("discrete_ordered", "continuous", "categorical")


@dataclass(frozen=True)
class ColumnSchema:
    """Name and kind of one column.

    ``levels`` holds the observed labels of a categorical column in
    lexicographic order (so dummy coding and CSV round trips are
    deterministic); it is None for the other kinds.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for column {self.name!r}")
        if self.levels is not None and self.kind != "categorical":
            raise SchemaError(f"levels only apply to categorical columns ({self.name!r})")


@dataclass(frozen=True, eq=False)
class MixedDataset:
    """Immutable typed dataset: n rows by (p + q) numeric columns.

    Discrete columns hold integer-valued floats; categorical columns hold
    label codes (indices into the schema's ``levels``). Missing values
    are rejected at construction. ``rows`` is a read-only, column-major
    copy of the given rows, so each column is one contiguous vector.
    """

    schema: tuple[ColumnSchema, ...]
    rows: np.ndarray

    def __post_init__(self):
        schema = tuple(self.schema)
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        rows = np.array(self.rows, dtype=float, order="F")
        if rows.ndim != 2 or rows.shape[1] != len(schema):
            raise SchemaError(
                f"rows must be a 2-d matrix with {len(schema)} columns, got shape {rows.shape}"
            )
        if not np.all(np.isfinite(rows)):
            i, j = np.argwhere(~np.isfinite(rows))[0]
            raise IngestionError(
                f"missing or non-finite value at row {i + 1}, column {schema[j].name!r}"
            )
        for j, col in enumerate(schema):
            if col.kind == "continuous":
                continue
            vals = rows[:, j]
            bad = np.nonzero(vals != np.round(vals))[0]
            if bad.size:
                raise IngestionError(
                    f"non-integer value {vals[bad[0]]!r} at row {bad[0] + 1}, "
                    f"column {col.name!r} ({col.kind})"
                )
            if col.kind == "categorical" and col.levels is not None and vals.size:
                if vals.min() < 0 or vals.max() >= len(col.levels):
                    raise IngestionError(
                        f"categorical code out of range in column {col.name!r}"
                    )
        rows.setflags(write=False)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def column_index(self, name: str) -> int:
        for j, col in enumerate(self.schema):
            if col.name == name:
                return j
        raise SchemaError(f"no column named {name!r}")

    def indices_of_kind(self, kind: str) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.schema) if c.kind == kind)


def read_only(values, order: str) -> np.ndarray:
    """``values`` as a read-only float array, contiguous in ``order`` ("C"
    or "F"), that no caller can write to: an array that already is one,
    over memory that takes no writes, is kept; anything else is copied, so
    an array its caller may write to later is never aliased or frozen."""
    array = np.asarray(values, dtype=float)
    base = array.base
    if (array.flags.writeable or (isinstance(base, np.ndarray) and base.flags.writeable)
            or not array.flags[f"{order}_CONTIGUOUS"]):
        array = np.array(array, order=order)
        array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class JitteredDataset:
    """One jitter replicate: discrete columns shifted by sampled noise.

    Continuous (and categorical) columns are bit-identical to the origin,
    which construction checks; each jittered entry differs from its
    original by less than gamma2. ``rows`` is read-only and column-major
    (Fortran order), so a column, or a run of rows of one, is a
    contiguous slice. Rows that no one can write to (see
    :func:`read_only`), such as :func:`jitter`'s own buffer, are kept;
    others are copied, so a caller's later writes cannot reach them.
    """

    origin: MixedDataset
    noise: NoiseSpec
    seed: int
    replicate_index: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = read_only(self.rows, "F")
        if rows.shape != self.origin.rows.shape:
            raise SchemaError(
                f"jittered rows shape {rows.shape} != origin {self.origin.rows.shape}"
            )
        for j, col in enumerate(self.origin.schema):
            if col.kind != "discrete_ordered" and not np.array_equal(
                rows[:, j], self.origin.rows[:, j]
            ):
                raise SchemaError(f"jittered rows change the {col.kind} column {col.name!r}")
        object.__setattr__(self, "rows", rows)

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self.origin.schema

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def _discrete_indices(dataset: MixedDataset, spec: NoiseSpec) -> tuple[int, ...]:
    """The columns :func:`jitter` shifts: every discrete_ordered one, of
    which there must be ``spec.dims``."""
    disc = dataset.indices_of_kind("discrete_ordered")
    if len(disc) != spec.dims:
        raise SchemaError(
            f"spec.dims = {spec.dims} but dataset has {len(disc)} discrete_ordered columns"
        )
    return disc


def check_jitter(dataset: MixedDataset, spec: NoiseSpec, seed: int) -> None:
    """Raise what ``jitter(dataset, spec, seed)`` raises, drawing nothing."""
    if _discrete_indices(dataset, spec):
        noise_stream(seed)  # the check of the seed that sample_noise makes
    int(seed)  # what the replicate stores


def jitter(
    dataset: MixedDataset,
    spec: NoiseSpec,
    seed: int,
    replicate_index: int = 0,
) -> JitteredDataset:
    """Add one replicate of noise to the discrete columns.

    ``spec.dims`` must equal the number of discrete_ordered columns. The
    noise comes from the stream keyed by ``(seed, replicate_index)``, so
    the result is deterministic and replicates are mutually independent.
    """
    disc = _discrete_indices(dataset, spec)
    rows = np.array(dataset.rows, dtype=float, order="F")
    if disc:
        eps = sample_noise(spec, seed, dataset.n, replicate_index)
        rows[:, disc] += eps
    rows.setflags(write=False)  # so the replicate keeps this buffer, not a copy
    return JitteredDataset(
        origin=dataset,
        noise=spec,
        seed=int(seed),
        replicate_index=int(replicate_index),
        rows=rows,
    )


def dummy_code(dataset: MixedDataset, column_name: str) -> MixedDataset:
    """Replace a categorical column by one binary indicator per level.

    New columns are named ``{name}={level}`` in lexicographic level order
    and typed discrete_ordered; each row has exactly one 1 in the block.
    """
    j = dataset.column_index(column_name)
    col = dataset.schema[j]
    if col.kind != "categorical":
        raise SchemaError(f"column {column_name!r} is {col.kind}, not categorical")
    levels = col.levels if col.levels is not None else ()
    if len(levels) < 2:
        raise DegenerateColumnError(
            f"categorical column {column_name!r} has {len(levels)} observed level(s); need >= 2"
        )
    codes = dataset.rows[:, j].astype(int)
    block = np.zeros((dataset.n, len(levels)))
    if dataset.n:
        block[np.arange(dataset.n), codes] = 1.0
    new_schema = (
        dataset.schema[:j]
        + tuple(ColumnSchema(f"{column_name}={lev}", "discrete_ordered") for lev in levels)
        + dataset.schema[j + 1 :]
    )
    new_rows = np.hstack([dataset.rows[:, :j], block, dataset.rows[:, j + 1 :]])
    return MixedDataset(schema=new_schema, rows=new_rows)


@dataclass(frozen=True, eq=False)
class Standardization:
    """Per-column affine transform to zero mean and unit sample variance."""

    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        scales = np.asarray(self.scales, dtype=float)
        if means.shape != scales.shape or means.ndim != 1:
            raise InvalidParameterError("means and scales must be 1-d arrays of equal length")
        if np.any(scales <= 0):
            raise DegenerateColumnError("all scales must be positive")
        means.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def from_rows(cls, rows: np.ndarray, names: tuple[str, ...] | None = None) -> "Standardization":
        rows = np.asarray(rows, dtype=float)
        if rows.shape[0] < 2:
            raise InsufficientDataError(
                f"standardization needs n >= 2 rows, got {rows.shape[0]}"
            )
        means = rows.mean(axis=0)
        scales = rows.std(axis=0, ddof=1)
        if np.any(scales == 0):
            j = int(np.nonzero(scales == 0)[0][0])
            label = names[j] if names else f"#{j}"
            raise DegenerateColumnError(f"column {label} has zero sample variance")
        return cls(means=means, scales=scales)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        return (np.asarray(rows, dtype=float) - self.means) / self.scales

    def invert(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=float) * self.scales + self.means


def standardize(dataset: MixedDataset) -> tuple[MixedDataset, Standardization]:
    """Center and scale every column to unit sample variance (ddof=1).

    The returned schema marks all columns continuous, since centered and
    scaled values are no longer integers. The transform record inverts
    the map exactly.
    """
    rows = np.ascontiguousarray(dataset.rows)  # column sums round by layout, as in a KDE fit
    transform = Standardization.from_rows(rows, dataset.column_names)
    schema = tuple(ColumnSchema(c.name, "continuous") for c in dataset.schema)
    return MixedDataset(schema=schema, rows=transform.apply(rows)), transform


def _format_column(values: list[float], col: ColumnSchema, jittered: bool) -> list[str]:
    """The CSV cells of one column: a categorical code as its label, a value
    of an unjittered discrete column (an integer) as an int, any other value
    by ``repr``, so it reads back as the same float."""
    if col.kind == "categorical" and col.levels is not None:
        return [col.levels[int(v)] for v in values]
    if col.kind == "discrete_ordered" and not jittered:
        return [str(int(v)) for v in values]
    return list(map(repr, values))


def _parse_column(path, tokens: tuple[str, ...], col: ColumnSchema) -> np.ndarray:
    """One numeric column's floats, parsed in one pass and checked at once.
    Only a column that fails is walked cell by cell, to name the first bad
    cell's row."""
    discrete = col.kind == "discrete_ordered"
    try:
        vals = np.fromiter(map(float, tokens), float, len(tokens))
        if not discrete or np.all(np.isfinite(vals) & (np.trunc(vals) == vals)):
            return vals
    except ValueError:
        pass
    for i, tok in enumerate(tokens):
        try:
            value = float(tok)
        except ValueError:
            raise IngestionError(
                f"{path}: cannot parse {tok!r} at row {i + 1}, column {col.name!r}"
            ) from None
        if discrete and not value.is_integer():
            raise IngestionError(
                f"{path}: non-integer value {tok!r} at row {i + 1}, "
                f"column {col.name!r} (discrete_ordered)"
            )


def load_csv(path, schema: tuple[ColumnSchema, ...] | list[ColumnSchema]) -> MixedDataset:
    """Read a UTF-8 CSV with a header that matches the schema names in order.

    Discrete columns must be integer-valued, missing cells are rejected,
    and categorical columns are label-encoded against the lexicographically
    sorted set of observed values (recorded in the returned schema).

    The file is read column by column: each numeric column is parsed by one
    ``map(float, ...)`` and checked at once, and a bad cell raises an
    :class:`~jitterkit.errors.IngestionError` naming its row and column,
    the first in column order and then row order.
    """
    schema = tuple(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file, expected a header row")
        if header != [c.name for c in schema]:
            raise IngestionError(
                f"{path}: header {header} does not match schema names "
                f"{[c.name for c in schema]}"
            )
        raw = list(reader)

    ncol = len(schema)
    for i, row in enumerate(raw):
        if len(row) != ncol:
            raise IngestionError(f"{path}: row {i + 1} has {len(row)} cells, expected {ncol}")

    out_schema = []
    columns = []
    for col, tokens in zip(schema, zip(*raw) if raw else [()] * ncol):
        if "" in tokens:
            raise IngestionError(
                f"{path}: missing value at row {tokens.index('') + 1}, column {col.name!r}"
            )
        if col.kind == "categorical":
            levels = tuple(sorted(set(tokens)))
            code = {lev: k for k, lev in enumerate(levels)}
            columns.append(np.fromiter(map(code.__getitem__, tokens), float, len(tokens)))
            out_schema.append(ColumnSchema(col.name, "categorical", levels))
            continue
        columns.append(_parse_column(path, tokens, col))
        out_schema.append(col)

    rows = np.column_stack(columns) if raw else np.empty((0, ncol))
    return MixedDataset(schema=tuple(out_schema), rows=rows)


def write_csv(dataset: MixedDataset | JitteredDataset, path) -> None:
    """Write a dataset back to CSV in the same dialect ``load_csv`` reads.

    Floats are written with ``repr`` so a round trip is value-identical;
    categorical codes are written as their original labels. Jittered
    datasets write their (non-integer) discrete values verbatim. Each
    column is formatted once, from its ``tolist()``, and the rows go out
    in one ``writerows``: the bytes are those of writing cell by cell.
    """
    jittered = isinstance(dataset, JitteredDataset)
    columns = [_format_column(dataset.rows[:, j].tolist(), col, jittered)
               for j, col in enumerate(dataset.schema)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema])
        # a dataset of no columns still writes one (empty) line per row
        writer.writerows(zip(*columns) if columns else [()] * dataset.n)
