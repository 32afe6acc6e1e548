"""Dataset ingestion, dummy coding, jittering, standardization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from jitterkit import (
    ColumnSchema,
    DegenerateColumnError,
    IngestionError,
    InsufficientDataError,
    JitteredDataset,
    MixedDataset,
    NoiseSpec,
    SchemaError,
    dummy_code,
    jitter,
    load_csv,
    standardize,
    write_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


ZX = (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous"))


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = _write(tmp_path / "d.csv", "z,x\n1,0.5\n2,1.5\n0,-0.25\n")
        ds = load_csv(p, ZX)
        assert ds.n == 3
        assert_array_equal(ds.rows, [[1, 0.5], [2, 1.5], [0, -0.25]])

    def test_non_integer_discrete_names_cell(self, tmp_path):
        p = _write(tmp_path / "d.csv", "z,x\n1,0.5\n2.5,1.5\n")
        with pytest.raises(IngestionError, match=r"row 2.*'z'"):
            load_csv(p, ZX)

    def test_missing_value(self, tmp_path):
        p = _write(tmp_path / "d.csv", "z,x\n1,0.5\n2,\n")
        with pytest.raises(IngestionError, match="missing"):
            load_csv(p, ZX)

    def test_header_mismatch(self, tmp_path):
        p = _write(tmp_path / "d.csv", "a,b\n1,0.5\n")
        with pytest.raises(IngestionError, match="header"):
            load_csv(p, ZX)

    def test_empty_file_with_header(self, tmp_path):
        p = _write(tmp_path / "d.csv", "z,x\n")
        ds = load_csv(p, ZX)
        assert ds.n == 0

    def test_categorical_levels_sorted(self, tmp_path):
        p = _write(tmp_path / "d.csv", "c\nb\na\nc\nb\n")
        ds = load_csv(p, (ColumnSchema("c", "categorical"),))
        assert ds.schema[0].levels == ("a", "b", "c")
        assert_array_equal(ds.rows[:, 0], [1, 0, 2, 1])

    def test_round_trip_value_identical(self, tmp_path):
        p = _write(
            tmp_path / "d.csv",
            "z,x,c\n3,0.1,red\n-2,1.4142135623730951,blue\n0,-7.25,red\n",
        )
        schema = ZX + (ColumnSchema("c", "categorical"),)
        ds1 = load_csv(p, schema)
        out = tmp_path / "out.csv"
        write_csv(ds1, out)
        ds2 = load_csv(out, schema)
        assert_array_equal(ds1.rows, ds2.rows)
        assert ds1.schema == ds2.schema

    def test_unparsable_token_names_cell(self, tmp_path):
        p = _write(tmp_path / "d.csv", "z,x\n1,0.5\n2,1.5\n0,abc\n")
        with pytest.raises(IngestionError, match=r"cannot parse 'abc' at row 3, column 'x'"):
            load_csv(p, ZX)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_discrete_names_row(self, tmp_path, token):
        p = _write(tmp_path / "d.csv", f"z,x\n1,0.5\n{token},1.5\n")
        with pytest.raises(IngestionError, match=rf"'{token}' at row 2, column 'z'"):
            load_csv(p, ZX)

    def test_first_bad_cell_in_column_order(self, tmp_path):
        # column z's non-integer in row 3 comes before column x's bad token in row 1
        p = _write(tmp_path / "d.csv", "z,x\n1,abc\n2,1.5\n2.5,0.0\n")
        with pytest.raises(IngestionError, match=r"non-integer value '2.5' at row 3, column 'z'"):
            load_csv(p, ZX)

    def test_quoted_label_round_trips(self, tmp_path):
        p = _write(tmp_path / "d.csv", 'c,x\n"a,b",0.5\nc,1.5\n"a,b",-2.0\n')
        schema = (ColumnSchema("c", "categorical"), ColumnSchema("x", "continuous"))
        ds1 = load_csv(p, schema)
        assert ds1.schema[0].levels == ("a,b", "c")
        out = tmp_path / "out.csv"
        write_csv(ds1, out)
        assert out.read_bytes().startswith(b'c,x\r\n"a,b",0.5\r\n')
        ds2 = load_csv(out, schema)
        assert_array_equal(ds1.rows, ds2.rows)
        assert ds1.schema == ds2.schema


def _mixed_with_labels(n=300, seed=31):
    rng = np.random.default_rng(seed)
    levels = ("a,b", "c", 'd"e')
    z = rng.integers(-3, 6, n)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, n)  # reprs of 5 to 20 digits
    rows = np.column_stack([z, x, rng.integers(0, 3, n)]).astype(float)
    schema = (ColumnSchema("z", "discrete_ordered"), ColumnSchema("x", "continuous"),
              ColumnSchema("g", "categorical", levels))
    return MixedDataset(schema, rows)


class TestWriteCsvBytes:
    """Pinned ``write_csv`` bytes of datasets that need every cell format:
    integers, float reprs of 5 to 20 digits and labels that need quoting.
    Each file reads back as the rows it was written from."""

    def test_mixed_dataset_bytes_pinned(self, tmp_path):
        ds = _mixed_with_labels()
        write_csv(ds, tmp_path / "m.csv")
        assert hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest() == (
            "76ed1b72c78bf0d237a54df38411299b41eefb29f140a47e2b59c79e359c653f")
        back = load_csv(tmp_path / "m.csv", [ColumnSchema(c.name, c.kind) for c in ds.schema])
        assert back.schema == ds.schema
        assert_array_equal(back.rows, ds.rows)

    def test_jittered_dataset_bytes_pinned(self, tmp_path):
        ds = _mixed_with_labels()
        jittered = jitter(ds, NoiseSpec(0.8, 5, dims=1), seed=7, replicate_index=2)
        write_csv(jittered, tmp_path / "j.csv")
        assert hashlib.sha256((tmp_path / "j.csv").read_bytes()).hexdigest() == (
            "57c942ae5c95e8e1922ae16169ee35e3159e69dad7fb2a0a8be945e633889276")
        schema = [ColumnSchema("z", "continuous"), ColumnSchema("x", "continuous"),
                  ColumnSchema("g", "categorical")]
        assert_array_equal(load_csv(tmp_path / "j.csv", schema).rows, jittered.rows)


class TestMixedDataset:
    def test_duplicate_names(self):
        with pytest.raises(SchemaError):
            MixedDataset((ColumnSchema("a", "continuous"), ColumnSchema("a", "continuous")),
                         np.zeros((2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(IngestionError):
            MixedDataset(ZX, np.array([[1.0, np.nan]]))

    def test_non_integer_discrete_rejected(self):
        with pytest.raises(IngestionError):
            MixedDataset(ZX, np.array([[1.5, 0.0]]))

    def test_rows_read_only(self):
        ds = MixedDataset(ZX, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 5.0

    def test_rows_column_major_own_copy(self):
        # each column is one contiguous vector, and the caller's array stays
        # the caller's: writable, and no longer read by the dataset
        rows = np.array([[1.0, 2.0], [0.0, -1.5], [3.0, 0.25]])
        ds = MixedDataset(ZX, rows)
        assert ds.rows.flags.f_contiguous and not ds.rows.flags.writeable
        assert not np.shares_memory(ds.rows, rows)
        assert rows.flags.writeable
        rows[0, 0] = np.nan
        assert_array_equal(ds.rows, [[1.0, 2.0], [0.0, -1.5], [3.0, 0.25]])


class TestDummyCode:
    def _dataset(self):
        schema = (ColumnSchema("x", "continuous"),
                  ColumnSchema("c", "categorical", ("a", "b", "c")))
        rows = np.array([[0.1, 1], [0.2, 0], [0.3, 2], [0.4, 1]], dtype=float)
        return MixedDataset(schema, rows)

    def test_one_hot_block(self):
        out = dummy_code(self._dataset(), "c")
        names = [c.name for c in out.schema]
        assert names == ["x", "c=a", "c=b", "c=c"]
        block = out.rows[:, 1:]
        assert set(np.unique(block)) <= {0.0, 1.0}
        assert_array_equal(block.sum(axis=1), np.ones(4))
        assert_array_equal(block[0], [0, 1, 0])

    def test_two_level_complementary(self):
        schema = (ColumnSchema("c", "categorical", ("n", "y")),)
        ds = MixedDataset(schema, np.array([[0.0], [1.0], [0.0]]))
        out = dummy_code(ds, "c")
        assert_array_equal(out.rows[:, 0] + out.rows[:, 1], np.ones(3))

    def test_row_count_preserved(self):
        assert dummy_code(self._dataset(), "c").n == 4

    def test_single_level_degenerate(self):
        schema = (ColumnSchema("c", "categorical", ("only",)),)
        ds = MixedDataset(schema, np.zeros((3, 1)))
        with pytest.raises(DegenerateColumnError):
            dummy_code(ds, "c")

    def test_wrong_kind(self):
        ds = MixedDataset(ZX, np.array([[1.0, 2.0]]))
        with pytest.raises(SchemaError):
            dummy_code(ds, "x")


class TestJitter:
    def _dataset(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 5, n).astype(float)
        x = rng.normal(size=n)
        return MixedDataset(ZX, np.column_stack([z, x]))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 300), st.integers(0, 2**32), st.floats(0.0, 0.95),
           st.integers(1, 8), st.integers(0, 5))
    def test_support_bound(self, n, seed, theta, nu, replicate_index):
        # every jittered entry lies within gamma2 of its origin
        ds = self._dataset(n, seed)
        spec = NoiseSpec(theta=theta, nu=nu, dims=1)
        jd = jitter(ds, spec, seed=seed, replicate_index=replicate_index)
        assert np.all(np.abs(jd.rows[:, 0] - ds.rows[:, 0]) < spec.gamma2)

    def test_theta_zero_rounding_recovers(self):
        ds = self._dataset()
        jd = jitter(ds, NoiseSpec(theta=0.0, nu=1, dims=1), seed=2)
        assert_array_equal(np.round(jd.rows[:, 0]), ds.rows[:, 0])

    def test_continuous_untouched_bitwise(self):
        ds = self._dataset()
        jd = jitter(ds, NoiseSpec(theta=0.8, nu=5, dims=1), seed=3)
        assert_array_equal(jd.rows[:, 1], ds.rows[:, 1])

    def test_determinism(self):
        ds = self._dataset()
        spec = NoiseSpec(theta=0.4, nu=2, dims=1)
        a = jitter(ds, spec, seed=9, replicate_index=4)
        b = jitter(ds, spec, seed=9, replicate_index=4)
        assert_array_equal(a.rows, b.rows)

    def test_dims_mismatch(self):
        ds = self._dataset()
        with pytest.raises(SchemaError):
            jitter(ds, NoiseSpec(theta=0.4, nu=2, dims=2), seed=0)

    def test_replicate_keeps_no_caller_array(self):
        ds = self._dataset(20)
        spec = NoiseSpec(theta=0.8, nu=5, dims=1)
        for order in ("C", "F"):
            rows = np.array(ds.rows, order=order)
            rows[:, 0] += 0.25
            jd = JitteredDataset(origin=ds, noise=spec, seed=0, replicate_index=0, rows=rows)
            assert jd.rows.flags.f_contiguous and not jd.rows.flags.writeable
            assert not np.shares_memory(jd.rows, rows) and rows.flags.writeable
            rows[:, 1] = 99.0
            assert_array_equal(jd.rows[:, 1], ds.rows[:, 1])
        # a read-only view of a writable array is copied too
        rows = np.array(ds.rows, order="F")
        view = rows.view()
        view.setflags(write=False)
        jd = JitteredDataset(origin=ds, noise=spec, seed=0, replicate_index=0, rows=view)
        assert not np.shares_memory(jd.rows, rows)
        # what no one can write to is kept: jitter's own buffer, another
        # replicate's rows
        drawn = jitter(ds, spec, seed=1)
        again = JitteredDataset(origin=ds, noise=spec, seed=1, replicate_index=0,
                                rows=drawn.rows)
        assert again.rows is drawn.rows

    def test_no_discrete_columns_noop(self):
        schema = (ColumnSchema("x", "continuous"),)
        ds = MixedDataset(schema, np.array([[0.5], [1.5]]))
        jd = jitter(ds, NoiseSpec(theta=0.8, nu=5, dims=0), seed=0)
        assert_array_equal(jd.rows, ds.rows)


class TestStandardize:
    def test_two_point_column(self):
        # mean 1, sample sd sqrt(2): values standardize to +-1/sqrt(2)
        ds = MixedDataset((ColumnSchema("x", "continuous"),), np.array([[0.0], [2.0]]))
        out, tr = standardize(ds)
        assert_allclose(out.rows[:, 0], [-0.7071067811865475, 0.7071067811865475],
                        atol=1e-15)
        assert tr.means[0] == 1.0
        assert tr.scales[0] == pytest.approx(np.sqrt(2.0))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rows = np.column_stack([rng.integers(0, 4, 50).astype(float), rng.normal(2, 3, 50)])
        ds = MixedDataset(ZX, rows)
        out, tr = standardize(ds)
        assert_allclose(tr.invert(out.rows), rows, atol=1e-12)

    def test_already_standardized_near_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4000)
        x = (x - x.mean()) / x.std(ddof=1)
        ds = MixedDataset((ColumnSchema("x", "continuous"),), x[:, None])
        _, tr = standardize(ds)
        assert tr.means[0] == pytest.approx(0.0, abs=1e-12)
        assert tr.scales[0] == pytest.approx(1.0, abs=1e-12)

    def test_output_bytes_pinned(self):
        # bytes recorded from an earlier standardize(), when datasets were
        # row-major: numpy's column sums round by layout, and so would the
        # means and scales if they were taken over the column-major rows
        rng = np.random.default_rng(19)
        rows = np.column_stack([rng.integers(0, 5, 1000).astype(float),
                                rng.normal(2, 3, 1000), rng.normal(-1, 0.5, 1000)])
        ds = MixedDataset(ZX + (ColumnSchema("y", "continuous"),), rows)
        out, tr = standardize(ds)
        digest = hashlib.sha256(np.ascontiguousarray(out.rows).tobytes() + tr.means.tobytes()
                                + tr.scales.tobytes()).hexdigest()
        assert digest == "35f36a01984f297a24dd7dd1d387a3c6254e867894ac4d52a5e284c0c50f9159"

    def test_zero_variance_column(self):
        ds = MixedDataset((ColumnSchema("x", "continuous"),), np.ones((5, 1)))
        with pytest.raises(DegenerateColumnError):
            standardize(ds)

    def test_single_row(self):
        ds = MixedDataset((ColumnSchema("x", "continuous"),), np.array([[1.0]]))
        with pytest.raises(InsufficientDataError):
            standardize(ds)
