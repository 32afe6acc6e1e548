"""Command-line interface: subcommands, exit codes, determinism."""

import csv
import io
import json
import math
import pickle

import numpy as np
import pytest

from jitterkit.cli import main


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "data.csv"
    lines = ["z,x"]
    for _ in range(60):
        lines.append(f"{rng.integers(0, 5)},{rng.normal():.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"margin": {"family": "binomial", "n": 4, "p": 0.3}}))
    return path


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


SCHEMA_FLAGS = ["--discrete", "z", "--continuous", "x"]

# edits of a model artifact's JSON header, and of its .npy block's header,
# that must each make the artifact fail to load with a usage error
HEADER_EDITS = {
    "nan_bandwidth": lambda h: h.update(bandwidths=[math.nan, 0.5]),
    "short_bandwidths": lambda h: h.update(bandwidths=[0.5]),
    "missing_field": lambda h: h.pop("schema"),
    "word_bandwidths": lambda h: h.update(bandwidths="wide"),
    "short_noise": lambda h: h.update(noise=[0.8]),
    "bool_seed": lambda h: h.update(seed=True),
}
NPY_EDITS = {
    "object_rows": {"descr": "|O"},
    "overlong_rows": {"shape": (10**9, 2)},
}
# what the usage error names for each damage
DAMAGE_NAMED = {
    "csv": "not a jitterkit model artifact", "truncated": "not a jitterkit model artifact",
    "nan_bandwidth": "bandwidths", "short_bandwidths": "bandwidths",
    "missing_field": "'schema'", "word_bandwidths": "'bandwidths'",
    "short_noise": "'noise'", "bool_seed": "'seed'",
    "object_rows": "origin rows", "overlong_rows": "origin rows",
}


class _WritesFile:
    """Unpickles by creating the file at ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return open, (self.path, "w")


class TestJitterCommand:
    def test_row_count_and_exit(self, data_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["jitter", "--input", str(data_csv), "--output", str(out),
                     *SCHEMA_FLAGS, "--seed", "1"])
        assert code == 0
        assert len(_read_rows(out)) == len(_read_rows(data_csv))

    def test_theta_zero_rounding(self, data_csv, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["jitter", "--input", str(data_csv), "--output", str(out),
                     *SCHEMA_FLAGS, "--theta", "0", "--nu", "1"]) == 0
        original = _read_rows(data_csv)[1:]
        jittered = _read_rows(out)[1:]
        for orig, jit in zip(original, jittered):
            assert round(float(jit[0])) == int(orig[0])
            assert float(jit[1]) == float(orig[1])

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["jitter", "--input", str(data_csv), *SCHEMA_FLAGS, "--seed", "9"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ingestion_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("z,x\n1.5,0.2\n", encoding="utf-8")
        code = main(["jitter", "--input", str(bad), "--output", str(tmp_path / "o.csv"),
                     *SCHEMA_FLAGS])
        assert code == 2

    def test_missing_flag_exit_1(self, data_csv, capsys):
        assert main(["jitter", "--input", str(data_csv)]) == 1
        capsys.readouterr()

    def test_unassigned_column_exit_2(self, data_csv, tmp_path):
        code = main(["jitter", "--input", str(data_csv), "--output",
                     str(tmp_path / "o.csv"), "--discrete", "z"])
        assert code == 2


class TestFitEvalCommands:
    def test_fit_eval_density(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS, "--seed", "3", "--jitters", "2"]) == 0
        assert main(["eval", "--model", str(model), "--functional", "density",
                     "--at", "z=2,x=0.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split(",")[:2] == ["kind", "target"]
        row = out[1].split(",")
        assert row[0] == "density"
        assert float(row[4]) > 0.0

    def _eval_functionals(self, model, capsys):
        for extra in (["--functional", "mean"],
                      ["--functional", "cdf", "--threshold", "2"],
                      ["--functional", "quantile", "--alpha", "0.5"]):
            assert main(["eval", "--model", str(model), "--response", "z", *extra]) == 0
            capsys.readouterr()

    def test_functionals_with_response(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        main(["fit", "--input", str(data_csv), "--output", str(model), *SCHEMA_FLAGS])
        self._eval_functionals(model, capsys)

    def test_functionals_epanechnikov(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model), *SCHEMA_FLAGS,
                     "--kernel", "epanechnikov"]) == 0
        self._eval_functionals(model, capsys)

    def test_eval_byte_identical(self, data_csv, tmp_path):
        model = tmp_path / "m.bin"
        main(["fit", "--input", str(data_csv), "--output", str(model), *SCHEMA_FLAGS])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["eval", "--model", str(model), "--functional", "mean", "--response", "z"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_byte_identical(self, data_csv, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        argv = ["fit", "--input", str(data_csv), *SCHEMA_FLAGS, "--seed", "5"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_loclin_fit_eval(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS, "--estimator", "loclin", "--response", "x"]) == 0
        assert main(["eval", "--model", str(model), "--functional", "mean",
                     "--at", "z=2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1].split(",")[0] == "mean"

    def test_classify_via_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        path = tmp_path / "c.csv"
        lines = ["c,x"]
        for _ in range(300):
            lines.append(f"{'a' if rng.random() < 0.5 else 'b'},{rng.normal():.5f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(path), "--output", str(model),
                     "--categorical", "c", "--continuous", "x"]) == 0
        assert main(["eval", "--model", str(model), "--functional", "class_probs",
                     "--classes", "c=a,c=b", "--at", "x=0.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        probs = [float(line.split(",")[4]) for line in out[1:]]
        assert len(probs) == 2
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_no_local_data_exit_3(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        main(["fit", "--input", str(data_csv), "--output", str(model), *SCHEMA_FLAGS])
        code = main(["eval", "--model", str(model), "--functional", "mean",
                     "--response", "z", "--at", "x=1000.0"])
        capsys.readouterr()
        assert code == 3

    def test_bad_alpha_exit_1(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        main(["fit", "--input", str(data_csv), "--output", str(model), *SCHEMA_FLAGS])
        code = main(["eval", "--model", str(model), "--functional", "quantile",
                     "--response", "z", "--alpha", "1.5"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("estimator,query", [
        ("kde", ["--functional", "density", "--at", "z=nan,x=0"]),
        ("kde", ["--functional", "density", "--at", "z=2,x=inf"]),
        ("kde", ["--functional", "mean", "--response", "z", "--at", "x=nan"]),
        ("kde", ["--functional", "cdf", "--response", "x", "--threshold", "nan"]),
        ("loclin", ["--functional", "mean", "--at", "z=nan"]),
    ])
    def test_non_finite_point_exit_1(self, data_csv, tmp_path, capsys, estimator, query):
        model = tmp_path / "m.bin"
        fit_extra = ["--estimator", "loclin", "--response", "x"] if estimator == "loclin" else []
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS, *fit_extra]) == 0
        code = main(["eval", "--model", str(model), *query])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("query", [
        ["--functional", "mean", "--response", "nosuch"],
        ["--functional", "quantile", "--response", "nosuch", "--alpha", "0.5"],
        ["--functional", "class_probs", "--classes", "z,nosuch"],
    ])
    def test_unknown_column_name_exit_2(self, data_csv, tmp_path, capsys, query):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS]) == 0
        code = main(["eval", "--model", str(model), *query])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unknown column 'nosuch'" in captured.err

    @pytest.mark.parametrize("at", ["z=abc,x=0", "x="])
    def test_non_numeric_point_exit_1(self, data_csv, tmp_path, capsys, at):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS]) == 0
        code = main(["eval", "--model", str(model), "--functional", "density", "--at", at])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "numeric" in captured.err

    def test_non_numeric_dummy_level_exit_1(self, tmp_path, capsys):
        # a dummy-coded column takes 0/1 values, not the level's name
        path = tmp_path / "c.csv"
        path.write_text("c,x\na,0.1\nb,0.7\na,-0.4\nb,1.2\na,0.3\n", encoding="utf-8")
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(path), "--output", str(model),
                     "--categorical", "c", "--continuous", "x"]) == 0
        code = main(["eval", "--model", str(model), "--functional", "class_probs",
                     "--classes", "c=a,c=b", "--at", "c=a"])
        captured = capsys.readouterr()
        assert code == 1
        assert "numeric" in captured.err

    @pytest.mark.parametrize("damage", ["csv", "truncated", *HEADER_EDITS, *NPY_EDITS])
    def test_malformed_artifact_exit_1(self, data_csv, tmp_path, capsys, damage):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS]) == 0
        head, _, block = model.read_bytes().partition(b"\n")
        if damage == "csv":
            model.write_bytes(data_csv.read_bytes())
        elif damage == "truncated":
            model.write_bytes(model.read_bytes()[:300])
        elif damage in HEADER_EDITS:
            header = json.loads(head)
            HEADER_EDITS[damage](header)
            model.write_bytes(json.dumps(header).encode() + b"\n" + block)
        else:
            rows = np.lib.format.read_array(io.BytesIO(block))
            fields = np.lib.format.header_data_from_array_1_0(rows)
            fields.update(NPY_EDITS[damage])
            npy = io.BytesIO()
            np.lib.format.write_array_header_1_0(npy, fields)
            model.write_bytes(head + b"\n" + npy.getvalue() + rows.tobytes())
        code = main(["eval", "--model", str(model), "--functional", "density",
                     "--at", "z=2,x=0.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "usage error" in captured.err
        assert "Traceback" not in captured.err
        assert DAMAGE_NAMED[damage] in captured.err

    @pytest.mark.parametrize("payload", ["version_1", "reduce_marker"])
    def test_pickle_artifact_never_unpickled(self, tmp_path, capsys, payload):
        model, marker = tmp_path / "m.bin", tmp_path / "marker"
        if payload == "version_1":
            data = {"format": "jitterkit-model", "version": 1, "type": "kde",
                    "origin_rows": np.zeros((4, 2)), "replicates": [(0, np.zeros((4, 2)))]}
        else:
            data = _WritesFile(marker)
        model.write_bytes(pickle.dumps(data, protocol=4))
        code = main(["eval", "--model", str(model), "--functional", "density",
                     "--at", "z=2,x=0.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not a jitterkit model artifact" in captured.err
        assert not marker.exists()
        pickle.loads(model.read_bytes())  # the guard: unpickling would leave the file
        assert marker.exists() == (payload == "reduce_marker")

    def test_replicate_drift_exit_3(self, data_csv, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS, "--jitters", "3"]) == 0
        head, _, block = model.read_bytes().partition(b"\n")
        header = json.loads(head)
        digest = header["replicate_sha256"][1]
        header["replicate_sha256"][1] = ("1" if digest[0] == "0" else "0") + digest[1:]
        model.write_bytes(json.dumps(header).encode() + b"\n" + block)
        code = main(["eval", "--model", str(model), "--functional", "density",
                     "--at", "z=2,x=0.0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "RNG stream has drifted" in captured.err
        assert "Traceback" not in captured.err


# an integer no float64 holds, as a command line or config file gives it
HUGE = "1" + "0" * 400


class TestHugeIntegers:
    @pytest.mark.parametrize("command,config", [
        (["jitter", "--nu", HUGE], None),
        (["fit", "--nu", HUGE], None),
        (["jitter"], {"theta": int(HUGE)}),
        (["fit"], {"nu": int(HUGE)}),
        (["eval", "--functional", "cdf", "--response", "z"], {"threshold": int(HUGE)}),
        (["eval", "--functional", "density", "--at", f"z=1,x={HUGE}"], None),
        (["benchmark", "--nu", HUGE], None),
    ], ids=["jitter_nu", "fit_nu", "config_theta", "config_nu", "config_threshold",
            "eval_at", "benchmark_nu"])
    def test_usage_error_exit_1(self, data_csv, model_config, tmp_path, capsys, command,
                                config):
        model = tmp_path / "m.bin"
        assert main(["fit", "--input", str(data_csv), "--output", str(model),
                     *SCHEMA_FLAGS]) == 0
        io_flags = {
            "jitter": ["--input", str(data_csv), "--output", str(tmp_path / "j.csv"),
                       *SCHEMA_FLAGS],
            "fit": ["--input", str(data_csv), "--output", str(tmp_path / "f.bin"),
                    *SCHEMA_FLAGS],
            "eval": ["--model", str(model)],
            "benchmark": ["--model-config", str(model_config), "--n-grid", "50",
                          "--seeds", "1", "--output", str(tmp_path / "b.csv")],
        }[command[0]]
        argv = [*command, *io_flags]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "jitterkit: usage error" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["jitter", "fit"])
    def test_seed_of_any_size(self, data_csv, tmp_path, capsys, command):
        out = [tmp_path / "a.out", tmp_path / "b.out"]
        for path, seed in zip(out, (HUGE, HUGE + "1")):
            assert main([command, "--input", str(data_csv), "--output", str(path),
                         *SCHEMA_FLAGS, "--seed", seed]) == 0
        assert out[0].read_bytes() != out[1].read_bytes()
        if command == "fit":
            # the artifact keeps the seed, and its reload refits with it
            assert main(["eval", "--model", str(out[0]), "--functional", "density",
                         "--at", "z=1,x=0"]) == 0
            assert float(capsys.readouterr().out.splitlines()[1].split(",")[4]) > 0.0


class TestListOptions:
    """List-valued options: comma-separated on the command line, a comma-
    separated string or a JSON list in a config file."""

    @pytest.mark.parametrize("argv, config", [
        (["fit", "--bandwidth", "abc"], None),
        (["fit"], {"bandwidth": [0.3, "abc"]}),
        (["benchmark", "--n-grid", "50,abc"], None),
        (["benchmark"], {"n_grid": [50, "abc"]}),
    ], ids=["bandwidth_flag", "bandwidth_config", "n_grid_flag", "n_grid_config"])
    def test_non_numeric_item_exit_1(self, data_csv, model_config, tmp_path, capsys,
                                     argv, config):
        code = main(self._argv(argv, config, data_csv, model_config, tmp_path / "out"))
        captured = capsys.readouterr()
        assert code == 1
        assert "usage error" in captured.err
        assert "numbers" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, config", [
        (["fit", "--bandwidth", "0.3,0.4"], {"bandwidth": [0.3, 0.4]}),
        (["benchmark", "--n-grid", "50,100"], {"n_grid": [50, 100]}),
        (["benchmark", "--functionals", "kde_atom_mae,mean_abs_err"],
         {"functionals": ["kde_atom_mae", "mean_abs_err"]}),
    ], ids=["bandwidth", "n_grid", "functionals"])
    def test_config_list_matches_flag(self, data_csv, model_config, tmp_path, capsys,
                                      argv, config):
        outputs = []
        for name, (args, cfg) in {"flag": (argv, None), "config": (argv[:1], config)}.items():
            out = tmp_path / name
            assert main(self._argv(args, cfg, data_csv, model_config, out)) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @staticmethod
    def _argv(argv, config, data_csv, model_config, out):
        if argv[0] == "fit":
            argv = argv + ["--input", str(data_csv), *SCHEMA_FLAGS]
        else:
            argv = argv + ["--model-config", str(model_config), "--seeds", "1"]
        if config is not None:
            cfg = out.with_suffix(".json")
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(cfg)]
        return argv + ["--output", str(out)]


class TestConfigPrecedence:
    def test_config_supplies_and_flag_overrides(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "theta": 0.4, "nu": 2}))
        base = ["jitter", "--input", str(data_csv), *SCHEMA_FLAGS,
                "--config", str(cfg)]
        from_config = tmp_path / "c.csv"
        explicit = tmp_path / "e.csv"
        assert main(base + ["--output", str(from_config)]) == 0
        assert main(["jitter", "--input", str(data_csv), *SCHEMA_FLAGS,
                     "--seed", "5", "--theta", "0.4", "--nu", "2",
                     "--output", str(explicit)]) == 0
        assert from_config.read_bytes() == explicit.read_bytes()

        overridden = tmp_path / "o.csv"
        assert main(base + ["--seed", "7", "--output", str(overridden)]) == 0
        assert overridden.read_bytes() != from_config.read_bytes()


def _verified_specs(out: str) -> set[str]:
    table = out.split("\n\n")[0].splitlines()[1:]
    return {" ".join(line.split()[:2]) for line in table}


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "plateau" in out

    def test_single_spec(self, capsys):
        assert main(["verify", "--theta", "0.8", "--nu", "5"]) == 0
        assert _verified_specs(capsys.readouterr().out) == {"theta=0.8 nu=5"}

    @pytest.mark.parametrize("flags, specs", [
        (["--theta", "0.4"], {"theta=0.4 nu=1", "theta=0.4 nu=2", "theta=0.4 nu=5"}),
        (["--nu", "2"], {"theta=0 nu=2", "theta=0.4 nu=2", "theta=0.8 nu=2"}),
    ], ids=["theta", "nu"])
    def test_one_parameter_keeps_the_other_battery_values(self, capsys, flags, specs):
        assert main(["verify", *flags]) == 0
        assert _verified_specs(capsys.readouterr().out) == specs

    def test_corrupted_density_fails(self, capsys):
        code = main(["verify", "--corrupt-eta-scale", "0.9"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in out


class TestSimulateCommand:
    def test_frequencies(self, model_config, tmp_path):
        out = tmp_path / "sim.csv"
        n = 1000
        assert main(["simulate", "--model-config", str(model_config),
                     "--count", str(n), "--seed", "2", "--output", str(out)]) == 0
        rows = _read_rows(out)
        assert rows[0] == ["z"]
        values = np.array([int(r[0]) for r in rows[1:]])
        assert len(values) == n
        import scipy.stats

        for z in range(5):
            p = scipy.stats.binom.pmf(z, 4, 0.3)
            assert abs((values == z).mean() - p) < 3 * np.sqrt(p * (1 - p) / n) + 1e-9

    def test_zero_count(self, model_config, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--model-config", str(model_config),
                     "--count", "0", "--output", str(out)]) == 0
        assert _read_rows(out) == [["z"]]

    def test_seed_reproducibility(self, model_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--model-config", str(model_config), "--count", "200",
                "--seed", "6"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["simulate", "--model-config", str(tmp_path / "nope.json"),
                     "--output", str(tmp_path / "o.csv")]) == 2


class TestBenchmarkCommand:
    def test_row_count_and_summary(self, model_config, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["benchmark", "--model-config", str(model_config),
                     "--n-grid", "200,800", "--seeds", "3",
                     "--functionals", "kde_atom_mae,mean_abs_err",
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "log-log slope" in printed
        rows = _read_rows(out)
        assert rows[0] == ["n", "seed", "functional", "error"]
        assert len(rows) - 1 == 2 * 3 * 2
        # canonical ordering: sorted by (n, seed, functional)
        keys = [(int(r[0]), int(r[1]), r[2]) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_deterministic_given_seed(self, model_config, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["benchmark", "--model-config", str(model_config), "--n-grid", "150,300",
                "--seeds", "2", "--seed", "4", "--workers", "4"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_workers_flag_changes_nothing(self, model_config, tmp_path, capsys):
        """Cells run in order; --workers is accepted and leaves CSV and
        summary byte-identical."""
        argv = ["benchmark", "--model-config", str(model_config), "--n-grid", "150,300",
                "--seeds", "2", "--seed", "4", "--functionals", "kde_atom_mae,mean_abs_err"]
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"bench-{workers}.csv"
            assert main(argv + ["--workers", workers, "--output", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_unknown_functional_exit_1(self, model_config, tmp_path, capsys):
        code = main(["benchmark", "--model-config", str(model_config),
                     "--functionals", "mystery", "--output", str(tmp_path / "o.csv")])
        capsys.readouterr()
        assert code == 1

    def test_multiple_jitters_flag(self, model_config, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["benchmark", "--model-config", str(model_config),
                     "--n-grid", "200", "--seeds", "2", "--jitters", "5",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert len(_read_rows(out)) - 1 == 2


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
