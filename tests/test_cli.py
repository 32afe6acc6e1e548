"""Command-line interface: subcommands, exit codes, determinism."""

import csv
import io
import json
import math
import os
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


class _MakesDirectory:
    """Unpickles by creating a directory at ``path``, leaving no open handle."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


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
            data = _MakesDirectory(marker)
        model.write_bytes(pickle.dumps(data, protocol=4))
        code = main(["eval", "--model", str(model), "--functional", "density",
                     "--at", "z=2,x=0.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not a jitterkit model artifact" in captured.err
        assert not marker.exists()
        pickle.loads(model.read_bytes())  # the guard: unpickling would leave the marker
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
        (["fit"], {"bandwidth": "0.3,abc"}),
        (["benchmark", "--n-grid", "50,abc"], None),
        (["benchmark"], {"n_grid": [50, "abc"]}),
        (["benchmark"], {"n_grid": [50, 2.5]}),
    ], ids=["bandwidth_flag", "bandwidth_config", "bandwidth_config_text", "n_grid_flag",
            "n_grid_config", "n_grid_config_fraction"])
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
        (["fit", "--bandwidth", "0.3,0.4"], {"bandwidth": "0.3,0.4"}),
        (["fit", "--bandwidth", "0.35"], {"bandwidth": [0.35]}),
        (["benchmark", "--n-grid", "50,100"], {"n_grid": [50, 100]}),
        (["benchmark", "--n-grid", "50,100"], {"n_grid": "50, 100"}),
        (["benchmark", "--functionals", "kde_atom_mae,mean_abs_err"],
         {"functionals": ["kde_atom_mae", "mean_abs_err"]}),
        (["benchmark", "--functionals", "mean_abs_err"], {"functionals": ["mean_abs_err"]}),
    ], ids=["bandwidth", "bandwidth_text", "bandwidth_one", "n_grid", "n_grid_text",
            "functionals", "functionals_one"])
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


# values for every value option of every subcommand; given as flags or in
# a --config file, they must print and write the same bytes
CONFIG_CASES = {
    "jitter": ("jitter", {"discrete": "z", "continuous": "x", "theta": 0.4, "nu": 2,
                          "seed": 3, "replicate": 2}),
    "jitter_categorical": ("jitter", {"discrete": ["z"], "categorical": ["x"]}),
    "fit_kde": ("fit", {"discrete": "z", "continuous": "x", "kernel": "epanechnikov",
                        "jitters": 2, "seed": 5, "theta": 0.6, "nu": 3,
                        "bandwidth": [0.4, 0.5]}),
    "fit_loclin": ("fit", {"discrete": "z", "continuous": "x", "estimator": "loclin",
                           "response": "z", "jitter_response": True}),
    "eval_density": ("eval", {"functional": "density", "at": "z=2,x=0.5"}),
    "eval_mean": ("eval", {"functional": "mean", "response": "z", "at": "x=0.5"}),
    "eval_cdf": ("eval", {"functional": "cdf", "response": "x", "threshold": 0.25,
                          "at": "z=1"}),
    "eval_quantile": ("eval", {"functional": "quantile", "response": "z", "alpha": 0.7}),
    "eval_class_probs": ("eval", {"functional": "class_probs", "classes": ["c=a", "c=b"],
                                  "at": "x=0.1"}),
    "verify": ("verify", {"theta": 0.4, "nu": 2, "grid_points": 51, "tol": 1e-6}),
    "verify_corrupt": ("verify", {"theta": 0.8, "corrupt_eta_scale": 1.5}),
    "simulate": ("simulate", {"count": 30, "seed": 6}),
    "benchmark": ("benchmark", {"n_grid": [50, 80], "seeds": 2, "jitters": 2,
                                "kernel": "epanechnikov",
                                "functionals": "kde_atom_mae,mean_abs_err",
                                "theta": 0.5, "nu": 2, "seed": 4, "workers": 2}),
}

# config values that each flag would refuse; none may be read another way
BAD_CONFIGS = {
    "seed_fraction": ("jitter", {"seed": 2.5}),
    "jitters_fraction": ("fit", {"jitters": 2.9}),
    "estimator_choice": ("fit", {"estimator": "locline"}),
    "seeds_bool": ("benchmark", {"seeds": True}),
    "count_word": ("simulate", {"count": "ten"}),
    "functional_choice": ("eval", {"functional": "means"}),
    "switch_word": ("fit", {"jitter_response": "yes"}),
    "verify_theta_word": ("verify", {"theta": "wide"}),
}


def _as_flags(options: dict) -> list[str]:
    flags = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        else:
            flags += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return flags


class TestConfigPrecedence:
    @staticmethod
    def _io(command, options, data_csv, model_config, tmp_path, out) -> list[str]:
        """The path flags of ``command``; an eval fits its model first."""
        if command in ("jitter", "fit"):
            return ["--input", str(data_csv), "--output", str(out)]
        if command in ("simulate", "benchmark"):
            return ["--model-config", str(model_config), "--output", str(out)]
        if command == "verify":
            return []
        model = tmp_path / "m.bin"
        if "classes" in options:
            path = tmp_path / "c.csv"
            path.write_text("c,x\na,0.1\nb,0.7\na,-0.4\nb,1.2\na,0.3\nb,-0.2\n",
                            encoding="utf-8")
            fit = ["--input", str(path), "--categorical", "c", "--continuous", "x"]
        else:
            fit = ["--input", str(data_csv), *SCHEMA_FLAGS, "--jitters", "2"]
        assert main(["fit", *fit, "--output", str(model)]) == 0
        return ["--model", str(model), "--output", str(out)]

    @pytest.mark.parametrize("command, options", CONFIG_CASES.values(), ids=CONFIG_CASES)
    def test_config_matches_flags(self, data_csv, model_config, tmp_path, capsys, command,
                                  options):
        outputs = []
        for source in ("flags", "config"):
            out = tmp_path / source
            argv = [command, *self._io(command, options, data_csv, model_config, tmp_path,
                                       out)]
            if source == "flags":
                argv += _as_flags(options)
            else:
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps(options), encoding="utf-8")
                argv += ["--config", str(cfg)]
            capsys.readouterr()
            code = main(argv)
            outputs.append((code, capsys.readouterr().out,
                            out.read_bytes() if out.exists() else None))
        assert outputs[0][0] == (3 if "corrupt_eta_scale" in options else 0)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, options", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_bad_config_value_exit_1(self, data_csv, model_config, tmp_path, capsys,
                                     command, options):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(options), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, *self._io(command, options, data_csv, model_config, tmp_path, out),
                "--config", str(cfg)]
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"argument --{next(iter(options)).replace('_', '-')}" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"nosuch": 1, "help": True}, {"thet": "wide"},
                                        {"seed": None, "theta": None}],
                             ids=["unknown", "abbreviation", "null"])
    def test_ignored_entries(self, data_csv, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = ["jitter", "--input", str(data_csv), *SCHEMA_FLAGS]
        assert main([*argv, "--output", str(tmp_path / "a.csv")]) == 0
        assert main([*argv, "--config", str(cfg), "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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

    @pytest.mark.parametrize("margin", [
        {"family": "binomial", "p": 0.3},
        {"family": "binomial", "n": 4.7, "p": 0.3},
        {"family": "binomial", "n": 4, "p": "x"},
    ], ids=["missing_n", "fraction_n", "word_p"])
    def test_bad_model_config_exit_1(self, tmp_path, capsys, margin):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"margin": margin}), encoding="utf-8")
        out = tmp_path / "o.csv"
        code = main(["simulate", "--model-config", str(path), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage error: model config" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

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
