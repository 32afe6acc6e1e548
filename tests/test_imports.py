"""Import hygiene: no scipy module loads at import, and each scipy
submodule loads on the first call that needs it.

Each check runs in a fresh interpreter, since the test process itself has
long since imported scipy.stats and friends.
"""

import ast
import json
import os
import re
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Runs the given CLI argv lists in order and prints, as JSON, the scipy
# modules loaded after the import and after each command.
_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
from jitterkit import cli
report = {"import": loaded(), "modules": len(sys.modules), "codes": [], "after": []}
for argv in json.loads(sys.argv[1]):
    report["codes"].append(cli.main(argv))
    report["after"].append(loaded())
sys.stdout.write("\\n" + json.dumps(report))
"""


def _probe(*commands: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(list(commands))],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.rsplit("\n", 1)[-1])


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"margin": {"family": "binomial", "n": 4, "p": 0.3}}))
    return path


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["z,x"] + [f"{rng.integers(0, 5)},{rng.normal():.6f}" for _ in range(80)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_import_cli_is_lean():
    report = _probe()
    assert report["import"] == []
    assert report["modules"] <= 300


def test_import_jitterkit_loads_no_scipy():
    code = "import sys, jitterkit; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_benchmark_loads_no_scipy(model_config, tmp_path):
    # kde_atom_mae reads only slice densities, which take no kernel CDF
    argv = ["benchmark", "--model-config", str(model_config), "--n-grid", "60,120",
            "--seeds", "2", "--output", str(tmp_path / "b.csv")]
    report = _probe(argv)
    assert report["codes"] == [0]
    assert report["import"] == report["after"][0] == []


@pytest.mark.parametrize("functional", [
    ["mean"], ["cdf", "--threshold", "2"], ["quantile", "--alpha", "0.6"]])
def test_gaussian_kde_functional_is_what_loads_scipy_special(functional, data_csv, tmp_path):
    # a Gaussian kernel's CDF is scipy.special.ndtr: the one scipy load left
    # in a subcommand that does not verify
    model = str(tmp_path / "kde.model")
    commands = [
        ["fit", "--input", str(data_csv), "--output", model, "--discrete", "z",
         "--continuous", "x"],
        ["eval", "--model", model, "--response", "z", "--at", "x=0.1", "--functional",
         *functional],
    ]
    report = _probe(*commands)
    assert report["codes"] == [0, 0]
    assert report["after"][0] == []
    assert "scipy.special" in report["after"][1]
    assert "scipy.integrate" not in report["after"][1]


def test_fit_and_density_eval_skip_scipy_special(data_csv, tmp_path):
    model = str(tmp_path / "kde.model")
    loclin = str(tmp_path / "loclin.model")
    schema = ["--discrete", "z", "--continuous", "x", "--jitters", "2"]
    commands = [
        ["jitter", "--input", str(data_csv), "--output", str(tmp_path / "j.csv"), *schema[:4]],
        ["fit", "--input", str(data_csv), "--output", model, *schema],
        ["fit", "--input", str(data_csv), "--output", loclin, "--estimator", "loclin",
         "--response", "x", *schema],
        ["eval", "--model", model, "--functional", "density", "--at", "z=2,x=0.1"],
        ["eval", "--model", loclin, "--functional", "mean", "--at", "z=2"],
    ]
    report = _probe(*commands)
    assert report["codes"] == [0] * len(commands)
    assert report["after"] == [[]] * len(commands)


def test_kde_functional_eval_skips_scipy_integrate(data_csv, tmp_path):
    model = str(tmp_path / "kde.model")
    commands = [
        ["fit", "--input", str(data_csv), "--output", model, "--discrete", "z",
         "--continuous", "x"],
        ["eval", "--model", model, "--functional", "mean", "--response", "z", "--at", "x=0.1"],
    ]
    report = _probe(*commands)
    assert report["codes"] == [0, 0]
    assert "scipy.integrate" not in report["after"][1]


def test_regression_never_integrates_numerically():
    text = (SRC / "jitterkit" / "regression.py").read_text(encoding="utf-8")
    assert "quadrature" not in text
    assert "adaptive_integral" not in text


def test_verify_is_what_loads_scipy_integrate():
    argv = ["verify", "--theta", "0.4", "--nu", "2"]
    report = _probe(argv)
    assert report["codes"] == [0]
    assert report["import"] == []
    assert "scipy.integrate" in report["after"][0]
    assert "scipy.stats" not in report["after"][0]


def test_no_module_imports_scipy_stats():
    sources = sorted((SRC / "jitterkit").glob("*.py"))
    assert sources
    for path in sources:
        assert "scipy.stats" not in path.read_text(encoding="utf-8"), path.name


def test_no_module_uses_pickle():
    # model artifacts are JSON and .npy: loading one must never unpickle.
    # The word boundary lets numpy's allow_pickle=False through.
    sources = sorted((SRC / "jitterkit").glob("*.py"))
    assert sources
    for path in sources:
        assert not re.search(r"\bpickle\b", path.read_text(encoding="utf-8")), path.name


def test_estimators_exp_goes_through_the_floor():
    # a second exp in estimators.py could bring back numpy's slow
    # exp-underflow path: the only one is the e^-700 floor's, in _exp
    tree = ast.parse((SRC / "jitterkit" / "estimators.py").read_text(encoding="utf-8"))
    uses = [node for node in ast.walk(tree)
            if getattr(node, "attr", getattr(node, "id", None)) == "exp"]
    helper = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_exp")
    assert len(uses) == 1
    assert uses[0] in list(ast.walk(helper))
