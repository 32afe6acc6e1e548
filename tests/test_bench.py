"""The benchmark's output checks pass on this checkout.

Runs the ``point-eval`` and ``functionals`` workloads of ``bench/`` at a
small n, and the ``oracle`` workload against its exact truth, for a few
rounds, and puts every output through the workload's own checker, as
``bench/run.py`` does after its timed phase. The bench files are
imported, never written.
"""

import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import run
    import workloads

    return harness, run, workloads


@pytest.mark.parametrize("name, n, rounds", [("point-eval", 3000, 8), ("functionals", 400, 4),
                                              ("oracle", None, 2)])
def test_workload_checks_pass(bench, tmp_path, name, n, rounds):
    # the oracle workload has no data size: its densities are exact
    harness, run, workloads = bench
    small = type("Small", (workloads.WORKLOADS[name],), {"n": n} if n else {})
    wl = small(7, harness.Tracer(available=False), str(tmp_path), str(BENCH.parent))
    wl.setup()
    results = [harness.OpResult(op, 0.0, op.call())
               for index in range(1, rounds + 1) for op in wl.round(index)]
    failed, run_failures, examples = run.check_all(wl, results, corrupt_every=0)
    assert (failed, run_failures, examples) == (0, [], [])
    assert sum(wl.checked_in_full(i) for i in range(len(results))) >= 3
