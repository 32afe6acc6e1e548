"""Measurement core shared by the workloads: spans, the op loop, statistics.

The load generator is one closed-loop client in this process: it issues
an op, waits for it to finish, then issues the next. No threads.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

# Percentiles op_tail_ms may report; the highest one with at least ten ops
# beyond it is used. A fixed ladder keeps the reported percentile the same
# across runs of similar length instead of drifting with the op count.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0, 0.0)
TAIL_MIN_BEYOND = 10
BATCH_SECONDS = 1e-3

# Per-layer metrics: the span name each is read from, and its unit.
# Times are the median duration of one call.
SPAN_METRICS = {
    "noise.sample_noise_ms": "ms",
    "noise.eta_density_us": "us",
    "noise.verify_membership_ms": "ms",
    "data.dummy_code_ms": "ms",
    "data.jitter_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.write_csv_ms": "ms",
    "estimators.fit_kde_ms": "ms",
    "estimators.fit_loclin_ms": "ms",
    "estimators.kde_eval_gaussian_ms": "ms",
    "estimators.kde_eval_epanechnikov_ms": "ms",
    "estimators.loclin_eval_ms": "ms",
    "estimators.save_model_ms": "ms",
    "estimators.load_model_ms": "ms",
    "regression.cond_mean_ms": "ms",
    "regression.cond_cdf_ms": "ms",
    "regression.cond_quantile_discrete_ms": "ms",
    "regression.cond_quantile_continuous_ms": "ms",
    "regression.classify_ms": "ms",
    "quadrature.adaptive_integral_ms": "ms",
    "oracle.convolve_density_us": "us",
    "oracle.response_slice_ms": "ms",
    "cli.import_ms": "ms",
    "cli.fit_ms": "ms",
    "cli.eval_density_ms": "ms",
    "cli.eval_mean_ms": "ms",
    "cli.eval_cdf_ms": "ms",
    "cli.eval_quantile_ms": "ms",
    "cli.eval_loclin_ms": "ms",
    "cli.jitter_ms": "ms",
    "cli.benchmark_ms": "ms",
}
COUNTED_SPANS = tuple(m[: -len("_ms")] for m in SPAN_METRICS if m.startswith("regression."))
LAYERS = ("noise", "data", "estimators", "regression", "quadrature", "oracle", "cli")
_UNIT_NS = {"ms": 1e6, "us": 1e3}


def span_name(metric: str) -> str:
    return metric.rsplit("_", 1)[0]


class Tracer:
    """Records a span around each call the benchmark makes into a layer.

    A span is ``(name, start_ns, end_ns, parent, op_id)``; ``parent`` is
    the index of the enclosing span, ``op_id`` the op it belongs to.
    Spans stay in memory until :meth:`dump`. Built with
    ``available=False``, :meth:`wrap` hands back the function itself, so
    an untraced run pays nothing for the instrumentation.
    """

    def __init__(self, available: bool):
        self.available = available
        self.enabled = False
        self.spans: list = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        if not self.available:
            return fn

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id}) + "\n")


@dataclass
class Op:
    """One request of the closed loop: ``call`` runs it, ``args`` describe it
    to the workload's output check."""

    kind: str
    call: Callable[[], object]
    args: dict = field(default_factory=dict)


@dataclass
class OpResult:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None


def run_ops(next_round: Callable[[int], list[Op]], seconds: float, tracer: Tracer,
            first_round: int = 0) -> tuple[list[OpResult], float]:
    """Run whole rounds of ops until ``seconds`` have passed.

    Ending on a round boundary keeps the op mix, and so every statistic
    over it, the same from run to run. Returns the results and the
    wall time of the phase.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    index = first_round
    while True:
        for op in next_round(index):
            tracer.op_id = len(results)
            call = tracer.wrap("op." + op.kind, op.call)
            t0 = time.perf_counter()
            try:
                output, error = call(), None
            except Exception as exc:  # a failed op is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append(OpResult(op, time.perf_counter() - t0, output, error))
        tracer.op_id = None
        index += 1
        if time.perf_counter() - start >= seconds:
            return results, time.perf_counter() - start


def timed_setup(setup: Callable[[], None], min_repeats: int, min_seconds: float,
                max_repeats: int) -> tuple[list[float], int]:
    """Wall-time samples of one ``setup``, and the number of set-ups run.

    A set-up shorter than a millisecond is timed in batches that each take
    about a millisecond, and a batch's mean is one sample, so that timer
    granularity and single hiccups do not set the median.
    """
    t0 = time.perf_counter()
    setup()
    first = time.perf_counter() - t0
    batch = max(1, min(max_repeats // min_repeats, math.ceil(BATCH_SECONDS / max(first, 1e-9))))
    samples = [first] if batch == 1 else []
    total, count = first, 1
    while count < max_repeats and (len(samples) < min_repeats or total < min_seconds):
        t0 = time.perf_counter()
        for _ in range(batch):
            setup()
        elapsed = time.perf_counter() - t0
        samples.append(elapsed / batch)
        total += elapsed
        count += batch
    return samples, count


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at least
    ten ops beyond it; nearest-rank. Falls back to the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size in MB (10^6 B) of this process, or of the
    largest child process waited for. Linux reports it in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def span_metrics(spans: list) -> dict[str, tuple[float, int]]:
    """Median duration (in the metric's unit) and call count per span metric."""
    durations = defaultdict(list)
    for name, start, end, _parent, _op in spans:
        durations[name].append(end - start)
    out = {}
    for metric, unit in SPAN_METRICS.items():
        values = durations.get(span_name(metric), [])
        out[metric] = (statistics.median(values) / _UNIT_NS[unit] if values else 0.0,
                       len(values))
    return out


def layer_self_ms(spans: list) -> dict[str, float]:
    """Self time per layer over the spans that belong to an op, in ms.

    A span's self time is its duration minus that of its direct children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op_id in spans:
        if parent is not None:
            child_ns[parent] += end - start
    total = defaultdict(int)
    for i, (name, start, end, _parent, op_id) in enumerate(spans):
        if op_id is not None:
            total[name.split(".", 1)[0]] += end - start - child_ns[i]
    return {layer: total.get(layer, 0) / 1e6 for layer in LAYERS}


def integrand_evals_per_integral(spans: list) -> float:
    """Mean number of traced integrand calls per traced adaptive_integral."""
    integrals = {i for i, s in enumerate(spans) if s[0] == "quadrature.adaptive_integral"}
    if not integrals:
        return 0.0
    evals = sum(1 for s in spans if s[3] in integrals and s[0] == "noise.eta_density")
    return evals / len(integrals)


def _command_output(args: list[str], cwd: str | None = None) -> str:
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=10, cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        commit = _command_output(["git", "rev-parse", "HEAD"], cwd=root)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": _command_output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _command_output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<44} {text:>14} {unit:<6} {note}".rstrip())


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def python_command(root: str) -> tuple[list[str], dict]:
    """How to start the jitterkit CLI from this checkout's sources."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return [sys.executable, "-m", "jitterkit"], env
