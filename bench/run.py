"""jitterkit benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload functionals --seed 1 --seconds 20 --trace 0

Runs the workload against the jitterkit sources in ``src/`` of the
checkout this file sits in, checks every output, and prints each metric
by name with its unit, then the machine record, then as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around every call into a layer.
``--workload all`` runs the four workloads one after another, each in a
process of its own. RATIONALE.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402  (needs HERE on the path)

WORKLOAD_NAMES = ("functionals", "point-eval", "oracle", "cli")
E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True, help="nonnegative workload seed")
    p.add_argument("--seconds", type=float, required=True, help="length of the op phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-every", type=int, default=0, metavar="N",
                   help="corrupt every N-th op output before checking (shows error_rate rise)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.corrupt_every < 0:
        p.error("--seed and --corrupt-every must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import jitterkit from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jitterkit", "__init__.py")):
        sys.exit(f"bench: no jitterkit sources under {src}")
    sys.path.insert(0, src)
    import jitterkit

    if os.path.dirname(os.path.dirname(os.path.abspath(jitterkit.__file__))) != src:
        sys.exit(f"bench: imported jitterkit from {jitterkit.__file__}, not {src}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--corrupt-every", str(args.corrupt_every)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        last = json.loads(lines[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def check_all(wl, results, corrupt_every: int) -> tuple[int, list[str], list[str]]:
    """Count failed ops, list run-level failures, and prove the checker.

    Returns (failed ops, run-level failures, first few op failures).
    """
    run_failures = wl.run_checks(results)
    failed, examples = 0, []
    for i, r in enumerate(results):
        if r.error is None and corrupt_every and i % corrupt_every == 0:
            r = dataclasses.replace(r, output=wl.corrupt(r))
        problem = r.error or wl.check(r, i)
        if problem:
            failed += 1
            if len(examples) < 5:
                examples.append(f"op {i} ({r.op.kind}): {problem}")
    # self-check: a corrupted copy of one fully checked op of each kind must fail
    seen = set()
    for i, r in enumerate(results):
        if r.error is None and r.op.kind not in seen and wl.checked_in_full(i):
            seen.add(r.op.kind)
            if wl.check(dataclasses.replace(r, output=wl.corrupt(r)), i) is None:
                run_failures.append(f"checker accepted a corrupted {r.op.kind} output")
    return failed, run_failures, examples


def run_workload(args) -> int:
    from workloads import WORKLOADS

    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = harness.Tracer(available=bool(args.trace))
    try:
        wl = WORKLOADS[args.workload](args.seed, tracer, workdir, ROOT)
        tracer.enabled = bool(args.trace)
        setup_times, setup_n = harness.timed_setup(wl.setup, *wl.setup_repeats)
        tracer.enabled = False
        wl.warm_up()
        seconds = args.seconds / 2 if args.trace else args.seconds
        results, phase_s = harness.run_ops(wl.round, seconds, tracer, first_round=1)
        untraced = results
        if args.trace:
            tracer.enabled = True
            traced, phase_s = harness.run_ops(wl.round, seconds, tracer, first_round=1)
            results = untraced + traced
        # peak memory of inputs, set-up and ops; the checks below allocate their own
        rss = harness.peak_rss_mb(children=wl.rss_of_children)
        # Set up again after the ops, so that set-up samples come from both ends of
        # the run and a few seconds of a slow machine cannot set their median.
        tracer.enabled = bool(args.trace)
        more_times, more_n = harness.timed_setup(wl.setup, *wl.setup_repeats)
        setup_s, setup_n = statistics.median(setup_times + more_times), setup_n + more_n
        failed, run_failures, examples = check_all(wl, results, args.corrupt_every)
        tracer.enabled = False
        notes = wl.notes()
        if args.trace:
            os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
            tracer.dump(os.path.join(work_root, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r.seconds for r in (traced if args.trace else results)]
    tail_p, tail_s = harness.tail(latencies)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(latencies)} in {phase_s:.3f} s  set-ups {setup_n}"
          + (f"  spans {len(tracer.spans)}" if args.trace else ""))
    p = harness.print_metric
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ops_per_s": len(latencies) / phase_s,
            "peak_rss_mb": rss,
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
        for name, (value, unit) in metrics.items():
            note = f"p{tail_p:g} of {len(latencies)} ops" if name == "op_tail_ms" else ""
            p(name, value, unit, note)
    else:
        metrics = trace_metrics(tracer.spans, untraced, traced, notes)
        counts = harness.span_metrics(tracer.spans)
        for name, (value, unit) in metrics.items():
            note = f"{counts[name][1]} calls" if name in counts else ""
            p(name, value, unit, note)
    p("error_rate", failed / len(results), "ratio", f"{failed} of {len(results)} ops")
    for name, value in notes.items():
        p(name, value, "MB" if name.endswith("_mb") else "B")
    for line in run_failures + examples:
        print(f"  FAIL {line}")
    env = harness.environment(ROOT, args.workload, args.seed)
    env["note"] = (f"point-eval keeps {WORKLOADS['point-eval'].replicate_bytes} B of jitter "
                   f"replicates per model, inside the {env['l3_bytes']} B L3: no memory-bandwidth "
                   "metric is claimed, and bytes per point are computed, not measured")
    print("# env " + json.dumps(env))
    correct = failed == 0 and not run_failures
    print(harness.result_line(correct, len(results), failed, metrics))
    return 0


def trace_metrics(spans, untraced, traced, notes) -> dict:
    metrics = {}
    counts = harness.span_metrics(spans)
    for name, (value, count) in counts.items():
        metrics[name] = (value, harness.SPAN_METRICS[name])
    for name in harness.COUNTED_SPANS:
        metrics[name + "_calls"] = (counts[name + "_ms"][1], "count")
    for layer, ms in harness.layer_self_ms(spans).items():
        metrics[f"{layer}.self_ms_per_op"] = (ms / len(traced), "ms/op")
    metrics["quadrature.integrand_evals_per_call"] = (
        harness.integrand_evals_per_integral(spans), "count")
    metrics["estimators.artifact_bytes"] = (round(notes.get("artifact_mb", 0.0) * 1e6), "B")
    p50_off = statistics.median(r.seconds for r in untraced) * 1e3
    p50_on = statistics.median(r.seconds for r in traced) * 1e3
    metrics["trace.op_p50_untraced_ms"] = (p50_off, "ms")
    metrics["trace.op_p50_traced_ms"] = (p50_on, "ms")
    metrics["trace.overhead_ms"] = (p50_on - p50_off, "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
