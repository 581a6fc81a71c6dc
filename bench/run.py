"""Host-time benchmark of the Anaheim reproduction.

One workload, measured in this process::

    python3 bench/run.py --workload boot --seed 0 --seconds 20 --trace 0

Every workload (or one, ``--runs N`` times with seeds S..S+N-1), each
in its own fresh subprocess, one after another; writes
``bench/out/result.json`` for ``bench/compare.py``::

    python3 bench/run.py --seed 0 --runs 3

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and shimmed steps and prints the per-layer metrics (see
``bench/layers.py``), writing ``bench/out/trace-<workload>-seed<S>.json``
as a Chrome trace.  ``--smoke`` runs two steps per workload on reduced
inputs.  The last line of standard output is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The kernel thread pool and the BLAS/OpenMP pools are pinned to one
thread, so a run keeps to one core.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("boot", "mlp", "sweep", "serve")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (host time, tracing off) and their units.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}

#: ``setup_s`` is the median of this many set-ups, each in a fresh
#: process, so caches a set-up fills never make the next one cheaper.
SETUP_RUNS = 3

#: A traced run fails when layer self-times miss the traced op wall
#: time by more than this share.
CLOSURE_TOLERANCE = 0.05

CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured host seconds per run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (seeds S..S+N-1), each in "
                             "a fresh subprocess")
    parser.add_argument("--smoke", action="store_true",
                        help="two steps per workload on reduced inputs")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                        help="result document of a multi-run invocation")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute bench/reference.json and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and pin threads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import repro from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: repro imported from {repro.__file__}, "
                         f"not from {src}")
    from repro.parallel import set_threads
    set_threads(1)


def _last_json_line(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def _child(argv, timeout: float) -> dict:
    """Run ``run.py`` with ``argv`` in a fresh process; its result."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)]
                          + argv, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"bench: {' '.join(argv)} exited "
                         f"{proc.returncode}")
    return _last_json_line(proc.stdout)


def fresh_setup_seconds(args) -> float:
    """Set-up time of this workload and seed in a fresh process."""
    return _child(["--setup-only", "--workload", args.workload, "--seed",
                   str(args.seed)], CHILD_TIMEOUT_S)["setup_s"]


def _quantile(values, q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def measure(args) -> dict:
    """One run of one workload; the result object."""
    from layers import LayerRecorder, ShimError, per_layer_units
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    start = time.perf_counter()
    workload.setup()
    setups = [time.perf_counter() - start]
    if args.setup_only:
        return {"setup_s": setups[0]}
    if not args.smoke:
        setups += [fresh_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    try:
        recorder = LayerRecorder() if args.trace else None
    except ShimError as exc:
        raise SystemExit(f"bench: {exc}")

    # [wall seconds, ops] of untraced and traced steps.
    books = {False: [0.0, 0], True: [0.0, 0]}
    latencies = []
    rates = []
    attempted = failed = 0
    step = 0
    deadline = time.perf_counter() + args.seconds
    while step < 2 or (not args.smoke and time.perf_counter() < deadline):
        traced = recorder is not None and step % 2 == 1
        step += 1
        inputs = workload.prepare()
        began = time.perf_counter()
        try:
            if traced:
                outputs, ops = recorder.op(lambda: workload.run(inputs))
            else:
                outputs, ops = workload.run(inputs)
        except Exception:
            # An op that raises counts as attempted and failed.
            traceback.print_exc()
            attempted += 1
            failed += 1
            continue
        wall = time.perf_counter() - began
        ops = ops if ops is not None else [wall]
        books[traced][0] += wall
        books[traced][1] += len(ops)
        if not traced:
            latencies += ops
            rates.append(len(ops) / wall)
        tried, bad = workload.check(inputs, outputs)
        attempted += tried
        failed += bad

    if not latencies:
        raise SystemExit(f"bench: {args.workload} completed no untraced op")
    if args.trace:
        metrics = traced_metrics(args, workload, recorder, books)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"{args.workload}: {len(latencies)} ops in {step} steps, "
              f"op p50 {metrics['op_p50_ms']:.3f} ms, "
              f"p95 {1e3 * _quantile(latencies, 0.95):.3f} ms; "
              f"setups {', '.join(f'{s:.3f}' for s in setups)} s")
    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))}"
                         f" are not the declared set")
    print(f"{args.workload}: {workload.describe()}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def traced_metrics(args, workload, recorder, books) -> dict:
    """Per-layer metrics of a traced run, after the loud checks."""
    from repro.obs.export import chrome_trace_from_tracer, write_json

    from layers import per_layer_units

    unhit = recorder.unhit(args.workload)
    if unhit:
        raise SystemExit(f"bench: {args.workload} never reached shim "
                         f"target(s) {', '.join(unhit)}")
    (plain_s, plain_ops), (traced_s, traced_ops) = books[False], books[True]
    if not traced_ops:
        raise SystemExit(f"bench: {args.workload} completed no traced op")
    closure = recorder.self_seconds() / traced_s
    if abs(closure - 1.0) > CLOSURE_TOLERANCE:
        raise SystemExit(f"bench: {args.workload} layer self-times sum to "
                         f"{closure:.4f} of the traced op wall time")
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    metrics.update(recorder.metrics(traced_ops))
    metrics.update(workload.layer_metrics())
    metrics["trace.overhead"] = ((traced_s / traced_ops)
                                 / (plain_s / plain_ops) - 1.0)
    metrics["trace.closure"] = closure

    document = chrome_trace_from_tracer(recorder.tracer)
    document["otherData"] = {"workload": args.workload, "seed": args.seed,
                             "traced_ops": traced_ops,
                             "per_layer": metrics,
                             "counters": dict(recorder.tracer.counters)}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}"
                                 ".json")
    write_json(path, document)
    print(f"{args.workload}: {traced_ops} traced ops, tracing overhead "
          f"{metrics['trace.overhead']:+.1%}, closure {closure:.4f}, "
          f"trace in {os.path.relpath(path, ROOT)}")
    return metrics


def orchestrate(args) -> dict:
    """Every selected workload x run in fresh subprocesses, in turn."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        for index in range(args.runs):
            seed = args.seed + index
            argv = ["--workload", name, "--seed", str(seed), "--seconds",
                    repr(args.seconds), "--trace", str(args.trace)]
            if args.smoke:
                argv.append("--smoke")
            print(f"== {name} seed {seed}", flush=True)
            result = _child(argv, CHILD_TIMEOUT_S)
            runs.setdefault(name, []).append(dict(result, seed=seed))
    document = {"seconds": args.seconds, "trace": args.trace,
                "smoke": args.smoke, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")

    summary = {}
    for name, results in runs.items():
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            summary[f"{name}.{metric}"] = {"value": median, "unit": unit}
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f" [{q1:.6g}, {q3:.6g}]"
            else:
                spread = ""
            print(f"{name:6} {metric:44} {median:14.6g}{spread} {unit}")
    print(f"wrote {os.path.relpath(args.out)}")
    everything = [r for results in runs.values() for r in results]
    return {"correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": summary}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    if args.write_reference:
        from workloads import write_reference
        write_reference()
        print("wrote bench/reference.json")
        return 0
    if args.workload == "all" or args.runs > 1:
        result = orchestrate(args)
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
