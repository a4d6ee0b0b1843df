"""opinion-lab benchmark.

    python3 bench/run.py --workload {campaign,large_n,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Inputs come from ``--seed``; the
library under ``src/`` receives only the generated inputs.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it name every
measured quantity with its unit and sample count.  A full record, with the
environment, goes to ``.bench_out/``; a traced run also writes its spans
there.  The exit code is 1 when a correctness check fails and 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Functions whose time is reported per layer; each runs on every workload.
TIMED_LAYERS = (
    "graph.proximity_mask",
    "graph.build_digraph",
    "graph.classify",
    "graph.strongly_connected_components",
    "matrix.adjacency_matrix",
    "matrix.canonical_decomposition",
    "matrix.fvct_canonical",
)
# Functions whose call count is reported per layer.
COUNTED_LAYERS = TIMED_LAYERS + (
    "dynamics.digraph_hash",
    "dynamics.simulate",
    "dynamics.pseudo_stable_check",
    "matrix.fvct",
    "matrix.spectral_radius",
    "matrix.left_perron_vector",
    "stability.equi_topology_distance",
    "stability.invariant_equi_topology_distance",
    "stability.in_neighborhood",
    "stability.stability_report",
    "leader.analyze_final_topology",
    "leader.leader_assignment",
    "leader.verify_rate_prediction",
    "leader.verify_direction_prediction",
    "experiment.run_campaign",
    "experiment.run_single",
    "experiment.draw_state",
    "experiment.emit_results",
    "cli.main",
    "cli.load_state",
)
TIMES = ("total_ms", "self_ms", "self_cpu_ms")
# Calls, times and the step and epoch counts are per input: a run repeats
# its inputs as often as its seconds allow, so totals would grow with
# throughput.
PER_INPUT = {"count": "count/input", "ms": "ms/input"}

E2E = {"setup_s": "s", "unit_ms_norm": "ms"}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in the order reported."""
    units = {f"{fn}.calls": PER_INPUT["count"] for fn in COUNTED_LAYERS}
    units.update({f"{fn}.{key}": PER_INPUT["ms"] for fn in TIMED_LAYERS for key in TIMES})
    units["dynamics.steps"] = units["dynamics.epochs"] = PER_INPUT["count"]
    units["dynamics.epochs_per_step"] = "ratio"
    units["trace.overhead_pct"] = units["trace.coverage_pct"] = "%"
    return units


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def probe() -> None:
    """Set-up as a user pays it: interpreter start, imports, and a first
    call through every layer on a tiny input."""
    from opinion_lab import Model, cli, dynamics, experiment, leader, stability  # noqa: F401

    state = experiment.draw_state(Model.SBC, 8, 0, 0)
    traj = dynamics.simulate(state)
    leader.analyze_final_topology(traj)
    stability.stability_report(state)


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe"], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "opinion_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads_in_use(),
        "opinion_lab_threads": os.environ.get("OPINION_LAB_THREADS"),
        "seed": seed,
        "machine": platform.machine(),
    }


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, or
    "unknown" for another BLAS."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_passes(items, seconds, execute):
    """Call ``execute(index, item)`` on every input once, then again in
    further passes over the same inputs, for as long as the next call is
    expected to end within ``seconds`` of the start.  Returns one list of
    outcomes per input, the first from the first pass."""
    start = time.perf_counter()
    runs, took = [], []
    for index, item in enumerate(items):
        began = time.perf_counter()
        runs.append([execute(index, item)])
        took.append(time.perf_counter() - began)
    while True:
        for index, item in enumerate(items):
            if time.perf_counter() - start + took[index] > seconds:
                return runs
            began = time.perf_counter()
            runs[index].append(execute(index, item))
            took[index] = time.perf_counter() - began


def traced_pair(execute, tracer, index, item) -> tuple:
    """(untraced, traced) outcomes of one input.  The order alternates
    between inputs so that warm-up effects do not count as overhead."""
    import tracing

    def traced():
        with tracing.instrument(tracer, {"dynamics.simulate": _count_trajectory}):
            return execute(index, item)

    if index % 2:
        second = traced()
        return execute(index, item), second
    first = execute(index, item)
    return first, traced()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("campaign", "large_n", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Pin BLAS before numpy loads (the probes inherit it): the campaign's
    # own threads then never exceed the usable cores.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    if not os.path.isfile(os.path.join(SRC, "opinion_lab", "__init__.py")):
        fail(f"no opinion_lab package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    if args.probe:
        probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ["OPINION_LAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    # A handler on the root logger keeps the CLI's basicConfig from
    # attaching one to the captured stderr.
    logging.getLogger().addHandler(logging.NullHandler())

    import workloads

    setup_s = measure_setup()
    probe()  # lazy set-up happens here, outside the timed region
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        record = measure(workload, args, scratch, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for problem in record["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for key, (value, unit, samples) in record["detail"].items():
        print(f"{args.workload} {key} = {value:.6g} {unit} (n={samples})")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def measure(workload, args, scratch, setup_s) -> dict:
    import hostspeed
    import tracing

    items = workload.items(args.seed, scratch)
    speed = []

    def execute(index, item):
        # The machine's speed around this call: reference samples just
        # before and just after it.
        samples = [hostspeed.reference() for _ in range(hostspeed.SAMPLES_PER_SIDE)]
        outcome = workload.execute(item, scratch)
        samples += [hostspeed.reference() for _ in range(hostspeed.SAMPLES_PER_SIDE)]
        speed.append(statistics.median(samples))
        outcome.data["reference_ms"] = speed[-1]
        return outcome

    spans_path = None
    if args.trace:
        tracer = tracing.Tracer()
        pairs = run_passes(items, args.seconds, lambda i, item: traced_pair(execute, tracer, i, item))
        plain = [[p[0] for p in pair] for pair in pairs]
        runs = [[p[1] for p in pair] for pair in pairs]
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
        tracer.dump(spans_path)
    else:
        runs = run_passes(items, args.seconds, execute)

    # Every outcome is checked; the counts come from the first pass, so
    # they depend on the seed alone and not on how many passes fitted.
    problems = []
    failed = attempted = 0
    for index, (item, outcomes) in enumerate(zip(items, runs)):
        first = outcomes[0]
        for repeat, outcome in enumerate(outcomes):
            found = workload.check(item, outcome)
            problems.extend(found)
            if repeat == 0:
                failed += first.failed or (1 if found else 0)
            elif outcome.failed != first.failed:
                problems.append(f"input {index}: {outcome.failed} failures on repeat {repeat}, {first.failed} on the first")
        attempted += first.attempted
    detail = workload.summarize(items, runs)
    normalised = [[hostspeed.normalise(o) for o in outcomes] for outcomes in runs]
    detail["unit_ms_norm"] = workload.summarize(items, normalised)["unit_ms"]
    detail["reference_ms"] = (statistics.median(speed), "ms", len(speed))
    detail["setup_s"] = (setup_s, "s", SETUP_PROBES)
    detail["fail_frac"] = (failed / attempted, "ratio", attempted)
    detail["passes"] = (statistics.fmean(len(o) for o in runs), "count", len(items))

    if args.trace:
        metrics, extra = layer_metrics(tracer, detail, items, runs, plain)
        detail.update(extra)
    else:
        metrics = {name: {"value": detail[name][0], "unit": unit} for name, unit in E2E.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "detail": detail,
        "problems": problems,
        "spans": spans_path,
        "result": result,
    }


def _count_trajectory(tracer, traj) -> None:
    tracer.count("dynamics.steps", traj.times[-1])
    tracer.count("dynamics.epochs", len(traj.topology_epochs))


def layer_metrics(tracer, detail, items, traced, plain):
    """Per-layer metrics of a traced run, per traced execution of an input,
    plus detail lines with the totals of every wrapped function."""
    import tracing

    layers = tracing.layer_times(tracer.spans)
    traced = [o for outcomes in traced for o in outcomes]
    plain = [o for outcomes in plain for o in outcomes]
    inputs = len(traced)
    units = per_layer_units()
    metrics = {}
    extra = {}
    # Shares of CPU self time: on the campaign's worker threads, wall time
    # also counts waits for the interpreter lock and for the pool.
    cpu_total = sum(row["self_cpu_ms"] for row in layers.values())
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_cpu_ms"]):
        for key, value in row.items():
            extra[f"{name}.{key}"] = (value, "count" if key == "calls" else "ms", row["calls"])
        extra[f"{name}.self_cpu_pct"] = (100.0 * row["self_cpu_ms"] / cpu_total, "%", row["calls"])
    for fn in COUNTED_LAYERS:
        row = layers.get(fn, {"calls": 0})
        metrics[f"{fn}.calls"] = row["calls"] / inputs
        if fn in TIMED_LAYERS:
            for key in TIMES:
                metrics[f"{fn}.{key}"] = row[key] / inputs
    if "dynamics.steps" in detail:
        # Counted once per input (each repeat takes the same steps).
        steps, epochs = detail["dynamics.steps"][0], detail["dynamics.epochs"][0]
        counted = len(items)
    else:
        steps = tracer.counts.get("dynamics.steps", 0)
        epochs = tracer.counts.get("dynamics.epochs", 0)
        counted = inputs
        extra["dynamics.steps"] = (steps, "count", inputs)
        extra["dynamics.epochs"] = (epochs, "count", inputs)
    metrics["dynamics.steps"] = steps / counted
    metrics["dynamics.epochs"] = epochs / counted
    metrics["dynamics.epochs_per_step"] = epochs / steps if steps else 0.0
    traced_ms = sum(o.ms for o in traced)
    plain_ms = sum(o.ms for o in plain)
    top_ms = tracing.top_level_ms(tracer.spans, threading.main_thread().ident)
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / plain_ms - 1.0)
    metrics["trace.coverage_pct"] = 100.0 * top_ms / traced_ms
    extra["trace.untraced_ms"] = (plain_ms, "ms", len(plain))
    extra["trace.traced_ms"] = (traced_ms, "ms", len(traced))
    extra["trace.top_level_ms"] = (top_ms, "ms", len(traced))
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, extra


if __name__ == "__main__":
    sys.exit(main())
