#!/usr/bin/env python3
"""Benchmark of uavsched: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``sweep`` (paper-scale Monte Carlo sweep),
``exact`` (exact-solver sweeps on sparse networks) and ``solve`` (controller
requests through ``cli.main``).  The package is imported from ``src/`` next
to this directory and driven in this one process with ``workers=1``.

``--trace 0`` cycles through the workload's rounds until ``--seconds`` have
passed and prints the end-to-end metrics; setup is timed in separate
processes, once before the first round and once after each cycle, and
reported as the median.  Times are in reference-speed seconds: each unit
of work (a sweep cell, a request, a setup) is scaled by the host's speed
while it ran (see gauge.py), and counts at the median of its repeats.
``--trace 1`` sets up once with spans recorded, then runs each round twice,
untraced and traced, and prints the per-layer metrics, in plain seconds,
plus the tracing overhead, in reference-speed seconds; the spans are
written to
``.perfbench/spans-<workload>-seed<seed>.csv.gz``.  Every output is checked
(see checks.py); the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
from collections import Counter
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from gauge import SpeedGauge
from spans import Tracer
from workloads import LATENCY_KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# setup is timed at least SETUP_MIN and at most SETUP_MAX times per run
SETUP_MIN, SETUP_MAX = 5, 9
# no round starts after this many seconds, so a run ends well within 180 s
HARD_STOP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# per-layer time metric -> (span name, inclusive or self time)
LAYER_TIMES = {
    "netgen.generate_network_s": ("netgen.generate_network", "inclusive"),
    "netgen.sample_flow_routes_s": ("netgen.sample_flow_routes", "inclusive"),
    "netgen.shortest_route_s": ("netgen.shortest_route", "inclusive"),
    "model.build_instance_s": ("model.build_instance", "inclusive"),
    "model.instance_from_json_s": ("model.instance_from_json", "inclusive"),
    "model.instance_to_json_s": ("model.instance_to_json", "inclusive"),
    "model.compute_energy_s": ("model.compute_energy", "inclusive"),
    "sched.heuristic_s": ("sched.heuristic", "inclusive"),
    "sched.random_s": ("sched.random", "inclusive"),
    "sched.exact_dp_s": ("sched.exact_dp", "inclusive"),
    "ordering.build_ilp_s": ("ordering.build_ilp", "inclusive"),
    "ordering.lp_text_s": ("ordering.lp_text", "inclusive"),
    "experiment.run_experiment_self_s": ("experiment.run_experiment", "self"),
    "experiment.csv_text_s": ("experiment.csv_text", "inclusive"),
    "experiment.svg_text_s": ("experiment.svg_text", "inclusive"),
    "cli.self_s": ("cli.main", "self"),
}

# per-layer count metric -> (tracer counter, unit), summed like the times
LAYER_COUNTS = {
    "netgen.route_calls": ("route_calls", "count"),
    "netgen.route_rejections": ("route_rejections", "count"),
    "sched.exact_dp_calls": ("exact_dp_calls", "count"),
    "sched.exact_dp_skipped": ("exact_dp_skipped", "count"),
    "sched.exact_dp_states": ("exact_dp_states", "count"),
    "ordering.lp_bytes": ("lp_bytes", "bytes"),
    "cli.nonzero_exits": ("cli_nonzero_exits", "count"),
}

PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: unit for name, (_, unit) in LAYER_COUNTS.items()},
    "netgen.route_yield": "ratio",
    "netgen.route_repeat_frac": "ratio",
    "model.flows_kept_mean": "count",
    "model.flows_kept_max": "count",
    "model.uavs_pinned_mean": "count",
    "sched.heuristic_over_exact": "ratio",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="uavsched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import uavsched from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import uavsched
        from uavsched import cli, errors, experiment, model, netgen, ordering, sched  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import uavsched from {src}: {exc}")
    if Path(uavsched.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported uavsched from {uavsched.__file__}, not from {src}")
    return uavsched


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


def timed_setup(args, target: Path, gauge: SpeedGauge) -> float:
    """Run the workload's setup into ``target`` in a fresh process; returns its scaled time."""
    target.mkdir()
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only", str(target),
    ]
    gauge.boundary(force=True)
    start = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    end = time.perf_counter()
    gauge.boundary(force=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: setup exited {done.returncode}:\n{done.stderr}")
    return gauge.scale(start, end)


def spare_setup(args, workdir: Path, gauge: SpeedGauge) -> float:
    """Time one more setup and drop its files."""
    target = workdir / "spare"
    elapsed = timed_setup(args, target, gauge)
    shutil.rmtree(target)
    return elapsed


def run_plain(pkg, workload, args, workdir: Path, started: float, checked: list):
    gauge = SpeedGauge()
    setup_dir = workdir / "setup"
    setup_times = [timed_setup(args, setup_dir, gauge)]
    workload.attach(pkg, args.seed, setup_dir)
    # (round, unit key) -> the unit's scaled and raw times, one per repeat; a
    # round's outputs are dropped once checked, so memory stays flat over a run
    repeats: dict = {}
    passes = 0
    begin = time.perf_counter()
    while True:
        index = passes % workload.rounds
        done = workload.run_round(index, Counter(), gauge)
        checked.append(workload.check(done))
        for key, start, end in done.units:
            repeats.setdefault((index, key), []).append((gauge.scale(start, end), end - start))
        del done
        passes += 1
        cycle_done = passes % workload.rounds == 0
        if cycle_done and len(setup_times) < SETUP_MAX:
            # setups spread over the run meet the host in more of its states
            setup_times.append(spare_setup(args, workdir, gauge))
        now = time.perf_counter()
        # a run ends on a whole cycle, so every distinct round has as many repeats
        if now - started >= HARD_STOP_S or (now - begin >= args.seconds and cycle_done):
            break
    while len(setup_times) < SETUP_MIN:
        setup_times.append(spare_setup(args, workdir, gauge))
    round_walls, raw_walls, operations = Counter(), Counter(), Counter()
    for (index, (operation, _)), times in repeats.items():
        scaled = statistics.median(t for t, _ in times)
        round_walls[index] += scaled
        raw_walls[index] += statistics.median(t for _, t in times)
        if operation[0] in LATENCY_KINDS:
            operations[index, operation] += scaled
    latencies = list(operations.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(round_walls.values()),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - sum(len(f) for _, f in checked) / sum(a for a, _ in checked),
    }
    notes = [
        f"host speed: median {gauge.speed():.3f} of the reference over {len(gauge.values)} calibrations;"
        " times below are in reference-speed seconds",
        f"setup_s: median of {len(setup_times)} setups in fresh processes, spread over the run",
        f"wall_s: mean over {len(round_walls)} distinct rounds of the sum of their units' median times;"
        f" {passes} rounds run; unscaled {statistics.fmean(raw_walls.values()):.6f} s",
        f"latency: {len(latencies)} operations, each the sum of its parts' median times,"
        f" {len(latencies) // 10} beyond p90,"
        " closed loop with one client",
    ]
    return metrics, END_TO_END, notes


def run_traced(pkg, workload, args, workdir: Path, started: float, checked: list):
    tracer = Tracer()
    setup_dir = workdir / "setup"
    setup_dir.mkdir()
    with tracer.installed(pkg), tracer.phase("setup"):
        workload.setup(pkg, args.seed, setup_dir)
    workload.attach(pkg, args.seed, setup_dir)
    gauge = SpeedGauge(tracer=tracer)
    overheads = []
    begin = time.perf_counter()
    passes = 0
    while True:
        index = passes % workload.rounds
        # untraced and traced runs of a round alternate which goes first
        for traced_turn in (passes % 2 == 1, passes % 2 == 0):
            if traced_turn:
                with tracer.installed(pkg), tracer.phase(f"round:{index}") as counters:
                    traced = workload.run_round(index, counters, gauge)
                checked.append(workload.check(traced))
            else:
                plain = workload.run_round(index, Counter(), gauge)
                checked.append(workload.check(plain))
        traced_s, plain_s = (sum(gauge.scale(start, end) for _, start, end in r.units) for r in (traced, plain))
        overheads.append((traced_s - plain_s, traced_s / plain_s - 1))
        passes += 1
        now = time.perf_counter()
        if now - begin >= args.seconds or now - started >= HARD_STOP_S:
            break
    metrics = layer_metrics(tracer)
    metrics["bench.trace_overhead_s"] = statistics.median(o[0] for o in overheads)
    metrics["bench.trace_overhead_frac"] = statistics.median(o[1] for o in overheads)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_path, stamp(args))
    notes = [
        f"per-layer: setup plus the median of {passes} traced rounds; ratios over all traced spans",
        f"spans: {len(tracer.starts)} written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, PER_LAYER, notes


def layer_metrics(tracer: Tracer) -> dict:
    """Additive metrics are setup's value plus the median round's; ratios pool every phase."""
    setup_values: Counter = Counter()
    round_values: list[dict] = []
    pooled: Counter = Counter()
    kept_max = 0
    for label, first, stop, counters in tracer.phases:
        inclusive, own = tracer.totals(first, stop)
        values = {
            metric: (own if kind == "self" else inclusive).get(span, 0.0)
            for metric, (span, kind) in LAYER_TIMES.items()
        }
        values.update({metric: counters[key] for metric, (key, _) in LAYER_COUNTS.items()})
        if label == "setup":
            setup_values.update(values)
        else:
            round_values.append(values)
        kept_max = max(kept_max, counters["flows_kept_max"])
        pooled.update({k: v for k, v in counters.items() if k != "flows_kept_max"})
    metrics = {
        metric: setup_values[metric] + statistics.median(v[metric] for v in round_values)
        for metric in (*LAYER_TIMES, *LAYER_COUNTS)
    }

    def share(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    calls = pooled["route_calls"]
    metrics["netgen.route_yield"] = share(calls - pooled["route_rejections"], calls)
    metrics["netgen.route_repeat_frac"] = share(pooled["route_repeats"], calls)
    metrics["model.flows_kept_mean"] = share(pooled["flows_kept"], pooled["instances"])
    metrics["model.flows_kept_max"] = kept_max
    metrics["model.uavs_pinned_mean"] = share(pooled["uavs_pinned"], pooled["instances"])
    metrics["sched.heuristic_over_exact"] = share(pooled["ratio_sum"], pooled["ratio_pairs"])
    return metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    pkg = import_package()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(pkg, args.seed, Path(args.setup_only))
        return 0
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    checked: list[tuple[int, list[str]]] = []  # (operations attempted, failures) per checked round
    try:
        run = run_traced if args.trace else run_plain
        metrics, units, notes = run(pkg, workload, args, workdir, started, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(a for a, _ in checked)
    failures = [failure for _, found in checked for failure in found]
    failed = len(failures)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("stamp " + json.dumps(stamp(args), sort_keys=True))
    for note in notes:
        print(note)
    print(f"operations: {attempted} attempted, {failed} failed, failed_frac = {failed / attempted}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
