"""Command-line front end: generation, scheduling, ILP export, experiments.

All randomness sits behind explicit --seed flags; rerunning a command with
the same flags reproduces the same files (measured wall times excepted).
Human-readable messages go to stderr, machine output to files only.

Exit codes: 0 success, 2 invalid input or parameters (ValueError), 3 I/O
failure, 4 size cap exceeded (a solver's or the LP export's), 130 interrupted
(Ctrl-C, or SIGTERM during an experiment).
"""

import argparse
from functools import cache
import json
from pathlib import Path
import signal
import sys
import threading

from . import experiment as exp
from . import model, netgen, ordering, sched
from .errors import InstanceTooLarge, IoFailure, write_text


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"could not read {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _write_json(path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # an infinite or NaN number, which JSON cannot hold
        raise ValueError(f"not writing {path}: {exc}") from None
    write_text(path, text + "\n", "JSON")


def cmd_gen_network(args) -> int:
    params = netgen.NetworkParams() if args.params is None else netgen.params_from_json(_load_json(args.params))
    net = netgen.generate_network(params, seed=args.seed)
    _write_json(args.out, netgen.network_to_json(params, net))
    print(f"wrote network with {net.num_uavs} UAVs to {args.out}", file=sys.stderr)
    return 0


def cmd_gen_instance(args) -> int:
    data = _load_json(args.network)
    timings = model.RuleTimings.from_milliseconds(args.tau_del_ms, args.tau_ins_ms, args.tau_mod_ms)
    has_scenario = isinstance(data, dict) and "retired" in data and "flows" in data
    if has_scenario:
        if args.flows is not None or args.retired is not None or args.seed is not None:
            return _fail("network file already carries a scenario; drop --flows/--retired/--seed", 2)
        params, net, retired, routes = netgen.scenario_from_json(data)
    else:
        if args.flows is None or args.retired is None or args.seed is None:
            return _fail("network file has no scenario; --flows, --retired, and --seed are required", 2)
        params, net = netgen.network_from_json(data)
        routes, retired = netgen.sample_scenario(net, args.flows, args.retired, seed=args.seed)
    if not routes and not retired:
        return _fail("no flows and no retiring UAVs given", 2)
    build = model.build_instance(routes, [(u, net.hover_powers[u]) for u in sorted(retired)], timings)
    _write_json(args.out, model.instance_to_json(build.instance))
    if args.scenario_out:
        _write_json(args.scenario_out, netgen.scenario_to_json(params, net, retired, routes))
    print(
        f"wrote instance with n={build.instance.n} flows, m={build.instance.m} UAVs to {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_schedule(args) -> int:
    instance = model.instance_from_json(_load_json(args.instance))
    method = sched.METHODS[args.method]
    if method.seeded and args.seed is None:
        return _fail(f"--method {args.method} requires --seed", 2)
    result = method.solve(instance, args.seed, sched.EXACT_CAP_DEFAULT)
    _write_json(
        args.out,
        {
            "schedule": list(result.schedule.order),
            "energy_j": result.energy,
            "method": result.method,
            "wall_time_s": result.wall_time,
        },
    )
    print(f"{result.method}: {result.energy} J in {result.wall_time:.6f} s", file=sys.stderr)
    return 0


def cmd_export_ilp(args) -> int:
    instance = model.instance_from_json(_load_json(args.instance))
    ilp = ordering.build_ilp(instance)
    write_text(args.out, ordering.lp_chunks(ilp), "LP file")
    print(f"wrote LP with {ilp.variable_count} binaries to {args.out}", file=sys.stderr)
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_experiment(args) -> int:
    config = exp.config_from_json(_load_json(args.config))
    csv_path = args.csv or config.csv_path
    if csv_path is None:
        return _fail("no CSV destination: set csv_path in the config or pass --csv", 2)
    svg_energy = args.svg_energy or config.svg_energy_path
    svg_runtime = args.svg_runtime or config.svg_runtime_path
    completed = []
    # SIGTERM flushes the completed cells as Ctrl-C does; a handler can only
    # be installed from the main thread
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        result = exp.run_experiment(config, progress=completed.append)
    except KeyboardInterrupt:
        try:
            write_text(csv_path, exp.INCOMPLETE_MARKER + exp.csv_text(completed), "CSV")
        except IoFailure:
            pass
        print(f"interrupted; {len(completed)} completed cells flushed as incomplete", file=sys.stderr)
        return 130
    finally:
        if in_main:
            # None: the handler was not installed from Python, so restore the default
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)
    if not result.cells:
        return _fail(f"no cell completed: none had 2 iterations within exact_cap = {config.exact_cap}", 2)
    write_text(csv_path, exp.csv_text(result.cells), "CSV")
    for metric, svg_path in (("energy", svg_energy), ("runtime", svg_runtime)):
        if svg_path:
            write_text(svg_path, exp.svg_text(result.cells, metric), "SVG")
    print(f"wrote {len(result.cells)} cells to {csv_path}", file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    cells = exp.read_csv(args.csv)
    if not cells:
        return _fail(f"CSV {args.csv} contains no data rows", 2)
    write_text(args.out, exp.svg_text(cells, args.metric), "SVG")
    print(f"wrote {args.metric} chart to {args.out}", file=sys.stderr)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args never changes it."""
    parser = argparse.ArgumentParser(
        prog="uavsched",
        description="Energy-minimal handover scheduling for replacing UAV relays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-network", help="sample a random UAV network")
    p.add_argument("--params", help="network params JSON (defaults when omitted)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_network)

    p = sub.add_parser("gen-instance", help="sample or convert a replacement instance")
    p.add_argument("--network", required=True, help="network JSON, optionally with retired/flows")
    p.add_argument("--flows", type=int, help="number of flows to sample")
    p.add_argument("--retired", type=int, help="number of UAVs to retire")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--scenario-out", help="also write the routed scenario JSON")
    for key, default in model.timings_to_json(model.DEFAULT_TIMINGS).items():
        p.add_argument("--" + key.replace("_", "-"), type=float, default=default)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("schedule", help="schedule an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=sorted(sched.METHODS))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("export-ilp", help="export the ordering ILP in LP format")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="override the config's csv_path")
    p.add_argument("--svg-energy", help="override the config's svg_energy_path")
    p.add_argument("--svg-runtime", help="override the config's svg_runtime_path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render a chart from a results CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--metric", required=True, choices=("energy", "runtime"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", 2)
    except InstanceTooLarge as exc:
        return _fail(str(exc), 4)
    except IoFailure as exc:
        return _fail(str(exc), 3)
    except ValueError as exc:
        return _fail(str(exc), 2)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
