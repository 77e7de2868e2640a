"""The benchmark's workloads: how each is set up and what one round runs.

The inputs are defined here, not read from ``scripts/*.json``, so an edit to
those configs cannot change what is measured.  Every input derives from the
``--seed`` argument through ``derive_seed``: round r of a run gets the same
inputs for the same seed on every machine.

A workload has ``rounds`` distinct rounds, each on its own networks; a run
cycles through them, so every round is repeated.  A round reports the time
of each of its units (a sweep cell, the rendering of a sweep's text, a
request) under a key that is the same on every repeat, so run.py can take
each unit's median over its repeats.  Between units the round calls the
host speed gauge (gauge.py), which calibrates outside the units' times.
The cost of a sweep depends on the network it draws, so the more networks
the rounds cover, the less a run varies from seed to seed; the more
repeats, the less it varies with the host's load.
"""

import contextlib
from dataclasses import dataclass, replace
import hashlib
import io
import json
from pathlib import Path
import random
import time

from checks import check_experiment, check_request, load_reference, sha256
from gauge import SpeedGauge
from spans import note_ratio


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Round:
    """One timed round: the time of each unit and the raw outputs.

    ``units`` is a list of ((operation, part), start, end), perf_counter
    stamps: an operation is timed in one or more parts.  An operation's
    first item is its kind; the kinds in LATENCY_KINDS are operations a
    caller waits for, and their latency is the sum of their parts.  The
    units cover the round but for the gauge's calibrations.
    """

    units: list
    outputs: list


LATENCY_KINDS = ("cell", "sweep", "request")
# per-layer runs and reference recording time nothing in reference-speed seconds
NO_GAUGE = SpeedGauge(enabled=False)


class ExperimentWorkload:
    """Monte Carlo sweeps through ``experiment.run_experiment``, one network each.

    A round runs ``networks_per_round`` sweeps, each on its own network, and
    renders each one's CSV and both SVG charts as text.  Latency is per sweep
    cell (``latency_per="cell"``), the unit in which run_experiment reports
    progress, or per sweep including its rendering (``"sweep"``).  Either
    way each cell is timed on its own, from the progress reports.
    """

    def __init__(self, name: str, config: dict, networks_per_round: int, rounds: int, latency_per: str):
        self.name = name
        self.config_json = config
        self.networks_per_round = networks_per_round
        self.rounds = rounds
        self.latency_per = latency_per

    def setup(self, pkg, seed: int, workdir: Path) -> None:
        """Parse the config; run_experiment generates its network inside the round."""
        self.pkg, self.seed, self.workdir = pkg, seed, workdir
        self.config = pkg.experiment.config_from_json(self.config_json)
        reference = load_reference()
        self.reference = reference[self.name] if reference["seed"] == seed else {}

    attach = setup

    def master_seed(self, round_index: int, k: int) -> int:
        return derive_seed(self.name, self.seed, round_index, k)

    def run_round(self, round_index: int, counters, gauge: SpeedGauge = NO_GAUGE) -> Round:
        exp = self.pkg.experiment
        units: list = []
        outputs = []
        gauge.boundary(force=True)
        for k in range(self.networks_per_round):
            config = replace(self.config, master_seed=self.master_seed(round_index, k))
            timer = CellTimer(gauge)
            result = exp.run_experiment(config, progress=timer)
            rendered = time.perf_counter()
            csv = exp.csv_text(result.cells)
            svgs = [exp.svg_text(result.cells, metric) for metric in ("energy", "runtime")]
            render = (rendered, time.perf_counter())
            gauge.boundary()
            outputs.append((config, result, csv, svgs))
            if self.latency_per == "cell":
                units.append(((("render", k), ()), *render))
                units.extend(((("cell", k, *cell), ()), *span) for cell, *span in timer.cells)
            else:
                units.append(((("sweep", k), "render"), *render))
                units.extend(((("sweep", k), cell), *span) for cell, *span in timer.cells)
        gauge.boundary(force=True)
        if "exact_dp" in self.config.methods:
            # traced rounds count built instances and exact_dp calls; every
            # instance exact_dp did not see was over the cap
            counters["exact_dp_skipped"] += counters["instances"] - counters["exact_dp_calls"]
        return Round(units, outputs)

    def check(self, done: Round) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for config, result, csv, svgs in done.outputs:
            reference = self.reference.get(str(config.master_seed))
            cells, problems = check_experiment(self.pkg, config, result, csv, svgs, self.workdir, reference)
            attempted += cells
            for key, found in sorted(problems.items()):
                failures.append(f"sweep {config.master_seed} cell ({key}): {'; '.join(found)}")
        return attempted, failures


class CellTimer:
    """run_experiment's progress callback: times each cell, calibrating between cells.

    run_experiment reports each (n_f, m) cell once per method, as soon as
    all its iterations are done; the first report ends the cell's time.
    ``cells`` holds ((n_f, m), start, end); the first cell's time includes
    the network generation.
    """

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.cells: list = []
        self.began = time.perf_counter()

    def __call__(self, cell) -> None:
        key = (cell.n_f, cell.m)
        if self.cells and self.cells[-1][0] == key:
            return
        self.cells.append((key, self.began, time.perf_counter()))
        self.gauge.boundary()
        self.began = time.perf_counter()


class SolveWorkload:
    """Controller requests through ``cli.main`` in-process, one client, closed loop.

    Setup writes ``rounds`` x ``len(flows_kept)`` instance files, one
    40-UAV network per round.  Request k of a round retires
    ``m_list[k % len(m_list)]`` UAVs and keeps exactly ``flows_kept[k]``
    flows: flows are routed one at a time until that many cross the
    retiring set.  The size mix is fixed because LP export costs (n+m)^3
    and exact_dp 2^n: with sizes drawn afresh for every seed, five seeds
    spread wall_s and p90 by 40 % (quartile distance over median).  A round
    serves the requests of one network; each request is ``schedule
    --method heuristic`` plus ``export-ilp``, plus ``schedule --method
    exact`` when n <= ``exact_max_flows``.
    """

    name = "solve"
    # a retiring set through which flows rarely pass is redrawn after this many flows
    MAX_FLOWS_PER_RETIRED_SET = 400

    def __init__(self, network: dict, flows_kept: tuple, m_list: tuple, rounds: int, exact_max_flows: int):
        self.network = network
        self.flows_kept = flows_kept
        self.m_list = m_list
        self.rounds = rounds
        self.exact_max_flows = exact_max_flows

    def setup(self, pkg, seed: int, workdir: Path) -> None:
        netgen, model = pkg.netgen, pkg.model
        params = netgen.params_from_json(self.network)
        manifest = []
        for b in range(self.rounds):
            net = netgen.generate_network(params, seed=derive_seed(self.name, seed, "network", b))
            for k, kept in enumerate(self.flows_kept):
                m = self.m_list[k % len(self.m_list)]
                rng = random.Random(derive_seed(self.name, seed, b, k))
                routes, retired = self.scenario(netgen, net, m, kept, rng)
                build = model.build_instance(routes, [(u, net.hover_powers[u]) for u in sorted(retired)])
                name = f"b{b:02d}-{k:02d}"
                doc = json.dumps(model.instance_to_json(build.instance), indent=2, sort_keys=True)
                (workdir / f"{name}.json").write_text(doc + "\n", encoding="ascii")
                manifest.append([name, build.instance.n])
        (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="ascii")

    def scenario(self, netgen, net, m: int, kept: int, rng: random.Random):
        """Retire m UAVs and route flows until exactly ``kept`` cross the retiring set."""
        for _ in range(100):
            retired = netgen.sample_retired_set(net, m, rng)
            routes, crossing = [], 0
            while crossing < kept and len(routes) < self.MAX_FLOWS_PER_RETIRED_SET:
                ((_, route),) = netgen.sample_flow_routes(net, retired, 1, rng)
                routes.append((len(routes), route))
                crossing += not retired.isdisjoint(route)
            if crossing == kept:
                return routes, retired
        raise RuntimeError(f"no retiring set of {m} UAVs lets {kept} flows cross it")

    def attach(self, pkg, seed: int, workdir: Path) -> None:
        """Serve the instance files a setup wrote to ``workdir``."""
        self.pkg, self.seed, self.workdir = pkg, seed, workdir
        self.manifest = json.loads((workdir / "manifest.json").read_text(encoding="ascii"))
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        reference = load_reference()
        self.reference = reference[self.name] if reference["seed"] == seed else {}

    def run_round(self, round_index: int, counters, gauge: SpeedGauge = NO_GAUGE) -> Round:
        size = len(self.flows_kept)
        b = round_index % self.rounds
        units, outputs = [], []
        gauge.boundary(force=True)
        for name, n in self.manifest[b * size : (b + 1) * size]:
            start, end, outcome = self.request(name, n)
            units.append(((("request", name), ()), start, end))
            gauge.boundary()
            outputs.append((name, outcome))
            schedules = outcome["schedules"]
            if n > self.exact_max_flows:
                counters["exact_dp_skipped"] += 1
            elif "exact" in schedules:
                energies = [json.loads(schedules[m])["energy_j"] for m in ("heuristic", "exact")]
                note_ratio(counters, *energies)
        gauge.boundary(force=True)
        return Round(units, outputs)

    def request(self, name: str, n: int) -> tuple[float, float, dict]:
        main = self.pkg.cli.main
        instance = str(self.workdir / f"{name}.json")
        paths = {m: self.out / f"{m}.json" for m in ("heuristic", "exact")}
        lp = self.out / "model.lp"
        for path in (*paths.values(), lp):
            path.unlink(missing_ok=True)
        methods = ("heuristic", "exact") if n <= self.exact_max_flows else ("heuristic",)
        codes = {}
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(sink):
            codes["schedule heuristic"] = main(
                ["schedule", "--instance", instance, "--method", "heuristic", "--out", str(paths["heuristic"])]
            )
            codes["export-ilp"] = main(["export-ilp", "--instance", instance, "--out", str(lp)])
            if "exact" in methods:
                codes["schedule exact"] = main(
                    ["schedule", "--instance", instance, "--method", "exact", "--out", str(paths["exact"])]
                )
        end = time.perf_counter()
        outcome = {"codes": codes, "stderr": sink.getvalue(), "schedules": {}, "lp_sha256": None}
        if all(code == 0 for code in codes.values()):
            outcome["schedules"] = {m: paths[m].read_text(encoding="ascii") for m in methods}
            outcome["lp_sha256"] = sha256(lp.read_bytes())
        return start, end, outcome

    def check(self, done: Round) -> tuple[int, list[str]]:
        failures = []
        expected = self.reference.get("lp", {})
        for name, outcome in done.outputs:
            problems = check_request(self.pkg, self.workdir / f"{name}.json", outcome, expected.get(name))
            if problems:
                if any(outcome["codes"].values()):
                    problems.append(outcome["stderr"].strip())
                failures.append(f"request {name}: {'; '.join(problems)}")
        return len(done.outputs), failures


# Values of scripts/full_sweep.json, the paper-scale sweep; one network per
# round.  One sweep takes about 4 s, so a 30-second run repeats each of the
# two rounds three or four times.  The cost of a sweep depends on its
# network: the fastest sweeps of six networks ranged over 15 %.
SWEEP = ExperimentWorkload(
    "sweep",
    {
        "network": {"num_uavs": 40, "area_side": 150.0},
        "n_flows_list": [70, 100],
        "m_list": [5, 6, 7, 8, 9, 10],
        "iterations": 200,
        "methods": ["heuristic", "random"],
    },
    networks_per_round=1,
    rounds=2,
    latency_per="cell",
)

# The exact-solver sweep on sparse 20-UAV networks (about a quarter of the
# route draws are unreachable, so route rejection is exercised).  A round
# covers 20 networks x 8 cells x 2 iterations = 320 instances, as many as
# one 40-iteration sweep.  exact_dp's cost grows as n 2^n, so a run's time
# is set by how many instances land near the cap: with cap 16 and one
# network per round, one network's sweep costs 0.4 s to 4 s.  With cap 13,
# the 5120 instances of 16 rounds spread that cost (sum of n 2^n, quartile
# distance over median, 12 seeds) by 6.5 %; 2560 instances on 64 networks (5
# iterations) spread it by 13 %.  A round takes about 0.6 s, so a 30-second
# run repeats each of the 16 rounds three or four times.
EXACT = ExperimentWorkload(
    "exact",
    {
        "network": {"num_uavs": 20, "area_side": 140.0},
        "n_flows_list": [20, 24],
        "m_list": [3, 4, 5, 6],
        "iterations": 2,
        "methods": ["heuristic", "random", "exact_dp"],
        "exact_cap": 13,
        "resample_retired_per_iteration": True,
    },
    networks_per_round=20,
    rounds=16,
    latency_per="sweep",
)

# The 60 quantiles of flows kept over 4800 paper-scale draws (40 UAVs at
# area 150, n_f in {70, 100}, m = 5..10, one network per 60 draws).  A round
# takes about 3 s, so a 30-second run repeats each of the two rounds (120
# requests, twelve beyond p90) about five times.
SOLVE = SolveWorkload(
    network={"num_uavs": 40, "area_side": 150.0},
    flows_kept=(
        0, 2, 3, 5, 6, 7, 7, 8, 9, 10, 10, 11, 12, 13, 13, 14, 14, 15, 16, 16,
        17, 17, 18, 18, 19, 19, 20, 21, 21, 22, 23, 23, 24, 25, 25, 26, 26, 27, 28, 28,
        29, 30, 30, 31, 32, 33, 33, 34, 35, 36, 38, 39, 40, 41, 43, 44, 47, 50, 53, 59,
    ),
    m_list=(5, 6, 7, 8, 9, 10),
    rounds=2,
    exact_max_flows=16,
)

WORKLOADS = {w.name: w for w in (SWEEP, EXACT, SOLVE)}
