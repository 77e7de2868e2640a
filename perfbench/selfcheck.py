#!/usr/bin/env python3
"""Self-check of the benchmark: its checks catch corruption, its output is complete.

Run from the repository root (about a minute):

    python3 perfbench/selfcheck.py

1. A solve request whose schedule energy or LP digest is corrupted, and a
   sweep whose CSV is corrupted, are counted as failed operations.
2. The speed gauge scales a unit run on a host at half speed to half its
   time, and a disabled gauge never calibrates.
3. ``run.py`` prints every metric of BENCHMARK.json with its unit, for
   ``--trace 0`` and ``--trace 1``, with no failed operation.
4. In a directory holding only BENCHMARK.json and perfbench/, ``run.py``
   exits non-zero without printing a result.
"""

from collections import Counter
import json
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

from checks import experiment_fingerprint
from gauge import REFERENCE_S, SpeedGauge
from run import ROOT, WORK, import_package
from workloads import ExperimentWorkload, SolveWorkload

HERE = Path(__file__).resolve().parent

problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


# The checks below run seed 2, which has no recorded reference, and
# supply their own references where they need one.


def corrupted_solve(pkg, workdir: Path) -> None:
    solve = SolveWorkload(
        network={"num_uavs": 40, "area_side": 150.0}, flows_kept=(3, 10, 20, 30), m_list=(5,),
        rounds=1, exact_max_flows=16,
    )
    solve.setup(pkg, 2, workdir)
    solve.attach(pkg, 2, workdir)
    done = solve.run_round(0, Counter())
    attempted, failures = solve.check(done)
    expect(attempted == 4 and not failures, f"clean solve round passes ({failures})")

    name, outcome = done.outputs[0]
    doc = json.loads(outcome["schedules"]["heuristic"])
    doc["energy_j"] *= 1.000001
    outcome["schedules"]["heuristic"] = json.dumps(doc)
    _, failures = solve.check(done)
    expect(len(failures) == 1 and "energy_j" in failures[0], "corrupted schedule energy is counted as failed")

    done = solve.run_round(0, Counter())
    solve.reference = {"lp": {name: outcome["lp_sha256"][:16] for name, outcome in done.outputs}}
    name, outcome = done.outputs[-1]
    solve.reference["lp"][name] = "0" * 16
    _, failures = solve.check(done)
    expect(len(failures) == 1 and "LP digest" in failures[0], "corrupted LP digest is counted as failed")


def corrupted_sweep(pkg, workdir: Path) -> None:
    sweep = ExperimentWorkload(
        "sweep",
        {"network": {"num_uavs": 20, "area_side": 140.0}, "n_flows_list": [8], "m_list": [3, 4],
         "iterations": 4, "methods": ["heuristic", "random", "exact_dp"], "exact_cap": 8},
        networks_per_round=1, rounds=1, latency_per="cell",
    )
    sweep.setup(pkg, 2, workdir)
    done = sweep.run_round(0, Counter())
    config, result, csv, svgs = done.outputs[0]
    sweep.reference = {str(config.master_seed): experiment_fingerprint(result, csv)}
    attempted, failures = sweep.check(done)
    expect(attempted == 2 and not failures, f"clean sweep passes against its own reference ({failures})")
    lines = csv.splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) + 1.0)
    lines[1] = ",".join(fields)
    done.outputs[0] = (config, result, "".join(lines), svgs)
    _, failures = sweep.check(done)
    expect(len(failures) == 2, "corrupted CSV fails every cell of its sweep")


def gauge_scaling() -> None:
    gauge = SpeedGauge()
    gauge.stamps, gauge.values = [10.0, 20.0], [2 * REFERENCE_S, 2 * REFERENCE_S]
    expect(abs(gauge.scale(12.0, 16.0) - 2.0) < 1e-12, "a 4 s unit at half speed counts as 2 s")
    expect(abs(gauge.scale(22.0, 23.0) - 0.5) < 1e-12, "a unit after the last calibration uses that calibration")
    off = SpeedGauge(enabled=False)
    off.boundary(force=True)
    expect(not off.values, "a disabled gauge never calibrates")


def complete_output(workload: str, trace: int, declared: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "2",
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{label} exits 0 ({done.stderr.strip()[-300:]})")
    if done.returncode != 0:
        return
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label} has no failed operation")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(printed == declared, f"{label} prints exactly the declared metrics and units")
    report = "\n".join(lines[:-1])
    missing = [name for name in declared if f"{name} " not in report]
    expect(not missing, f"{label} report names every metric ({missing})")


def fails_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        command = [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"without src/ the run exits {done.returncode} and prints no result")


def main() -> int:
    pkg = import_package()
    WORK.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        corrupted_solve(pkg, Path(workdir))
        corrupted_sweep(pkg, Path(workdir))
    gauge_scaling()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in ("exact", "solve"):
        complete_output(workload, 0, end_to_end)
        complete_output(workload, 1, per_layer)
    fails_without_package()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
