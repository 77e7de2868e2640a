"""Correctness checks on the program's outputs, and the recorded references.

Every check returns a list of problems; an empty list means the operation
passed.  References (masked CSV hashes, per-cell instance digests and LP
digests) were recorded with ``record_reference.py`` for the seed stored in
``reference.json``; other seeds are checked against invariants only.
"""

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# exact_dp's energy is the optimum re-evaluated by compute_energy, which may
# sum in another order than the heuristic's evaluation of the same order
ENERGY_SLACK = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def masked_csv_sha256(text: str) -> str:
    """SHA-256 of a results CSV with the mean_runtime_s (last) column blanked."""
    lines = []
    for line in text.splitlines():
        head, _, _ = line.rpartition(",")
        lines.append(head + ",")
    return sha256("\n".join(lines).encode("ascii"))


def cell_digest(digests) -> str:
    """Short hash of one cell's per-iteration instance digests, in iteration order."""
    return sha256("\n".join(digests).encode("ascii"))[:16]


def experiment_fingerprint(result, csv: str) -> dict:
    return {
        "csv_sha256": masked_csv_sha256(csv),
        "cells": {f"{n_f},{m}": cell_digest(d) for (n_f, m), d in sorted(result.instance_digests.items())},
    }


def check_experiment(pkg, config, result, csv: str, svgs, workdir: Path, reference: dict | None):
    """Check one run_experiment output; returns (cells attempted, problems per cell key).

    A problem with the whole output (CSV hash, CSV round-trip, SVG shape)
    fails every cell of it.
    """
    exp = pkg.experiment
    keys = [f"{n_f},{m}" for n_f in config.n_flows_list for m in config.m_list]
    whole: list[str] = []
    per_cell: dict[str, list[str]] = {key: [] for key in keys}
    fingerprint = experiment_fingerprint(result, csv)
    if reference is not None:
        if fingerprint["csv_sha256"] != reference["csv_sha256"]:
            whole.append("masked CSV SHA-256 differs from the reference")
        for key in keys:
            if fingerprint["cells"].get(key) != reference["cells"].get(key):
                per_cell[key].append("instance digests differ from the reference")
    path = workdir / "roundtrip.csv"
    path.write_text(csv, encoding="ascii")
    if exp.csv_text(exp.read_csv(path)) != csv:
        whole.append("read_csv round-trip does not reproduce the CSV")
    for svg in svgs:
        if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
            whole.append("SVG text is not a closed <svg> document")
    by_cell: dict[str, dict] = {key: {} for key in keys}
    for cell in result.cells:
        by_cell.setdefault(f"{cell.n_f},{cell.m}", {})[cell.method] = cell
    for key in keys:
        cells = by_cell[key]
        if key not in fingerprint["cells"]:
            per_cell[key].append("no instance digests")
        for method in config.methods:
            if method != "exact_dp" and method not in cells:
                per_cell[key].append(f"no {method} cell")
        exact, heuristic = cells.get("exact_dp"), cells.get("heuristic")
        if exact and heuristic and exact.count == heuristic.count:
            if exact.mean > heuristic.mean * (1 + ENERGY_SLACK):
                per_cell[key].append(f"exact_dp mean {exact.mean} exceeds heuristic mean {heuristic.mean}")
    problems = {key: whole + found for key, found in per_cell.items() if whole or found}
    return len(keys), problems


def check_request(pkg, instance_path: Path, outcome: dict, expected_lp: str | None) -> list[str]:
    """Check one controller request: exit codes, schedules, energies, LP digest."""
    problems = [f"{command} exited {code}" for command, code in outcome["codes"].items() if code != 0]
    if problems:
        return problems
    instance = pkg.model.instance_from_json(json.loads(instance_path.read_text(encoding="utf-8")))
    energies = {}
    for method in ("heuristic", "exact"):
        text = outcome["schedules"].get(method)
        if text is None:
            continue
        doc = json.loads(text)
        order = doc["schedule"]
        if sorted(order) != list(range(instance.n)):
            problems.append(f"{method} schedule is not a permutation of 0..{instance.n - 1}")
            continue
        energy = pkg.model.compute_energy(instance, pkg.model.Schedule(order=tuple(order))).total_energy
        if doc["energy_j"] != energy:
            problems.append(f"{method} energy_j {doc['energy_j']} != re-evaluated {energy}")
        energies[method] = doc["energy_j"]
    if len(energies) == 2 and energies["exact"] > energies["heuristic"] * (1 + ENERGY_SLACK):
        problems.append(f"exact {energies['exact']} J exceeds heuristic {energies['heuristic']} J")
    if expected_lp is not None and outcome["lp_sha256"][:16] != expected_lp:
        problems.append("LP digest differs from the reference")
    return problems
