#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

Run from the repository root, and only for a change that is meant to alter
outputs (say so in CHANGES.md when you do):

    python3 perfbench/record_reference.py

For the reference seed it runs every distinct round of each workload,
untimed, and writes to perfbench/reference.json the masked CSV SHA-256 and per-cell
instance digests of every sweep, keyed by master seed, and the LP digest of
every solve instance, keyed by instance name.
"""

from collections import Counter
import json
from pathlib import Path
import shutil
import sys
import tempfile

from checks import REFERENCE_PATH, experiment_fingerprint
from run import WORK, import_package
from workloads import EXACT, SOLVE, SWEEP

REFERENCE_SEED = 1


def main() -> int:
    pkg = import_package()
    reference = {"seed": REFERENCE_SEED}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    try:
        for workload in (SWEEP, EXACT):
            workload.setup(pkg, REFERENCE_SEED, workdir)
            entries = {}
            for index in range(workload.rounds):
                for config, result, csv, _ in workload.run_round(index, Counter()).outputs:
                    entries[str(config.master_seed)] = experiment_fingerprint(result, csv)
            reference[workload.name] = entries
            print(f"{workload.name}: {len(entries)} sweeps", file=sys.stderr)
        SOLVE.setup(pkg, REFERENCE_SEED, workdir)
        SOLVE.attach(pkg, REFERENCE_SEED, workdir)
        digests = {}
        for index in range(SOLVE.rounds):
            for name, outcome in SOLVE.run_round(index, Counter()).outputs:
                if any(outcome["codes"].values()):
                    sys.exit(f"request {name} failed: {outcome['stderr']}")
                digests[name] = outcome["lp_sha256"][:16]
        reference[SOLVE.name] = {"lp": digests}
        print(f"solve: {len(digests)} LP digests", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
