"""Print a digest of every driver's seeded trajectory, for parity checks.

Simplifications and performance changes must leave seeded trajectories
bit-identical.  This script runs each deterministic driver on two small
instances and three search seeds and prints one JSON line per run: the
exact front floats, the archive (objectives and routes) and the run's
counters, plus a sha256 over all of it.  Run it on two checkouts and
diff the outputs::

    PYTHONPATH=src python benchmarks/trajectory_digests.py > after.jsonl
    (cd ../parent && PYTHONPATH=src python benchmarks/trajectory_digests.py) > before.jsonl
    diff before.jsonl after.jsonl && echo identical

The real-process asynchronous driver is left out: its c1-c4 decisions
depend on wall-clock timing, so it has no seeded trajectory.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro import TSMOParams, generate_instance, run_multiprocessing_tsmo, run_sequential_tsmo
from repro.parallel.async_ts import AsyncParams, run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.sync_ts import run_synchronous_tsmo

INSTANCES = (("R1", 50), ("C2", 100))
SEEDS = (1, 2, 3)
PARAMS = TSMOParams(max_evaluations=2000, neighborhood_size=40)

DRIVERS = {
    "sequential": lambda inst, seed: run_sequential_tsmo(inst, PARAMS, seed=seed),
    "seq-sim": lambda inst, seed: run_sequential_simulated(inst, PARAMS, seed=seed),
    "sync-sim": lambda inst, seed: run_synchronous_tsmo(inst, PARAMS, 3, seed),
    "async-sim": lambda inst, seed: run_asynchronous_tsmo(
        inst, PARAMS, 3, seed, async_params=AsyncParams(batch_size=8)
    ),
    "collab": lambda inst, seed: run_collaborative_tsmo(
        inst, PARAMS, 3, seed, collab_params=CollabParams(initial_phase_patience=3)
    ),
    "mp-sync-1": lambda inst, seed: run_multiprocessing_tsmo(inst, PARAMS, n_workers=1, seed=seed),
    "mp-sync-2": lambda inst, seed: run_multiprocessing_tsmo(inst, PARAMS, n_workers=2, seed=seed),
}


def digest(result) -> dict:
    record = {
        "front": [[float.hex(float(x)) for x in row] for row in result.front().tolist()],
        "archive": [
            [
                float.hex(e.objectives.distance),
                e.objectives.vehicles,
                float.hex(e.objectives.tardiness),
                [list(r) for r in e.item.routes],
            ]
            for e in result.archive
        ],
        "evaluations": result.evaluations,
        "iterations": result.iterations,
        "restarts": result.restarts,
        "simulated_time": result.simulated_time,
    }
    blob = json.dumps(record, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(blob).hexdigest(), **record}


def main() -> int:
    for cls, size in INSTANCES:
        instance = generate_instance(cls, size, seed=7)
        for name, run in DRIVERS.items():
            for seed in SEEDS:
                row = {"driver": name, "instance": f"{cls}-{size}", "seed": seed}
                row.update(digest(run(instance, seed)))
                print(json.dumps(row, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
