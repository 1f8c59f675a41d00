"""The repository benchmark: one seeded workload run, one JSON verdict.

Run from the repository root::

    python3 e2ebench/run.py --workload seq-r1-200-s200 --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn, each in a process
of its own so that one's peak memory is not another's.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The line before it gives the
sample counts and whatever the checks found.  The program is imported
from ``src/`` next to this directory; without it the run fails before
printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(outcome, tail_percentile: int, trace: bool, spec: dict) -> dict:
    from workloads import percentile

    if trace:
        wanted = spec["per_layer"]
        values = outcome.layers
    else:
        wanted = spec["end_to_end"]
        lat = outcome.latencies
        values = {
            "job_latency_p50_s": statistics.median(lat) if lat else 0.0,
            "job_latency_tail_s": percentile(lat, tail_percentile / 100) if lat else 0.0,
            "evals_per_s": outcome.evaluations / outcome.window_s if outcome.window_s else 0.0,
            "setup_s": statistics.median(outcome.setup_s),
            "peak_rss_mb": outcome.rss_mb,
        }
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    correct = not outcome.problems and outcome.failed == 0 and outcome.attempted > 0
    if not trace:
        correct = correct and all(v["value"] > 0 for v in metrics.values())
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def _stop_resource_tracker() -> None:
    # The interpreter starts multiprocessing's resource tracker on the
    # first shared-memory segment; stop it so no child outlives the run.
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _run_each(names: list[str], args) -> dict | None:
    """Run every workload in a child process; their last lines, by name."""
    results = {}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return None
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from inputs import WORKLOADS, make_inputs

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    if len(names) == 1:
        # Everything the run writes stays inside the checkout.
        workdir = ROOT / ".bench_run" / f"{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(workdir)
        workload = WORKLOADS[names[0]]
        try:
            from workloads import run_workload

            inputs = make_inputs(workload, args.seed, args.seconds)
            outcome = run_workload(workload, inputs, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()  # only when no other run is using it
            _stop_resource_tracker()
        detail = {
            "workload": workload.name,
            "samples": len(outcome.latencies),
            "tail_percentile": workload.tail_percentile,
            "window_s": outcome.window_s,
            "setup_s_reps": outcome.setup_s,
            "problems": outcome.problems[:20],
            **outcome.detail,
        }
        print(json.dumps(detail))
        final = _result(outcome, workload.tail_percentile, bool(args.trace), spec)
    else:
        results = _run_each(names, args)
        if results is None:
            return 1
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
