"""Correctness and hygiene checks; all run outside the timed window.

The front audit is an oracle written against the problem definition,
not against the program's own helpers: the giant tour is checked
customer by customer, objectives are recomputed from scratch with
``repro.evaluate`` and compared bit for bit, and dominance is tested
pairwise on plain tuples.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path
from types import SimpleNamespace

__all__ = [
    "audit_front",
    "front_digest",
    "leftover_segments",
    "leftover_workers",
    "peak_rss_mb",
    "rss_probe",
    "shm_segments",
]

_SHM = Path("/dev/shm")


def _objective_key(objectives) -> tuple:
    # Hex floats compare bit for bit.
    return (
        float(objectives.distance).hex(),
        int(objectives.vehicles),
        float(objectives.tardiness).hex(),
    )


def front_digest(result) -> str:
    """Content hash of a result's archive: objectives and routes, in order."""
    h = hashlib.sha256()
    for entry in result.archive:
        h.update(repr((_objective_key(entry.objectives), entry.item.routes)).encode())
    return h.hexdigest()


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def audit_front(result, instance, capacity: int) -> list[str]:
    """Problems with one emitted front (empty when it passes)."""
    from repro import evaluate

    problems = []
    entries = list(result.archive)
    if not entries:
        problems.append("empty archive")
    if len(entries) > capacity:
        problems.append(f"archive holds {len(entries)} > capacity {capacity}")
    customers = list(range(1, instance.n_customers + 1))
    for k, entry in enumerate(entries):
        tour = [int(c) for c in entry.item.permutation if c != 0]
        if sorted(tour) != customers:
            problems.append(f"entry {k}: giant tour does not visit each customer once")
        fresh = evaluate(instance, entry.item)
        if _objective_key(fresh) != _objective_key(entry.objectives):
            problems.append(f"entry {k}: stored {entry.objectives} != evaluate() {fresh}")
    points = [(o.distance, float(o.vehicles), o.tardiness) for o in (e.objectives for e in entries)]
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if i != j and _dominates(a, b):
                problems.append(f"entry {i} dominates entry {j}")
    return problems


# -- processes and memory -----------------------------------------------------
def _children() -> list[int]:
    me = os.getpid()
    kids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat[stat.rindex(b")") + 2 :].split()[1]) == me:
            kids.append(int(name))
    return kids


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _worker_pids() -> list[int]:
    # Pool workers are spawn children; multiprocessing's resource
    # tracker is a child too, but it belongs to the interpreter.
    return [pid for pid in _children() if b"spawn_main" in _cmdline(pid)]


def leftover_workers() -> int:
    """Worker processes of this process still alive."""
    return len(_worker_pids())


def shm_segments() -> set[str]:
    """Shared-memory segments the program's pools name (``psm_*``)."""
    try:
        return {n for n in os.listdir(_SHM) if n.startswith("psm_")}
    except OSError:
        return set()


def leftover_segments(before: set[str]) -> int:
    return len(shm_segments() - before)


@contextlib.contextmanager
def rss_probe():
    """Record the workers' peak RSS just before each pool closes."""
    from repro.parallel.pool import WorkerPool

    original = WorkerPool.__dict__["close"]
    peak = SimpleNamespace(workers_kb=0)

    def close(pool):
        peak.workers_kb = max(peak.workers_kb, sum(_hwm_kb(p) for p in _worker_pids()))
        return original(pool)

    WorkerPool.close = close
    try:
        yield peak
    finally:
        WorkerPool.close = original


def peak_rss_mb(peak: SimpleNamespace) -> float:
    """Peak RSS of the master plus the largest worker set seen at a close."""
    return (_hwm_kb("self") + peak.workers_kb) / 1024.0
