"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public calls into each layer -- engine
phases, the dominance filter as ``repro.tabu.search`` calls it, the
Pareto archive, the worker pool, checkpoint commits, the job ledger and
scheduler submission -- so no program source changes.  A wrapper times
its call only while the recorder is active; a wrapper called while
another is open on the same thread is that span's child, and a span's
self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

__all__ = ["Recorder", "install"]


class Recorder:
    """In-memory span aggregates, per layer and per serve job."""

    def __init__(self) -> None:
        self.active = False
        #: layer -> [calls, total seconds, self seconds]
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: (layer, job id) -> [calls, total seconds]
        self.per_job: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        #: exact side counts: points filtered, neighbors made, accepts.
        self.counts: dict[str, int] = defaultdict(int)
        #: per pool: seconds from construction to its first delivered batch.
        self.boots: list[float] = []
        #: durations of every gather after a pool's first.
        self.gathers: list[float] = []
        self._pools: dict[int, list] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, started: float, frame: list, job) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        layer = self.layers[name]
        layer[0] += 1
        layer[1] += elapsed
        layer[2] += elapsed - frame[0]
        if job is not None:
            entry = self.per_job[(name, job)]
            entry[0] += 1
            entry[1] += elapsed
        return elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the per-solve root)."""
        if not self.active:
            yield
            return
        frame = [0.0]
        self._stack().append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started, frame, None)

    def snapshot(self) -> dict:
        """Copy of the exact counts (call counts included)."""
        out = dict(self.counts)
        for name, (calls, _, _) in self.layers.items():
            out[f"{name}.calls"] = calls
        return out

    def wrap(self, name: str, fn, *, job=None, after=None):
        """``fn`` timed as layer ``name``.

        ``job(args)`` names the serve job a call belongs to;
        ``after(args, result, elapsed)`` folds side counts in.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack().append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._close(
                    name, started, frame, job(args) if job is not None else None
                )
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    # -- side counts -------------------------------------------------------
    def _points(self, args, result, elapsed) -> None:
        self.counts["mo.nondom_mask.points"] += len(args[0])

    def _neighbors(self, args, result, elapsed) -> None:
        self.counts["neighborhood.neighbors"] += len(result)

    def _accepts(self, args, result, elapsed) -> None:
        self.counts["mo.archive.accepts"] += bool(result)

    def _pool_born(self, args, result, elapsed) -> None:
        self._pools[id(args[0])] = [time.perf_counter() - elapsed, False, 0]

    def _polled(self, args, result, elapsed) -> None:
        state = self._pools.get(id(args[0]))
        if state is not None and not state[1] and result:
            state[1] = True
            self.boots.append(time.perf_counter() - state[0])

    def _gathered(self, args, result, elapsed) -> None:
        state = self._pools.get(id(args[0]))
        if state is not None:
            state[2] += 1
            if state[2] > 1:
                self.gathers.append(elapsed)


def _checkpoint_job(args) -> str:
    # CheckpointPlan.policy_for_job names the file serve_<job id>.ckpt.
    return args[0].path.name[len("serve_") : -len(".ckpt")]


@contextlib.contextmanager
def install(recorder: Recorder):
    """Wrap every traced public call for the duration of the block."""
    import repro.tabu.search as search
    from repro.mo.archive import ParetoArchive
    from repro.parallel.pool import WorkerPool
    from repro.persistence.checkpoint import CheckpointPolicy
    from repro.serve.ledger import JobLedger
    from repro.serve.scheduler import SolveScheduler
    from repro.tabu.search import TSMOEngine

    r = recorder
    patches = [
        (TSMOEngine, "initialize", r.wrap("construction", TSMOEngine.initialize)),
        (
            TSMOEngine,
            "generate_neighborhood",
            r.wrap(
                "neighborhood",
                TSMOEngine.generate_neighborhood,
                after=r._neighbors,
            ),
        ),
        (TSMOEngine, "select_and_update", r.wrap("tabu.select", TSMOEngine.select_and_update)),
        (
            search,
            "non_dominated_mask",
            r.wrap("mo.nondom_mask", search.non_dominated_mask, after=r._points),
        ),
        (
            ParetoArchive,
            "try_add",
            r.wrap("mo.archive.try_add", ParetoArchive.try_add, after=r._accepts),
        ),
        (
            WorkerPool,
            "__init__",
            r.wrap("pool.boot", WorkerPool.__init__, after=r._pool_born),
        ),
        (WorkerPool, "submit", r.wrap("pool.submit", WorkerPool.submit)),
        (WorkerPool, "poll", r.wrap("pool.poll", WorkerPool.poll, after=r._polled)),
        (
            WorkerPool,
            "gather",
            r.wrap("pool.gather", WorkerPool.gather, after=r._gathered),
        ),
        (WorkerPool, "close", r.wrap("pool.close", WorkerPool.close)),
        (
            CheckpointPolicy,
            "commit",
            r.wrap("persistence.commit", CheckpointPolicy.commit, job=_checkpoint_job),
        ),
        (
            JobLedger,
            "record",
            r.wrap("ledger.record", JobLedger.record, job=lambda args: args[2]),
        ),
        (
            SolveScheduler,
            "submit",
            r.wrap("serve.submit", SolveScheduler.submit, job=lambda args: args[1].job_id),
        ),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
