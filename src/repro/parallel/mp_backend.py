"""Real ``multiprocessing`` master–worker backends (production path).

Both master–worker protocols of the paper run here on *real* OS
processes, on top of the persistent fault-tolerant
:class:`~repro.parallel.pool.WorkerPool` (see ``pool.py`` and DESIGN.md
§5): long-lived spawn-context workers, streamed result batches, worker
heartbeats, bounded task retry with deterministic re-seeding,
replacement-worker respawn and graceful degradation to master-only
execution when the pool collapses.

* :class:`SyncStep` — one iteration of the synchronous protocol
  (§III.C): farm the neighborhood out as one or more tasks, wait for
  every chunk, rebuild the neighbors in task order and run the
  unchanged :meth:`~repro.tabu.search.TSMOEngine.select_and_update`.
  It is the only implementation of that iteration: the driver below
  blocks on :meth:`~repro.parallel.pool.WorkerPool.gather` between its
  halves, and a ``repro.serve`` job feeds it the tagged events of a
  shared pool.  With a single task it runs *lockstep* — the worker
  continues the master's own PCG64 stream and ships the advanced state
  back — which makes one task per iteration bit-identical to the
  sequential algorithm.
* :func:`run_multiprocessing_tsmo` — the synchronous driver: one
  private pool, one task per worker, ``submit → gather → complete``
  until the budget is spent.
* :func:`run_multiprocessing_async_tsmo` — the asynchronous protocol
  (§III.D): workers stream small result batches and the master applies
  the paper's decision function on real wall-clock time — c1 a worker
  went idle, c2 a collected neighbor dominates the current solution,
  c3 the master waited too long, c4 the budget is exhausted.

Workers return ``(routes, objectives, tabu attribute)`` triples (the
pool decodes them from compact parent-relative edits) rather than
:class:`Move` objects, because moves close over solution internals;
:func:`rebuild_neighbor` turns each back into a master-side neighbor
that *adopts* the worker-computed objectives, so the master never
re-evaluates a child.  Evaluation counting happens on the master, one
unit per received neighbor.

Failure handling and observability are the pool's: both drivers attach
its counter report as ``result.extra["pool"]``, and the
``REPRO_POOL_FAULTS`` environment variable (or an explicit
:class:`~repro.parallel.pool.FaultPlan`) injects deterministic worker
crashes and delays for testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.operators.base import Move, RouteEdits
from repro.core.solution import Solution
from repro.core.stats_cache import CacheStats
from repro.errors import SearchError
from repro.mo.dominance import dominates
from repro.obs import NULL_OBS
from repro.parallel.pool import FaultPlan, PoolParams, TaskOutcome, WorkerPool
from repro.rng import RngFactory, as_generator, get_generator_state, set_generator_state
from repro.tabu.neighborhood import Neighbor
from repro.tabu.params import TSMOParams
from repro.tabu.search import TSMOEngine, TSMOResult
from repro.vrptw.instance import Instance

__all__ = [
    "MpAsyncParams",
    "RemoteMove",
    "SyncStep",
    "rebuild_neighbor",
    "run_multiprocessing_async_tsmo",
    "run_multiprocessing_tsmo",
]


class RemoteMove(Move):
    """A move reconstructed from a worker's result.

    Only the tabu attribute survives the process boundary; the
    resulting solution is shipped alongside, so :meth:`apply` is never
    needed (and refuses to run).
    """

    __slots__ = ("_attribute",)
    name = "remote"

    def __init__(self, attribute: Hashable) -> None:
        self._attribute = attribute

    def route_edits(self, solution: Solution) -> RouteEdits:
        raise SearchError("remote moves are pre-applied on the worker")

    def apply(self, solution: Solution) -> Solution:
        raise SearchError("remote moves are pre-applied on the worker")

    @property
    def attribute(self) -> Hashable:
        return self._attribute


def rebuild_neighbor(
    instance: Instance,
    triple,
    iteration: int,
    evaluator: Evaluator,
) -> Neighbor:
    """Rebuild one worker triple into a master-side :class:`Neighbor`.

    The worker-computed objectives are adopted by the reconstructed
    solution (bit-identical to an eager re-evaluation — per-route
    statistics are a pure function of the route tuple), so selection
    never re-evaluates the child.  The master charges the budget here,
    one unit per received neighbor.
    """
    routes, (distance, vehicles, tardiness), attribute = triple
    child = Solution(instance, routes)
    objectives = ObjectiveVector(distance, int(vehicles), tardiness)
    child.adopt_objectives(objectives)
    evaluator.count += 1
    return Neighbor(
        move=RemoteMove(attribute),
        objectives=objectives,
        iteration=iteration,
        solution=child,
    )


def _chunk_sizes(total: int, n: int) -> list[int]:
    """``total`` neighbors split into at most ``n`` near-equal chunks."""
    base, extra = divmod(total, n)
    sizes = (base + (1 if i < extra else 0) for i in range(n))
    return [size for size in sizes if size > 0]


class SyncStep:
    """One synchronous master–worker iteration of ``engine`` (§III.C).

    The neighborhood is split into ``n_tasks`` near-equal chunks.  With
    one task and a PCG64 engine the step runs *lockstep*: the task
    carries the engine's bit-state and the worker's advanced state is
    written back, so the trajectory equals the sequential driver's.
    Otherwise (always with ``split=True``) each task gets its own seed
    from a stream rooted at ``seed``; a retried task keeps its seed.

    Call :meth:`submit`, then :meth:`complete` with
    :meth:`WorkerPool.gather`'s outcomes — or feed each tagged pool
    event to :meth:`on_event` and call :meth:`complete` once it returns
    True.  :meth:`abandon` drops an in-flight iteration and rewinds the
    seed stream, so the next :meth:`submit` re-ships the same seeds.
    """

    def __init__(
        self,
        engine: TSMOEngine,
        n_tasks: int,
        seed: int | None = None,
        *,
        split: bool = False,
        tag: object | None = None,
        trace: tuple[str, str] | None = None,
        instance_ref=None,
    ) -> None:
        if n_tasks < 1:
            raise SearchError("need at least one task per iteration")
        self.engine = engine
        self.chunk_sizes = _chunk_sizes(engine.params.neighborhood_size, n_tasks)
        self.lockstep = (
            not split
            and n_tasks == 1
            and type(engine.rng.bit_generator).__name__ == "PCG64"
        )
        self._seed_rng = None if self.lockstep else RngFactory(seed).generator()
        self._tag = tag
        self._trace = trace
        self._instance_ref = instance_ref
        #: worker stats-cache counters summed over completed iterations.
        self.worker_hits = 0
        self.worker_misses = 0
        self._clear()

    def _clear(self) -> None:
        self._task_ids: list[int] = []
        self._buffers: dict[int, list] = {}
        self._finals: dict[int, TaskOutcome] = {}
        self._rewind: dict | None = None

    @property
    def in_flight(self) -> bool:
        """An iteration is submitted and not yet completed."""
        return bool(self._task_ids)

    def submit(self, pool: WorkerPool) -> list[int]:
        """Submit the next iteration's tasks; returns their ids."""
        engine = self.engine
        if self.lockstep:
            randomness = [{"rng_state": engine.rng.bit_generator.state}]
        else:
            self._rewind = get_generator_state(self._seed_rng)
            randomness = [
                {"seed": int(self._seed_rng.integers(2**63))} for _ in self.chunk_sizes
            ]
        self._task_ids = [
            pool.submit(
                engine.current.routes,
                size,
                iteration=engine.iteration + 1,
                tag=self._tag,
                trace=self._trace,
                instance_ref=self._instance_ref,
                **kwargs,
            )
            for size, kwargs in zip(self.chunk_sizes, randomness)
        ]
        self._buffers = {task_id: [] for task_id in self._task_ids}
        return self._task_ids

    def on_event(self, event) -> bool:
        """Fold one pool :class:`BatchEvent` in; True once every task of
        the iteration delivered its final batch."""
        buffer = self._buffers.get(event.task_id)
        if buffer is None:
            return False  # a batch of an abandoned iteration
        buffer.extend(event.neighbors)
        if event.final:
            self._finals[event.task_id] = TaskOutcome(
                neighbors=tuple(buffer),
                rng_state=event.rng_state,
                cache_delta=event.cache_delta or (0, 0),
            )
        return len(self._finals) == len(self._task_ids)

    def complete(self, outcomes: dict[int, TaskOutcome] | None = None) -> None:
        """Rebuild the iteration's neighbors in task order and select.

        ``outcomes`` maps task id to outcome (:meth:`WorkerPool.gather`);
        by default the ones :meth:`on_event` collected.
        """
        engine = self.engine
        outcomes = self._finals if outcomes is None else outcomes
        iteration = engine.iteration + 1
        profiler = engine.obs.profiler
        neighbors: list[Neighbor] = []
        with profiler.time("communicate"):
            for task_id in self._task_ids:
                outcome = outcomes[task_id]
                hits, misses = outcome.cache_delta
                self.worker_hits += hits
                self.worker_misses += misses
                for triple in outcome.neighbors:
                    neighbors.append(
                        rebuild_neighbor(
                            engine.instance, triple, iteration, engine.evaluator
                        )
                    )
                if self.lockstep and outcome.rng_state is not None:
                    engine.rng.bit_generator.state = outcome.rng_state
        self._clear()
        with profiler.time("select"):
            engine.select_and_update(neighbors)

    def abandon(self) -> None:
        """Drop the in-flight iteration, rewinding the seed stream."""
        if self._rewind is not None:
            set_generator_state(self._seed_rng, self._rewind)
        self._clear()

    def seed_state(self) -> dict | None:
        """The split seed stream's state at the iteration boundary
        (``None`` in lockstep, which has no seed stream)."""
        return None if self._seed_rng is None else get_generator_state(self._seed_rng)

    def restore_seed_state(self, state: dict | None) -> None:
        """Continue the seed stream from a :meth:`seed_state` snapshot."""
        if self._seed_rng is not None and state is not None:
            set_generator_state(self._seed_rng, state)


def _finish_result(
    engine: TSMOEngine,
    pool: WorkerPool,
    algorithm: str,
    wall: float,
    n_workers: int,
    worker_hits: int,
    worker_misses: int,
) -> TSMOResult:
    result = engine.result(
        algorithm, wall_time=wall, simulated_time=None, processors=n_workers + 1
    )
    # The master never delta-evaluates, so its own cache is idle; the
    # aggregated per-worker counters are the meaningful surface here.
    result.cache_stats = CacheStats(hits=worker_hits, misses=worker_misses)
    result.extra["worker_cache_hits"] = worker_hits
    result.extra["worker_cache_misses"] = worker_misses
    report = pool.report()
    result.extra["pool"] = report
    obs = engine.obs
    if obs.enabled:
        m = obs.metrics
        for key in (
            "crashes",
            "stragglers",
            "respawns",
            "retries",
            "master_fallback_tasks",
            "stale_batches",
            "tasks_completed",
            "max_backlog",
        ):
            m.gauge(f"pool.{key}", report[key])
        transport = report.get("transport") or {}
        for key in ("delta_tasks", "full_tasks", "wire_batches", "wire_batch_bytes"):
            if key in transport:
                m.gauge(f"pool.transport.{key}", transport[key])
        m.gauge("cache.worker_hits", worker_hits)
        m.gauge("cache.worker_misses", worker_misses)
        # Re-snapshot: engine.result() ran before the pool gauges above.
        result.metrics = m.snapshot()
        result.profile = obs.profiler.summary()
    return result


def run_multiprocessing_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_workers: int = 2,
    seed: int | np.random.Generator | None = None,
    *,
    pool_params: PoolParams | None = None,
    fault_plan: FaultPlan | None = None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Synchronous master–worker TSMO on real OS processes.

    Each iteration is one :class:`SyncStep` with one task per worker.
    With ``n_workers=1`` the step runs in *lockstep* mode, which makes
    the run bit-identical to
    :func:`~repro.tabu.search.run_sequential_tsmo` with the same seed.
    With more workers each task draws an independent per-task seed —
    deterministic for a given ``seed`` regardless of worker failures.
    """
    params = params or TSMOParams()
    if n_workers < 1:
        raise SearchError("need at least one worker process")
    obs.set_unit("seconds")
    evaluator = Evaluator(instance, params.max_evaluations)
    engine = TSMOEngine(
        instance, params, as_generator(seed), evaluator=evaluator, obs=obs
    )
    step = SyncStep(
        engine, n_workers, None if isinstance(seed, np.random.Generator) else seed
    )

    start = time.perf_counter()
    with WorkerPool(
        instance, n_workers, params=pool_params, fault_plan=fault_plan, obs=obs
    ) as pool:
        engine.initialize()
        while not engine.done:
            task_ids = step.submit(pool)
            with obs.profiler.time("wait"):
                outcomes = pool.gather(task_ids)
            step.complete(outcomes)
        wall = time.perf_counter() - start
        return _finish_result(
            engine,
            pool,
            "multiprocessing",
            wall,
            n_workers,
            step.worker_hits,
            step.worker_misses,
        )


@dataclass(frozen=True, slots=True)
class MpAsyncParams:
    """Knobs of the real-process asynchronous driver.

    The simulated variant's :class:`~repro.parallel.async_ts.AsyncParams`
    measures its waiting deadline in cost-model units; here ``max_wait``
    is real wall-clock seconds.
    """

    #: neighbors per streamed result batch.
    batch_size: int = 10
    #: condition ``c3``: seconds the master waits after its last
    #: selection before proceeding with whatever has been collected.
    max_wait: float = 0.25
    #: blocking granularity of each pool poll.
    poll_timeout: float = 0.02

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SearchError("batch_size must be >= 1")
        if self.max_wait < 0:
            raise SearchError("max_wait must be non-negative")
        if self.poll_timeout <= 0:
            raise SearchError("poll_timeout must be positive")


def run_multiprocessing_async_tsmo(
    instance: Instance,
    params: TSMOParams | None = None,
    n_workers: int = 2,
    seed: int | np.random.Generator | None = None,
    *,
    async_params: MpAsyncParams | None = None,
    pool_params: PoolParams | None = None,
    fault_plan: FaultPlan | None = None,
    obs=NULL_OBS,
) -> TSMOResult:
    """Asynchronous master–worker TSMO on real OS processes (§III.D).

    The master keeps one neighborhood-chunk task outstanding per worker
    and collects streamed batches into a selection pool; Algorithm 2's
    decision function — c1 (a task completed, i.e. a worker went idle),
    c2 (a collected neighbor dominates the current solution), c3 (the
    master waited longer than ``max_wait``), c4 (budget exhausted) —
    decides when to select from a partial pool.  Batches that arrive
    after the master moved on join a later selection (the paper's
    carryover effect); worker crashes are retried by the pool with the
    same task seed, so no neighbor is lost or duplicated.

    Real asynchrony means real nondeterminism: unlike the simulated
    variant, the trajectory depends on OS scheduling.  The run itself —
    completion, budget accounting, archive validity — is guaranteed
    regardless of worker failures.
    """
    params = params or TSMOParams()
    aparams = async_params or MpAsyncParams()
    if n_workers < 1:
        raise SearchError("need at least one worker process")
    obs.set_unit("seconds")
    master_rng = as_generator(seed)
    seed_rng = RngFactory(seed if not isinstance(seed, np.random.Generator) else None).generator()
    evaluator = Evaluator(instance, params.max_evaluations)
    engine = TSMOEngine(instance, params, master_rng, evaluator=evaluator, obs=obs)

    chunk_sizes = _chunk_sizes(params.neighborhood_size, n_workers)

    start = time.perf_counter()
    worker_hits = worker_misses = 0
    carryover = 0
    pool_sizes: list[int] = []
    profiler = obs.profiler
    tracer = obs.tracer
    with WorkerPool(
        instance,
        n_workers,
        params=pool_params,
        fault_plan=fault_plan,
        batch_size=aparams.batch_size,
        obs=obs,
    ) as pool:
        engine.initialize()
        collected: list[Neighbor] = []
        outstanding = 0
        next_chunk = 0
        last_select = time.monotonic()
        while not engine.done:
            # Keep every worker fed: one outstanding chunk per worker,
            # always sampling a neighborhood of the *current* solution.
            while outstanding < len(chunk_sizes):
                size = chunk_sizes[next_chunk % len(chunk_sizes)]
                next_chunk += 1
                pool.submit(
                    engine.current.routes,
                    size,
                    seed=int(seed_rng.integers(2**63)),
                    iteration=engine.iteration + 1,
                )
                outstanding += 1

            task_finished = False
            with profiler.time("wait"):
                events = pool.poll(aparams.poll_timeout)
            with profiler.time("communicate"):
                for event in events:
                    for triple in event.neighbors:
                        collected.append(
                            rebuild_neighbor(
                                instance, triple, event.iteration, evaluator
                            )
                        )
                    if event.final:
                        task_finished = True
                        outstanding -= 1
                        if event.cache_delta is not None:
                            worker_hits += event.cache_delta[0]
                            worker_misses += event.cache_delta[1]

            current_obj = engine.current.objectives.as_array()
            c1 = task_finished
            c2 = any(
                dominates(n.objectives.as_array(), current_obj) for n in collected
            )
            c3 = time.monotonic() - last_select >= aparams.max_wait
            c4 = evaluator.exhausted
            if collected and (c1 or c2 or c3 or c4):
                if tracer.enabled:
                    fired = [
                        name
                        for name, hit in (("c1", c1), ("c2", c2), ("c3", c3), ("c4", c4))
                        if hit
                    ]
                    tracer.emit(
                        "decision_fired",
                        iteration=engine.iteration + 1,
                        reason=",".join(fired),
                        pool=len(collected),
                    )
                pool_sizes.append(len(collected))
                carryover += sum(
                    1 for n in collected if n.iteration <= engine.iteration
                )
                with profiler.time("select"):
                    engine.select_and_update(collected)
                collected = []
                last_select = time.monotonic()
        wall = time.perf_counter() - start
        if obs.enabled:
            m = obs.metrics
            for size in pool_sizes:
                m.observe(
                    "async.pool_size", size, buckets=(0, 5, 10, 25, 50, 100, 250, 500)
                )
            m.gauge("async.carryover_neighbors", carryover)
        result = _finish_result(
            engine,
            pool,
            "multiprocessing_async",
            wall,
            n_workers,
            worker_hits,
            worker_misses,
        )
    result.extra["mean_pool_size"] = (
        float(np.mean(pool_sizes)) if pool_sizes else 0.0
    )
    result.extra["carryover_neighbors"] = carryover
    return result
