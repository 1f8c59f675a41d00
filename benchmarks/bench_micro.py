"""Microbenchmarks of the library's hot paths.

Not a paper table — these exist to keep the performance engineering
honest: route-schedule scans, incremental move evaluation, operator
drawing, archive updates, non-dominated filtering and DES throughput.
Regressions here inflate every macro benchmark above.
"""

import timeit

import numpy as np
import pytest

from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator, evaluate
from repro.core.operators.registry import default_registry
from repro.core.objectives import ObjectiveVector
from repro.core.routes import route_stats
from repro.core.solution import Solution
from repro.mo.archive import ParetoArchive
from repro.mo.dominance import non_dominated_mask
from repro.parallel.des import Environment, Mailbox
from repro.parallel.pool import PoolParams, WorkerPool
from repro.parallel.wire import WireBatch, WireRoutes, wire_cost
from repro.tabu.neighborhood import sample_neighborhood
from repro.vrptw.generator import generate_instance


@pytest.fixture(scope="module")
def instance():
    return generate_instance("R1", 100, seed=1)


@pytest.fixture(scope="module")
def solution(instance):
    return i1_construct(instance, rng=np.random.default_rng(0))


def test_route_stats_scan(benchmark, instance, solution):
    route = max(solution.routes, key=len)
    benchmark(route_stats, instance, route)


def test_full_solution_evaluation(benchmark, instance, solution):
    benchmark(lambda: evaluate(instance, Solution(instance, solution.routes)))


def test_incremental_move_evaluation(benchmark, instance, solution):
    registry = default_registry()
    rng = np.random.default_rng(2)
    moves = []
    while len(moves) < 64:
        move = registry.draw_move(solution, rng)
        if move is not None:
            moves.append(move)
    counter = {"i": 0}

    def apply_one():
        move = moves[counter["i"] % len(moves)]
        counter["i"] += 1
        return move.apply(solution).objectives

    benchmark(apply_one)


def test_operator_draw(benchmark, solution):
    registry = default_registry()
    rng = np.random.default_rng(3)
    benchmark(registry.draw_move, solution, rng)


def test_neighborhood_sampling_50(benchmark, instance, solution):
    registry = default_registry()
    rng = np.random.default_rng(4)
    evaluator = Evaluator(instance)
    benchmark(sample_neighborhood, solution, 50, registry, rng, evaluator)


def test_nondominated_mask_200(benchmark):
    rng = np.random.default_rng(5)
    points = rng.random((200, 3))
    benchmark(non_dominated_mask, points)


def test_archive_try_add(benchmark):
    rng = np.random.default_rng(6)
    archive = ParetoArchive(capacity=20)
    for k in range(20):
        archive.try_add(k, ObjectiveVector(100 - k, k, 0.0))
    offers = [
        ObjectiveVector(float(rng.uniform(50, 150)), int(rng.integers(1, 20)), 0.0)
        for _ in range(256)
    ]
    counter = {"i": 0}

    def offer_one():
        archive.try_add("x", offers[counter["i"] % 256])
        counter["i"] += 1

    benchmark(offer_one)


def test_des_event_throughput(benchmark):
    """Ping-pong between two processes: events per second."""

    def run_sim():
        env = Environment()
        a, b = Mailbox(env), Mailbox(env)

        def ping():
            for _ in range(500):
                a.put(1)
                yield b.get()

        def pong():
            for _ in range(500):
                yield a.get()
                b.put(1)

        env.process(ping())
        env.process(pong())
        env.run()
        return env.now

    benchmark(run_sim)


def test_i1_construction_100(benchmark, instance):
    rng = np.random.default_rng(7)
    benchmark(lambda: i1_construct(instance, rng=rng))


@pytest.fixture(scope="module")
def worker_pool(instance):
    """One persistent worker, shared by the whole module: the spawn cost
    (instance pickling, interpreter boot) is paid once, so the benchmark
    below measures the steady-state task round-trip, not startup."""
    with WorkerPool(
        instance, 1, params=PoolParams(heartbeat_interval=0.05)
    ) as pool:
        yield pool


def test_disabled_metrics_overhead_under_5_percent(instance, solution):
    """Disabled instrumentation must stay out of ``evaluate_move``'s way.

    The only code the observability layer added to the hot loop is the
    ``m = self.metrics; if m.enabled:`` guard against the null registry.
    This measures that guard in isolation (min-of-repeats, so scheduler
    noise cannot help it pass) against the per-call cost of a real
    ``evaluate_move``, and asserts the guard is under 5% of it — i.e.
    uninstrumented search speed is preserved.  A couple of retries
    absorb one-off timer hiccups; the bound itself has ~100x margin on
    typical hardware, so a persistent failure is a real regression.
    """
    evaluator = Evaluator(instance)
    registry = default_registry()
    rng = np.random.default_rng(8)
    moves = []
    while len(moves) < 32:
        move = registry.draw_move(solution, rng)
        if move is not None:
            moves.append(move)

    def eval_all():
        for move in moves:
            evaluator.evaluate_move(solution, move)

    guard_stmt = "m = evaluator.metrics\nif m.enabled:\n    pass"
    for attempt in range(3):
        eval_per_call = min(
            timeit.repeat(eval_all, number=20, repeat=5)
        ) / (20 * len(moves))
        guard_per_call = min(
            timeit.repeat(
                guard_stmt, number=20_000, globals={"evaluator": evaluator}, repeat=5
            )
        ) / 20_000
        if guard_per_call < 0.05 * eval_per_call:
            return
    pytest.fail(
        f"disabled-metrics guard costs {guard_per_call * 1e9:.0f}ns per call, "
        f">= 5% of evaluate_move's {eval_per_call * 1e9:.0f}ns"
    )


def test_wire_batch_encode_decode(benchmark, instance, solution):
    """Codec hot path: encode + decode one 10-neighbor result batch.

    This is the CPU the transport spends per batch on each side of the
    queue; it must stay small next to the pickling it displaces."""
    registry = default_registry()
    evaluator = Evaluator(instance)
    rng = np.random.default_rng(9)
    items = []
    while len(items) < 10:
        move = registry.draw_move(solution, rng)
        if move is None:
            continue
        obj = evaluator.evaluate_move(solution, move)
        replacements, added = move.route_edits(solution)
        items.append(
            (
                replacements,
                added,
                (obj.distance, obj.vehicles, obj.tardiness),
                move.attribute,
            )
        )
    benchmark(lambda: WireBatch.encode(items).decode(solution.routes))


def test_wire_routes_encode_decode_400(benchmark):
    """Full-task codec round-trip at paper scale (400 customers).

    The byte ledger rides along as ``extra_info`` → BENCH_micro.json:
    pickle-vs-wire payload sizes for the instance broadcast, the task,
    one result batch and a whole iteration, measured on real sampled
    neighbors of this instance."""
    instance = generate_instance("R1", 400, seed=7)
    benchmark.extra_info["wire_cost"] = wire_cost(
        instance, neighborhood=200, batch_size=10, seed=3
    )
    routes = i1_construct(instance, rng=7).routes
    benchmark(lambda: WireRoutes.encode(routes).decode())


def test_pool_task_roundtrip(benchmark, worker_pool, solution):
    """submit → worker samples 20 neighbors → gather, on a live process.

    The per-iteration overhead every real-process driver pays on top of
    the neighborhood work itself (queue hops, pickling both ways)."""
    counter = {"seed": 0}

    def roundtrip():
        counter["seed"] += 1
        tid = worker_pool.submit(
            solution.routes, 20, seed=counter["seed"], iteration=1
        )
        return worker_pool.gather([tid])[tid]

    benchmark(roundtrip)
