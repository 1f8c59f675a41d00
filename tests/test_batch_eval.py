"""The batched neighborhood sampler and the oracles that pin it.

Five layers under test (DESIGN.md "Batched sampling"):

* per-operator descriptor emitters: for every operator, the first
  valid row of ``propose_batch`` over a block of uniforms builds the
  exact move scalar ``propose`` returns from the same uniforms;
* the sampler's slot semantics: ``sample_batch`` equals a scalar
  replay that spins the same wheel, screens each candidate through
  scalar ``propose`` and fills the leftovers with ``draw_move`` — same
  moves, same RNG stream position;
* every sampled entry's objectives are bit-identical to
  ``move.apply(parent).objectives``;
* whole five-driver trajectories are unchanged with route-stats
  retention off;
* registries: an operator without an emitter is rejected, and the
  six-operator registry samples through ``sample_batch`` on both the
  sequential and the pool path with bit-identical neighbors.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch_eval as batch_eval
import repro.parallel.pool as pool_module
import repro.tabu.neighborhood as neighborhood_module
from repro.core.batch_eval import _MOVE_BUILDERS, ParentArrays, _InstanceArrays, sample_batch
from repro.core.construction import i1_construct
from repro.core.evaluation import Evaluator, evaluate
from repro.core.operators.base import Operator
from repro.core.operators.exchange import Exchange
from repro.core.operators.or_opt import OrOpt
from repro.core.operators.registry import OperatorRegistry
from repro.core.operators.relocate import Relocate
from repro.core.operators.segment_exchange import SegmentExchange
from repro.core.operators.two_opt import TwoOpt
from repro.core.operators.two_opt_star import TwoOptStar
from repro.core.solution import Solution
from repro.errors import OperatorError
from repro.obs import Obs
from repro.parallel.async_ts import AsyncParams, run_asynchronous_tsmo
from repro.parallel.base import run_sequential_simulated
from repro.parallel.collab_ts import CollabParams, run_collaborative_tsmo
from repro.parallel.messages import PoolTask
from repro.parallel.pool import execute_task
from repro.parallel.sync_ts import run_synchronous_tsmo
from repro.tabu.neighborhood import sample_neighborhood
from repro.tabu.search import run_sequential_tsmo
from repro.vrptw.generator import generate_instance

OPERATORS = [Relocate, Exchange, TwoOpt, TwoOptStar, OrOpt, SegmentExchange]


def all_six_registry() -> OperatorRegistry:
    return OperatorRegistry([op() for op in OPERATORS])


def parent_arrays(solution) -> ParentArrays:
    return ParentArrays(solution, _InstanceArrays(solution.instance))


def walk_parents(seed: int, steps: int):
    """A tight-window instance and a chain of parents reached by random
    moves, so later parents carry deleted, freshly opened and
    single-customer routes."""
    rng = np.random.default_rng(seed)
    instance = generate_instance(
        ("R1", "C2", "R2")[seed % 3], 16, seed=int(rng.integers(1, 10**6))
    )
    solution = i1_construct(instance, rng=rng)
    parents = [solution]
    registry = all_six_registry()
    for _ in range(steps):
        move = registry.draw_move(solution, rng)
        if move is None:
            break
        solution = move.apply(solution)
        parents.append(solution)
    return instance, parents


def assert_objectives_exact(parent, entries):
    """Every entry's objectives == move.apply(parent).objectives, bitwise."""
    for objectives, move in entries:
        child = move.apply(parent)
        assert objectives.distance == child.objectives.distance
        assert objectives.vehicles == child.objectives.vehicles
        assert objectives.tardiness == child.objectives.tardiness
        oracle = evaluate(parent.instance, child)
        assert objectives.distance == oracle.distance
        assert objectives.tardiness == oracle.tardiness


# ----------------------------------------------------------------------
# 1. Emitter oracle: propose_batch == scalar propose, per operator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("op_cls", OPERATORS, ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), steps=st.integers(0, 6))
def test_emitter_matches_scalar_propose(op_cls, seed, steps):
    """Same uniforms in, same move out — the first valid emitter row is
    the move scalar ``propose`` returns (``None`` when no row is valid
    or the operator is not ready on this parent)."""
    instance, parents = walk_parents(seed, steps)
    for parent in parents:
        op = op_cls()
        pre = parent_arrays(parent)
        scalar_rng = np.random.default_rng(seed)
        before = scalar_rng.bit_generator.state
        expected = op.propose(parent, scalar_rng)
        if not op.batch_ready(pre):
            # An unready operator bails before its first draw.
            assert expected is None
            assert scalar_rng.bit_generator.state == before
            continue
        words = op.batch_words
        U = np.random.default_rng(seed).random(words * op.max_attempts)
        fields, valid = op.propose_batch(pre, U.reshape(op.max_attempts, words))
        rows = np.nonzero(valid)[0]
        if rows.size == 0:
            assert expected is None
        else:
            built = _MOVE_BUILDERS[op_cls](pre, fields[rows[0]].tolist())
            assert built == expected
        # The sampler's entries for this operator are exact too.
        result = sample_batch(
            parent, 8, OperatorRegistry([op_cls()]), np.random.default_rng(seed), Evaluator(instance)
        )
        assert_objectives_exact(parent, result.entries)


# ----------------------------------------------------------------------
# 2. Sampler slot semantics against a scalar replay
# ----------------------------------------------------------------------


def scalar_replay(solution, size, registry, rng):
    """The sampler re-derived from scalar pieces: the same wheel block,
    each candidate screened by a one-attempt scalar ``propose`` over its
    own uniform row, the earliest valid round winning its slot, and the
    leftover slots drawn by ``registry.draw_move``."""
    operators = registry.operators
    pre = parent_arrays(solution)
    ready = [op.batch_ready(pre) for op in operators]
    if not any(ready):
        winners = [None] * size
    else:
        n = len(operators)
        cumulative = registry._cumulative

        def spin(x):
            if registry._uniform:
                return min(int(x * n), n - 1)
            return next((i for i, c in enumerate(cumulative) if x < c), n - 1)

        kinds = [spin(x) for x in rng.random(size * batch_eval._ROUNDS).tolist()]
        moves = [None] * len(kinds)
        for k, op in enumerate(operators):
            if not ready[k]:
                continue
            picks = [p for p, kind in enumerate(kinds) if kind == k]
            block = rng.random(len(picks) * op.batch_words).reshape(len(picks), op.batch_words)
            one_shot = copy.copy(op)
            one_shot.max_attempts = 1
            for p, row in zip(picks, block):
                moves[p] = one_shot.propose(solution, _RowRng(row))
        winners = []
        for s in range(size):
            rounds = moves[s * batch_eval._ROUNDS : (s + 1) * batch_eval._ROUNDS]
            winners.append(next((m for m in rounds if m is not None), None))
    out = []
    for move in winners:
        if move is None:
            move = registry.draw_move(solution, rng)
            if move is None:
                break
        out.append(move)
    return out


class _RowRng:
    """Hands scalar ``propose`` one fixed row of uniforms."""

    def __init__(self, row) -> None:
        self.row = row

    def random(self, n):
        assert n == len(self.row)
        return self.row


@pytest.mark.parametrize("op_cls", OPERATORS, ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_kernel_matches_oracle_per_operator(op_cls, seed):
    """Single-operator registries: ``sample_batch`` == the scalar replay
    (moves and RNG stream position), with exact objectives, over a
    chain of parents."""
    instance, parents = walk_parents(seed, 4)
    registry = OperatorRegistry([op_cls()])
    for parent in parents:
        batch_rng = np.random.default_rng(seed ^ 0x5EED)
        replay_rng = np.random.default_rng(seed ^ 0x5EED)
        result = sample_batch(parent, 12, registry, batch_rng, Evaluator(instance))
        expected = scalar_replay(parent, 12, registry, replay_rng)
        assert [move for _, move in result.entries] == expected
        assert batch_rng.bit_generator.state == replay_rng.bit_generator.state
        assert_objectives_exact(parent, result.entries)


def assert_matches_replay(solution, registry):
    batch_rng = np.random.default_rng(31337)
    replay_rng = np.random.default_rng(31337)
    result = sample_batch(solution, 60, registry, batch_rng, Evaluator(solution.instance))
    assert len(result.entries) == 60
    assert [move for _, move in result.entries] == scalar_replay(
        solution, 60, registry, replay_rng
    )
    assert float(batch_rng.random()) == float(replay_rng.random())
    assert_objectives_exact(solution, result.entries)


def test_kernel_matches_oracle_mixed_registry(small_solution):
    """The full six-operator wheel over one big neighborhood."""
    assert_matches_replay(small_solution, all_six_registry())


def test_kernel_matches_oracle_weighted_registry(small_solution):
    """A weighted wheel spins through the cumulative thresholds."""
    registry = OperatorRegistry(
        [op() for op in OPERATORS], weights=[5.0, 1.0, 1.0, 2.0, 1.0, 3.0]
    )
    assert_matches_replay(small_solution, registry)


def test_kernel_scalar_tail_when_no_kind_ready(tiny_instance):
    """A parent no emitter can serve routes every slot to the tail.

    On a single-route solution Exchange/TwoOptStar have an empty wheel
    (``batch_ready`` is false), so the sampler consumes no block RNG and
    the neighborhood is exactly what ``draw_move`` yields — here
    nothing, after the retry cap, with the stream left where a lone
    ``draw_move`` leaves it.
    """
    customers = tuple(range(1, tiny_instance.n_customers + 1))
    solution = Solution(tiny_instance, (customers,))
    for op_cls in (Exchange, TwoOptStar):
        registry = OperatorRegistry([op_cls()])
        batch_rng = np.random.default_rng(7)
        replay_rng = np.random.default_rng(7)
        result = sample_batch(solution, 10, registry, batch_rng, Evaluator(tiny_instance))
        assert result.entries == []
        assert registry.draw_move(solution, replay_rng) is None
        assert batch_rng.bit_generator.state == replay_rng.bit_generator.state


# ----------------------------------------------------------------------
# 3. Whole trajectories: the cache knob changes who computes, not what
# ----------------------------------------------------------------------

DRIVERS = [
    "sequential",
    "sequential-sim",
    "synchronous",
    "asynchronous",
    "collaborative",
]


def run_driver(driver, instance, params, seed):
    if driver == "sequential":
        return run_sequential_tsmo(instance, params, seed=seed)
    if driver == "sequential-sim":
        return run_sequential_simulated(instance, params, seed=seed)
    if driver == "synchronous":
        return run_synchronous_tsmo(instance, params, 3, seed)
    if driver == "asynchronous":
        return run_asynchronous_tsmo(
            instance, params, 3, seed, async_params=AsyncParams(batch_size=8)
        )
    if driver == "collaborative":
        return run_collaborative_tsmo(
            instance, params, 3, seed, collab_params=CollabParams(initial_phase_patience=3)
        )
    raise AssertionError(driver)


def fingerprint(result):
    return (
        result.front().tolist(),
        result.evaluations,
        result.iterations,
        result.restarts,
        result.simulated_time,
        result.extra.get("messages_sent"),
    )


@pytest.mark.parametrize("driver", DRIVERS)
def test_trajectory_identical_knob_on_and_off(driver, small_instance, quick_params, monkeypatch):
    """Route-stats retention on (default) and off
    (``REPRO_STATS_CACHE_CAPACITY=0``): every sampled objective is
    re-scanned instead of recalled, and the trajectory must not move."""
    monkeypatch.delenv("REPRO_STATS_CACHE_CAPACITY", raising=False)
    on = run_driver(driver, small_instance, quick_params, seed=42)
    monkeypatch.setenv("REPRO_STATS_CACHE_CAPACITY", "0")
    off = run_driver(driver, small_instance, quick_params, seed=42)
    assert on.cache_stats.hits > 0 and off.cache_stats.hits == 0
    assert fingerprint(on) == fingerprint(off)


# ----------------------------------------------------------------------
# 4. Registries: emitters are mandatory, every path uses the sampler
# ----------------------------------------------------------------------


class _NoEmitter(Operator):
    name = "noemit"

    def propose(self, solution, rng):
        return None


class _RelocateVariant(Relocate):
    """Same emitter, but a type the move builders do not know."""


@pytest.mark.parametrize("op", [_NoEmitter(), _RelocateVariant()], ids=["no-emitter", "subclass"])
def test_registry_rejects_operator_without_emitter(op):
    with pytest.raises(OperatorError, match="no batch emitter"):
        OperatorRegistry([Relocate(), op])


def test_six_operator_registry_samples_through_sample_batch(
    small_instance, small_solution, monkeypatch
):
    """The sequential sampler and the pool's task executor both go
    through ``sample_batch`` and produce bit-identical neighbors."""
    calls = []

    def counting(solution, size, *args, **kwargs):
        calls.append(size)
        return sample_batch(solution, size, *args, **kwargs)

    monkeypatch.setattr(neighborhood_module, "sample_batch", counting)
    monkeypatch.setattr(pool_module, "sample_batch", counting)

    seq_rng = np.random.default_rng(99)
    state = seq_rng.bit_generator.state
    sequential = sample_neighborhood(
        small_solution, 40, all_six_registry(), seq_rng, Evaluator(small_instance)
    )
    task = PoolTask(
        task_id=1,
        attempt=0,
        routes=small_solution.routes,
        count=40,
        batch_size=7,
        iteration=1,
        rng_state=state,
    )
    batches = list(
        execute_task(small_instance, Evaluator(small_instance), all_six_registry(), task, 0)
    )
    assert calls == [40, 40]
    triples = [
        t for batch in batches for t in batch.neighbors.decode(small_solution.routes)
    ]
    assert len(triples) == len(sequential) == 40
    assert {nb.move.name for nb in sequential} >= {"segx"}
    for nb, (routes, objective, attribute) in zip(sequential, triples):
        assert nb.solution.routes == routes
        assert (nb.objectives.distance, nb.objectives.vehicles, nb.objectives.tardiness) == objective
        assert nb.move.attribute == attribute
    # The task hands the stream back where the sequential sampler left it.
    assert batches[-1].rng_state == seq_rng.bit_generator.state


# ----------------------------------------------------------------------
# 5. Sampler counters through the observability layer
# ----------------------------------------------------------------------


def test_kernel_counters_on_instrumented_search(small_instance, quick_params):
    result = run_sequential_tsmo(small_instance, quick_params, seed=5, obs=Obs())
    counters = result.metrics["counters"]
    # Every budget unit but the initial construction's full evaluate()
    # is one scalar delta evaluation of a sampled move.
    assert counters["evaluate.moves"] == result.evaluations - 1
    assert 0 <= counters.get("eval.scalar_fallbacks", 0) <= counters["evaluate.moves"]
    assert not any(name.startswith("eval.vector") for name in counters)


def test_scalar_fallback_counter_counts_tail_slots(small_instance, small_solution):
    """Slots the wheel left unfilled are counted once each."""
    obs = Obs()
    evaluator = Evaluator(small_instance)
    evaluator.metrics = obs.metrics
    # A lone, rarely valid operator: some slots exhaust all rounds and
    # fall through to the scalar tail.
    registry = OperatorRegistry([TwoOptStar()])
    unfilled = batch_eval._propose_all(
        200, registry, np.random.default_rng(4), parent_arrays(small_solution)
    )[2]
    result = sample_batch(small_solution, 200, registry, np.random.default_rng(4), evaluator)
    tail = sum(1 for s in unfilled.tolist() if s < len(result.entries))
    assert tail > 0
    assert obs.metrics.snapshot()["counters"]["eval.scalar_fallbacks"] == tail

