"""Batched neighborhood sampling (the paper's unit of parallel work).

The paper's unit of parallel work is "draw S random moves from the
operators and score each one" (§III.B).  This module is the one
implementation of that unit, shared by every driver:

* **descriptor emitters** — each operator's ``propose_batch`` maps a
  block of uniform doubles to ``(fields, valid)``: an ``(m, 4)``
  integer descriptor array (operator-specific layout, see the operator
  modules) plus the local-feasibility mask, evaluated with gathers over
  :class:`ParentArrays` instead of per-candidate Python;
* **the operator wheel** — one uniform block spins :data:`_ROUNDS`
  wheel draws per slot, each operator's emitter runs once over all of
  its candidates, and a slot is won by its earliest valid candidate;
* **the scalar tail** — slots whose candidates all failed fall back to
  scalar ``registry.draw_move`` (counted in ``eval.scalar_fallbacks``),
  and a ``None`` from its retry cap truncates the neighborhood;
* **scalar delta evaluation** — each slot's move is built from its
  descriptor and scored by :meth:`~repro.core.evaluation.Evaluator.
  evaluate_move` in slot order, so every objective is bit-identical to
  ``move.apply(parent).objectives``.

An operator whose ``batch_ready(pre)`` is false for this parent (say,
2-opt* on a single-route solution) is skipped without consuming RNG,
exactly like its scalar ``propose`` returning ``None`` before the first
draw.  :class:`~repro.core.operators.registry.OperatorRegistry` accepts
only operators that have an emitter (:func:`has_emitter`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.operators.exchange import Exchange, ExchangeMove
from repro.core.operators.or_opt import SEGMENT_LENGTH, OrOpt, OrOptMove
from repro.core.operators.relocate import Relocate, RelocateMove
from repro.core.operators.segment_exchange import SegmentExchange, SegmentExchangeMove
from repro.core.operators.two_opt import TwoOpt, TwoOptMove
from repro.core.operators.two_opt_star import TwoOptStar, TwoOptStarMove

__all__ = ["BatchResult", "ParentArrays", "has_emitter", "sample_batch"]

#: operator-wheel spins per slot — every candidate redraws its kind,
#: exactly the scalar path's "redraw on failure" semantics, with all
#: retries materialized up front so each operator's emitter runs
#: exactly once per neighborhood (per-call numpy dispatch is the
#: sampler's cost floor, so the retry structure must not multiply it).
#: Even on tight-window instances where two of the five operators
#: accept ~1% of their draws the mean per-candidate failure rate is
#: ~0.75, so ~3% of slots exhaust all 12 candidates — a handful of
#: scalar-tail draws per 50-slot neighborhood, cheap next to doubling
#: every emitter's row count with more rounds.
_ROUNDS = 12


# ----------------------------------------------------------------------
# Parent/instance summaries
# ----------------------------------------------------------------------
class _InstanceArrays:
    """Instance-level vectors the emitters gather from (built once)."""

    __slots__ = ("due", "demand", "depart", "travel_flat", "n_sites", "depot_ok")

    def __init__(self, instance) -> None:
        self.due = instance.due_date
        self.demand = instance.demand
        #: earliest possible departure from each site (ready + service),
        #: the left side of the local feasibility criterion.
        self.depart = instance.ready_time + instance.service_time
        self.travel_flat = instance.travel.ravel()
        self.n_sites = instance.n_sites
        #: per-site feasibility of a fresh depot->c->depot route.
        self.depot_ok = (self.depart[0] + instance.travel[0] <= self.due) & (
            self.depart + instance.travel[:, 0] <= self.due[0]
        )


class ParentArrays:
    """Array summary of one parent solution for descriptor emitters.

    ``Rz`` is the padded route matrix: row r holds route ``r`` with a
    leading depot column and trailing zero padding, so predecessor /
    successor / boundary lookups are single gathers that naturally
    return the depot at route ends.  ``route_of``/``pos_of`` are
    site-indexed (position 0-based within the route) and
    ``prefload[r, c]`` is the demand of the first ``c`` customers of
    route ``r``.
    """

    __slots__ = (
        "routes",
        "n_routes",
        "n_customers",
        "capacity",
        "new_route_ok",
        "Rz",
        "Rz_width",
        "L",
        "route_of",
        "pos_of",
        "route_of_l",
        "pos_of_l",
        "loads",
        "prefload",
        "eligible2",
        "eligible3",
        "depart",
        "due",
        "demand",
        "travel_flat",
        "n_sites",
        "depot_ok",
    )

    def __init__(self, solution, arrays: _InstanceArrays) -> None:
        instance = solution.instance
        routes = solution.routes
        n = len(routes)
        self.routes = routes
        self.n_routes = n
        self.n_customers = instance.n_customers
        self.capacity = instance.capacity
        self.new_route_ok = solution.vehicle_slack > 0
        L = np.fromiter((len(r) for r in routes), dtype=np.int64, count=n)
        width = (int(L.max()) if n else 0) + 2
        Rz = np.zeros((n, width), dtype=np.int64)
        for i, r in enumerate(routes):
            Rz[i, 1 : 1 + len(r)] = r
        self.Rz = Rz
        self.Rz_width = width
        self.L = L
        ns = arrays.n_sites
        route_of = np.zeros(ns, dtype=np.int64)
        pos_of = np.zeros(ns, dtype=np.int64)
        rows, cols = np.nonzero(Rz)
        customers = Rz[rows, cols]
        route_of[customers] = rows
        pos_of[customers] = cols - 1
        self.route_of = route_of
        self.pos_of = pos_of
        self.route_of_l = route_of.tolist()
        self.pos_of_l = pos_of.tolist()
        self.loads = np.array(solution.route_loads(), dtype=np.float64)
        dm = np.where(Rz > 0, arrays.demand[Rz], 0.0)
        self.prefload = np.cumsum(dm, axis=1)
        self.eligible2 = np.nonzero(L >= 2)[0]
        self.eligible3 = np.nonzero(L >= SEGMENT_LENGTH + 1)[0]
        self.depart = arrays.depart
        self.due = arrays.due
        self.demand = arrays.demand
        self.travel_flat = arrays.travel_flat
        self.n_sites = ns
        self.depot_ok = arrays.depot_ok


class _SamplerState:
    """Per-evaluator sampler cache: instance arrays + last parent summary.

    Lives on ``Evaluator._sampler`` (not on the solution) so checkpoint
    pickles of solutions stay byte-identical with and without the
    sampler having run.
    """

    __slots__ = ("instance", "arrays", "_parent", "_pre")

    def __init__(self, instance) -> None:
        self.instance = instance
        self.arrays = _InstanceArrays(instance)
        self._parent = None
        self._pre: ParentArrays | None = None

    def parent_arrays(self, solution) -> ParentArrays:
        if solution is not self._parent:
            self._pre = ParentArrays(solution, self.arrays)
            self._parent = solution
        return self._pre


def _sampler_state(evaluator) -> _SamplerState:
    state = evaluator._sampler
    if state is None or state.instance is not evaluator.instance:
        state = _SamplerState(evaluator.instance)
        evaluator._sampler = state
    return state


# ----------------------------------------------------------------------
# Batched proposal
# ----------------------------------------------------------------------
def _propose_all(size, registry, rng, pre):
    """Fill up to ``size`` slots with vector-proposed descriptors.

    The §III.B wheel is materialized up front: one uniform block draws
    :data:`_ROUNDS` operator kinds per slot, then *each kind's emitter
    runs exactly once* over all its (slot, round) candidates.  A slot
    is won by its earliest feasible candidate.  Returns ``(kinds,
    fields, unfilled)``; ``kinds[s] == -1`` marks slots for the scalar
    tail.
    """
    operators = registry.operators
    n_ops = len(operators)
    ready = [op.batch_ready(pre) for op in operators]
    if not any(ready):
        # Nothing can propose on this parent (e.g. an empty solution):
        # identical to every scalar propose bailing before its first
        # draw, so no RNG is consumed here either.
        return (
            np.full(size, -1, dtype=np.int64),
            np.zeros((size, 4), dtype=np.int64),
            np.arange(size, dtype=np.int64),
        )
    n_pairs = size * _ROUNDS
    u = rng.random(n_pairs)
    if registry._uniform:
        wheel = (u * n_ops).astype(np.int64)
        np.minimum(wheel, n_ops - 1, out=wheel)
    else:
        wheel = np.searchsorted(
            np.asarray(registry._cumulative), u, side="right"
        )
        np.minimum(wheel, n_ops - 1, out=wheel)
    # Candidate p = slot * _ROUNDS + round, so slot-major order makes
    # the earliest round the smallest candidate index.
    pair_valid = np.zeros(n_pairs, dtype=bool)
    pair_fields = np.zeros((n_pairs, 4), dtype=np.int64)
    for k in range(n_ops):
        if not ready[k]:
            continue
        sel = np.nonzero(wheel == k)[0]
        m = sel.size
        if m == 0:
            continue
        op = operators[k]
        words = op.batch_words
        U = rng.random(m * words)
        f, valid = op.propose_batch(pre, U.reshape(m, words))
        winners = sel[valid]
        pair_valid[winners] = True
        pair_fields[winners] = f[valid]
    per_slot = pair_valid.reshape(size, _ROUNDS)
    has = per_slot.any(axis=1)
    round_won = per_slot.argmax(axis=1)
    flat = np.arange(size, dtype=np.int64) * _ROUNDS + round_won
    kinds = np.where(has, wheel[flat], -1)
    fields = pair_fields[flat]  # unfilled slots carry zeros, never read
    return kinds, fields, np.nonzero(~has)[0]


def _scalar_tail(solution, registry, rng, unfilled):
    """Scalar ``draw_move`` for the slots batched proposal left unfilled.

    A ``None`` (retry cap exhausted) truncates the neighborhood at that
    slot.
    """
    tail = {}
    draw = registry.draw_move
    for s in unfilled.tolist():
        move = draw(solution, rng)
        if move is None:
            return tail, s
        tail[s] = move
    return tail, None


# ----------------------------------------------------------------------
# Move materialization from descriptors
# ----------------------------------------------------------------------
def _move_relocate(pre, f):
    customer, dst, dst_pos, src = f
    return RelocateMove(
        customer=customer,
        src_route=src,
        src_pos=pre.pos_of_l[customer],
        dst_route=dst,
        dst_pos=dst_pos,
    )


def _move_exchange(pre, f):
    a, b = f[0], f[1]
    return ExchangeMove(
        customer_a=a,
        route_a=pre.route_of_l[a],
        pos_a=pre.pos_of_l[a],
        customer_b=b,
        route_b=pre.route_of_l[b],
        pos_b=pre.pos_of_l[b],
    )


def _move_two_opt(pre, f):
    r, start, end = f[0], f[1], f[2]
    route = pre.routes[r]
    return TwoOptMove(
        route_index=r,
        start=start,
        end=end,
        segment_first=route[start],
        segment_last=route[end],
    )


def _move_two_opt_star(pre, f):
    ra_i, cut_a, rb_i, cut_b = f
    ra = pre.routes[ra_i]
    rb = pre.routes[rb_i]
    tail_a = ra[cut_a - 1] if cut_a > 0 else 0
    head_b = rb[cut_b] if cut_b < len(rb) else 0
    tail_b = rb[cut_b - 1] if cut_b > 0 else 0
    head_a = ra[cut_a] if cut_a < len(ra) else 0
    boundary = frozenset(c for c in (tail_a, head_b, tail_b, head_a) if c != 0)
    return TwoOptStarMove(
        route_a=ra_i, cut_a=cut_a, route_b=rb_i, cut_b=cut_b, boundary=boundary
    )


def _move_or_opt(pre, f):
    r, start, insert_at = f[0], f[1], f[2]
    route = pre.routes[r]
    return OrOptMove(
        route_index=r,
        start=start,
        insert_at=insert_at,
        segment=route[start : start + SEGMENT_LENGTH],
    )


def _move_segment_exchange(pre, f):
    route_a, pos_a, customer = f[0], f[1], f[2]
    route = pre.routes[route_a]
    return SegmentExchangeMove(
        route_a=route_a,
        pos_a=pos_a,
        segment=(route[pos_a], route[pos_a + 1]),
        route_b=pre.route_of_l[customer],
        pos_b=pre.pos_of_l[customer],
        customer=customer,
    )


_MOVE_BUILDERS = {
    Relocate: _move_relocate,
    Exchange: _move_exchange,
    TwoOpt: _move_two_opt,
    TwoOptStar: _move_two_opt_star,
    OrOpt: _move_or_opt,
    SegmentExchange: _move_segment_exchange,
}


def has_emitter(operator) -> bool:
    """Whether ``operator`` can propose through :func:`sample_batch`.

    It needs a descriptor emitter (``batch_words`` > 0 with
    ``batch_ready``/``propose_batch``) and a move builder for its exact
    type — a subclass could override ``propose`` and drift from the
    builder's reading of the descriptor.
    """
    return type(operator) in _MOVE_BUILDERS and operator.batch_words > 0


# ----------------------------------------------------------------------
# Public entry: one neighborhood, sampled and evaluated
# ----------------------------------------------------------------------
class BatchResult:
    """One sampled neighborhood: ``(objectives, move)`` per slot plus
    phase timings."""

    __slots__ = ("entries", "gen_seconds", "eval_seconds")

    def __init__(self, entries, gen_seconds, eval_seconds) -> None:
        self.entries = entries
        self.gen_seconds = gen_seconds
        self.eval_seconds = eval_seconds


def sample_batch(solution, size, registry, rng, evaluator, *, timed=False) -> BatchResult:
    """Sample and evaluate one neighborhood of up to ``size`` moves.

    Proposal (the RNG-consuming part) runs the batched wheel, then the
    scalar tail; each slot's move is then built from its descriptor and
    scored by :meth:`~repro.core.evaluation.Evaluator.evaluate_move` in
    slot order.  ``rng`` is the :class:`numpy.random.Generator` whose
    stream defines the trajectory.  ``timed`` fills the generate /
    evaluate phase seconds.
    """
    pre = _sampler_state(evaluator).parent_arrays(solution)
    clock = time.perf_counter
    t0 = clock() if timed else 0.0
    kinds, fields, unfilled = _propose_all(size, registry, rng, pre)
    tail, cut = _scalar_tail(solution, registry, rng, unfilled)
    t1 = clock() if timed else 0.0

    limit = size if cut is None else cut
    builders = [_MOVE_BUILDERS[type(op)] for op in registry.operators]
    evaluate_move = evaluator.evaluate_move
    kinds_l = kinds[:limit].tolist()
    fields_l = fields[:limit].tolist()
    entries = []
    for s in range(limit):
        move = tail.get(s)
        if move is None:
            move = builders[kinds_l[s]](pre, fields_l[s])
        entries.append((evaluate_move(solution, move), move))
    if tail and evaluator.metrics.enabled:
        evaluator.metrics.inc("eval.scalar_fallbacks", len(tail))
    gen_seconds = (t1 - t0) if timed else 0.0
    eval_seconds = (clock() - t1) if timed else 0.0
    return BatchResult(entries, gen_seconds, eval_seconds)
