"""Solution evaluation and the evaluation budget counter.

The paper's stopping criterion is a fixed budget of solution
*evaluations* (100,000 in Tables I–IV), shared between master and
workers in the parallel variants.  :class:`Evaluator` is the single
place where that budget is counted: every neighbor that gets its
objectives computed passes through :meth:`Evaluator.evaluate` or
:meth:`Evaluator.evaluate_move`, whether it runs on the (simulated)
master or a worker.

:meth:`Evaluator.evaluate_move` is the delta-evaluation fast path: it
scores a sampled move from its :meth:`~repro.core.operators.base.Move.
route_edits` alone — parent statistics for untouched routes, the
shared :class:`~repro.core.stats_cache.RouteStatsCache` for edited
ones — without materializing the child :class:`Solution`.  Because the
per-route statistics are a pure function of the route tuple and the
summation order matches ``Solution.objectives`` exactly (parent route
order, then added routes), the result is bit-identical to
``move.apply(parent).objectives``.

The module also provides :func:`evaluate`, a standalone function that
recomputes the objective triple of a permutation directly — used by
tests as an independent oracle against the incremental per-route
caching in :class:`repro.core.solution.Solution`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.objectives import ObjectiveVector
from repro.core.operators.base import Move
from repro.core.routes import route_stats
from repro.core.solution import Solution
from repro.core.stats_cache import RouteStatsCache
from repro.errors import SearchError
from repro.obs.registry import NULL_REGISTRY
from repro.vrptw.instance import Instance

__all__ = ["Evaluator", "evaluate", "evaluate_permutation"]


def evaluate(instance: Instance, solution: Solution) -> ObjectiveVector:
    """Recompute a solution's objectives from scratch (oracle path).

    Ignores any cached route statistics on the solution; use
    ``solution.objectives`` for the fast cached value.
    """
    distance = 0.0
    tardiness = 0.0
    for route in solution.routes:
        st = route_stats(instance, route)
        distance += st.distance
        tardiness += st.tardiness
    return ObjectiveVector(
        distance=distance, vehicles=len(solution.routes), tardiness=tardiness
    )


def evaluate_permutation(
    instance: Instance, permutation: Sequence[int] | np.ndarray
) -> ObjectiveVector:
    """Evaluate a raw giant-tour permutation exactly as the paper defines.

    * ``f1``: sum of ``t[p_k, p_{k+1}]`` over the whole string (legs
      between consecutive depot markers cost 0);
    * ``f2``: count of positions where a ``0`` is followed by a
      customer;
    * ``f3``: total tardiness from the arrival-time recursion.

    This is the literal transcription of §II of the paper and serves as
    the reference implementation in property tests.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    legs = instance.travel[perm[:-1], perm[1:]]
    distance = float(legs.sum())
    vehicles = int(np.count_nonzero((perm[:-1] == 0) & (perm[1:] != 0)))

    tardiness = 0.0
    time = 0.0
    due = instance._due_l
    ready = instance._ready_l
    service = instance._service_l
    travel_rows = instance._travel_rows
    prev = 0
    for site in perm.tolist()[1:]:
        time += travel_rows[prev][site]
        late = time - due[site]
        if late > 0.0:
            tardiness += late
        if site == 0:
            time = 0.0  # next vehicle departs the depot fresh at time 0
        else:
            r = ready[site]
            if time < r:
                time = r
            time += service[site]
        prev = site
    return ObjectiveVector(distance=distance, vehicles=vehicles, tardiness=tardiness)


class Evaluator:
    """Counts evaluations against the paper's budget.

    Parameters
    ----------
    instance:
        The problem being solved.
    max_evaluations:
        The evaluation budget (``MaximumEvaluations`` in Algorithm 1).
        ``None`` means unlimited.
    stats_cache:
        The route-statistics memo backing :meth:`evaluate_move`.  Pass
        one explicitly to share it between evaluators (the
        collaborative driver shares a single cache across all
        searchers); by default each evaluator owns a fresh cache.
    """

    __slots__ = (
        "instance",
        "max_evaluations",
        "count",
        "stats_cache",
        "metrics",
        "_memo_parent",
        "_memo_pd",
        "_memo_pt",
        "_sampler",
    )

    def __init__(
        self,
        instance: Instance,
        max_evaluations: int | None = None,
        stats_cache: RouteStatsCache | None = None,
    ) -> None:
        if max_evaluations is not None and max_evaluations < 1:
            raise SearchError(f"max_evaluations must be >= 1, got {max_evaluations}")
        self.instance = instance
        self.max_evaluations = max_evaluations
        self.count = 0
        self.stats_cache = (
            stats_cache if stats_cache is not None else RouteStatsCache(instance)
        )
        # Metrics hook for instrumented runs; NULL_REGISTRY's disabled
        # flag keeps the hot-loop cost to one attribute check.
        self.metrics = NULL_REGISTRY
        # Per-parent memo of objective prefix sums (see evaluate_move).
        # The strong reference also pins the parent, so the identity
        # check can never alias a recycled object id.
        self._memo_parent: Solution | None = None
        self._memo_pd: list[float] = []
        self._memo_pt: list[float] = []
        # Lazily built batched-sampler state (see repro.core.batch_eval).
        self._sampler = None

    @property
    def exhausted(self) -> bool:
        """True once the budget has been spent."""
        return self.max_evaluations is not None and self.count >= self.max_evaluations

    @property
    def remaining(self) -> int | None:
        """Evaluations left in the budget (``None`` when unlimited)."""
        if self.max_evaluations is None:
            return None
        return max(self.max_evaluations - self.count, 0)

    def evaluate(self, solution: Solution) -> ObjectiveVector:
        """Evaluate one solution, charging one unit of budget.

        The actual computation is incremental: the solution computes
        statistics only for routes whose cache is cold (routes copied
        unchanged from a parent solution keep their statistics).
        """
        self.count += 1
        return solution.objectives

    def evaluate_move(self, parent: Solution, move: Move) -> ObjectiveVector:
        """Score ``move`` against ``parent`` without building the child.

        Charges one unit of budget, exactly like :meth:`evaluate`.  The
        returned vector is bit-identical to
        ``move.apply(parent).objectives``: untouched routes contribute
        the parent's cached statistics, edited/added routes are served
        from :attr:`stats_cache` (scanned on miss), and the summation
        runs in the child's route order.
        """
        self.count += 1
        replacements, added = move.route_edits(parent)
        stats = parent._stats
        if parent is not self._memo_parent:
            if parent._objectives is None:
                parent.objectives  # noqa: B018 - warms every per-route stat
            # Left-fold prefix sums of the parent's objectives: pd[k] is
            # the running distance before route k, i.e. exactly the
            # partial the summation loop below would hold — so for a
            # move whose first edited route is k the loop can resume
            # there with bit-identical float association.  The parent is
            # stable across a whole neighborhood, so this amortizes to
            # ~one fold per iteration.
            d = 0.0
            t = 0.0
            pd = [0.0]
            pt = [0.0]
            for st in stats:
                d += st.distance
                t += st.tardiness
                pd.append(d)
                pt.append(t)
            self._memo_pd = pd
            self._memo_pt = pt
            self._memo_parent = parent
        first = min(replacements) if replacements else len(stats)
        distance = self._memo_pd[first]
        tardiness = self._memo_pt[first]
        vehicles = first
        lookup = self.stats_cache.lookup
        replaced = replacements.get
        for i in range(first, len(stats)):
            new_route = replaced(i)
            if new_route is not None:
                if not new_route:
                    continue  # route deleted — vehicle returns to the pool
                st = lookup(new_route)
            else:
                st = stats[i]
            distance += st.distance
            tardiness += st.tardiness
            vehicles += 1
        for route in added:
            if route:
                st = lookup(route)
                distance += st.distance
                tardiness += st.tardiness
                vehicles += 1
        m = self.metrics
        if m.enabled:
            m.inc("evaluate.moves")
            m.inc("evaluate.routes_touched", len(replacements) + len(added))
        return ObjectiveVector(
            distance=distance, vehicles=vehicles, tardiness=tardiness
        )

    def reset(self) -> None:
        """Zero the counter (new experiment, same instance)."""
        self.count = 0

    def __repr__(self) -> str:
        return (
            f"Evaluator({self.instance.name!r}, count={self.count}, "
            f"max={self.max_evaluations})"
        )
