"""Neighborhood sampling (paper §III.B, "Neighborhood Generation").

"The Neighborhood Generation draws a number of moves, specified in the
neighborhood size parameter, from the five operators described in
II.B.  For each move to create one of the operators is chosen at
random, with equal probabilities for each."

The same function runs on the sequential searcher, on the simulated
master, and on simulated workers — it is the unit of work the paper
parallelizes.  Each produced :class:`Neighbor` carries the move (for
the tabu attribute) and its objectives; every neighbor costs one unit
of the evaluation budget.

Sampling and evaluation run through :func:`repro.core.batch_eval.
sample_batch` on every driver: one uniform block spins the operator
wheel for the whole neighborhood, each operator's descriptor emitter
screens its candidates against the local feasibility criterion with
array gathers, slots whose candidates all failed fall back to scalar
``draw_move``, and each move is scored by scalar delta evaluation
(:meth:`~repro.core.evaluation.Evaluator.evaluate_move`).  The child
:class:`Solution` materializes lazily, only if the neighbor is actually
selected or archived (roughly 1 of S per iteration).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_eval import sample_batch
from repro.core.evaluation import Evaluator
from repro.core.objectives import ObjectiveVector
from repro.core.operators.base import Move
from repro.core.operators.registry import OperatorRegistry
from repro.core.solution import Solution
from repro.errors import SearchError

__all__ = ["Neighbor", "sample_neighborhood"]


class Neighbor:
    """One evaluated neighbor of a current solution.

    Holds the move and the (pre-computed) objectives; the neighbor
    *solution* is materialized on first access by applying the move to
    the parent, so the ~S-1 unselected neighbors of an iteration never
    pay for route-tuple construction.  Constructed either lazily
    (``parent=...``) or eagerly (``solution=...``, e.g. when a worker
    process shipped the routes back).
    """

    __slots__ = ("move", "objectives", "iteration", "_parent", "_solution")

    def __init__(
        self,
        move: Move,
        objectives: ObjectiveVector,
        iteration: int = 0,
        *,
        parent: Solution | None = None,
        solution: Solution | None = None,
    ) -> None:
        if (parent is None) == (solution is None):
            raise SearchError("Neighbor needs exactly one of parent= or solution=")
        #: the move that produced this neighbor.
        self.move = move
        self.objectives = objectives
        #: iteration at which the neighbor was generated (used by the
        #: asynchronous variant, where stragglers' neighbors join later
        #: selections, and by the Figure-1 trajectory trace).
        self.iteration = iteration
        self._parent = parent
        self._solution = solution

    @property
    def solution(self) -> Solution:
        """The neighbor solution (applied to the parent on first access)."""
        child = self._solution
        if child is None:
            child = self.move.apply(self._parent)
            self._solution = child
        return child

    @property
    def materialized(self) -> bool:
        """Whether :attr:`solution` has been built yet."""
        return self._solution is not None

    def __repr__(self) -> str:
        state = "materialized" if self._solution is not None else "lazy"
        return (
            f"{type(self).__name__}({self.move.name!r}, objectives={self.objectives!r}, "
            f"iteration={self.iteration}, {state})"
        )


def sample_neighborhood(
    solution: Solution,
    size: int,
    registry: OperatorRegistry,
    rng: np.random.Generator,
    evaluator: Evaluator,
    *,
    iteration: int = 0,
    profiler=None,
) -> list[Neighbor]:
    """Generate and evaluate up to ``size`` neighbors of ``solution``.

    The list can be shorter than ``size`` only when the registry's
    retry cap is exhausted (a pathologically locked solution); callers
    treat a short list exactly like a full one.

    ``profiler`` (a :class:`~repro.obs.profiler.PhaseProfiler` in
    wall-clock units) splits the loop into *generate* (move proposal)
    and *evaluate* (delta evaluation) phases.  The clock is read only
    when a profiler is given; the draws and evaluations are the same
    either way, so the produced neighborhood is bit-for-bit the same.
    """
    if size <= 0:
        return []
    result = sample_batch(
        solution, size, registry, rng, evaluator, timed=profiler is not None
    )
    if profiler is not None:
        profiler.add("generate", result.gen_seconds)
        profiler.add("evaluate", result.eval_seconds)
    return [
        Neighbor(move, objectives, iteration, parent=solution)
        for objectives, move in result.entries
    ]
