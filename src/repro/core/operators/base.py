"""Operator and move protocol.

A :class:`Move` is a small immutable record describing one neighborhood
transformation of a specific parent solution.  It can

* report its :meth:`~Move.route_edits` — the 1-2 parent routes it
  rewrites plus any routes it opens.  This is the delta-evaluation
  primitive: :meth:`repro.core.evaluation.Evaluator.evaluate_move`
  scores a neighbor from the edits alone (parent stats for untouched
  routes, cached/recomputed stats for the edited ones) without building
  the child :class:`~repro.core.solution.Solution`;
* :meth:`~Move.apply` itself, producing the neighbor solution with
  incremental route-statistics reuse (implemented once on the base
  class as ``solution.derive(*route_edits)``), and
* report its tabu :meth:`~Move.attribute` — the hashable key stored in
  the tabu list when the move is made and checked when a candidate is
  screened.  We use ``(operator name, frozenset of moved customers)``:
  once a customer has been moved by an operator, moving it again with
  the same operator is forbidden for *tenure* iterations, which
  realizes the paper's "forbids to make moves towards a configuration
  that it had already visited before" at move granularity.

An :class:`Operator` draws random moves from a parent solution.  It may
fail (return ``None``) when the random draw hits the local feasibility
criterion; the registry then redraws, matching §III.B: "If the operator
was unable to find a suitable move ... a new random number is drawn and
possibly a different operator is selected."
"""

from __future__ import annotations

import abc
from typing import Hashable

import numpy as np

from repro.core.solution import Solution

__all__ = ["Move", "Operator", "RouteEdits"]


#: Route edits of a move against its parent: replaced routes (index ->
#: new tuple, empty tuple = route deleted) and newly opened routes.
RouteEdits = tuple[dict[int, tuple[int, ...]], tuple[tuple[int, ...], ...]]


class Move(abc.ABC):
    """One candidate transformation of a specific parent solution."""

    __slots__ = ()

    #: short operator tag used in tabu attributes and traces.
    name: str = "move"

    @abc.abstractmethod
    def route_edits(self, solution: Solution) -> RouteEdits:
        """The parent routes this move rewrites and the routes it opens.

        ``solution`` must be the parent the move was proposed for; route
        indices and positions inside the move refer to it (a mismatch
        raises :class:`~repro.errors.OperatorError` — the move went
        stale).  Returns ``(replacements, added)`` in the exact shape
        :meth:`repro.core.solution.Solution.derive` consumes.
        """

    def changed_routes(self, solution: Solution) -> tuple[int, ...]:
        """Indices of the parent routes this move touches."""
        replacements, _ = self.route_edits(solution)
        return tuple(replacements)

    def apply(self, solution: Solution) -> Solution:
        """Produce the neighbor solution via :meth:`Solution.derive`.

        Untouched routes carry their cached statistics into the child;
        only the edited routes are re-scanned on first evaluation.
        """
        replacements, added = self.route_edits(solution)
        return solution.derive(replacements, added=added)

    @property
    @abc.abstractmethod
    def attribute(self) -> Hashable:
        """The tabu attribute identifying this move's family."""

    def is_tabu(self, tabu_attributes: "set[Hashable] | frozenset[Hashable]") -> bool:
        """Check this move against a set of forbidden attributes."""
        return self.attribute in tabu_attributes


class Operator(abc.ABC):
    """A random-move generator over solutions.

    Every operator in an :class:`~repro.core.operators.registry.
    OperatorRegistry` must also support the batched sampling protocol
    of :mod:`repro.core.batch_eval` by defining

    * ``batch_words`` — the number of uniform doubles one candidate
      consumes,
    * ``batch_ready(pre)`` — whether this operator can propose anything
      at all against the parent summarized by ``pre`` (a pure function
      of the parent, so skipping an unready operator consumes no RNG),
    * ``propose_batch(pre, U)`` — map a ``(m, batch_words)`` block of
      uniforms to ``(fields, valid)``: an ``(m, 4)`` integer descriptor
      array and a boolean mask of candidates that pass the local
      feasibility criterion.

    ``pre`` is the :class:`~repro.core.batch_eval.ParentArrays` summary
    of the parent solution.  The descriptor layout is operator-specific
    and decoded by the sampler's move builder for the operator's type.
    The scalar :meth:`propose` reads ``batch_words`` uniforms per
    attempt in the same order, so the first valid row of
    ``propose_batch`` over those uniforms is the move ``propose``
    returns (the tests pin each emitter to ``propose`` that way).
    """

    #: unique operator identifier (also used in tabu attributes).
    name: str = "operator"

    #: how many random draws :meth:`propose` makes before giving up; the
    #: registry treats ``None`` as "redraw the operator wheel".
    max_attempts: int = 8

    #: uniforms per batched candidate; 0 = no vectorized emitter.
    batch_words: int = 0

    def batch_ready(self, pre) -> bool:
        """Whether :meth:`propose_batch` can yield moves on this parent."""
        return False

    @abc.abstractmethod
    def propose(self, solution: Solution, rng: np.random.Generator) -> Move | None:
        """Draw one random move satisfying the local feasibility criterion.

        Returns ``None`` when no suitable move was found within
        :attr:`max_attempts` draws (e.g. the solution has a single route
        and the operator needs two).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
