"""Uniform operator drawing with retry (paper §III.B).

"For each move to create one of the operators is chosen at random,
with equal probabilities for each.  If the operator was unable to find
a suitable move, with regard to the local feasibility criterion, a new
random number is drawn and possibly a different operator is selected.
This step is repeated until the amount of moves matches the
neighborhood size."

:class:`OperatorRegistry` implements exactly that wheel, with a
configurable retry cap as a safety valve against pathologically locked
solutions (a tiny instance where no operator can move anything would
otherwise spin forever).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.operators.base import Move, Operator
from repro.core.operators.exchange import Exchange
from repro.core.operators.or_opt import OrOpt
from repro.core.operators.relocate import Relocate
from repro.core.operators.two_opt import TwoOpt
from repro.core.operators.two_opt_star import TwoOptStar
from repro.core.solution import Solution
from repro.errors import OperatorError

__all__ = ["OperatorRegistry", "default_registry"]


class OperatorRegistry:
    """A weighted wheel of neighborhood operators.

    The paper uses equal probabilities; non-uniform weights are
    supported for the ablation benchmarks.
    """

    def __init__(
        self,
        operators: Sequence[Operator] | None = None,
        weights: Sequence[float] | None = None,
        *,
        max_draws_per_move: int = 64,
    ) -> None:
        self.operators: tuple[Operator, ...] = tuple(
            operators if operators is not None else _standard_operators()
        )
        if not self.operators:
            raise OperatorError("registry needs at least one operator")
        # Deferred import: batch_eval imports the operator modules.
        from repro.core.batch_eval import has_emitter

        for op in self.operators:
            if not has_emitter(op):
                raise OperatorError(
                    f"operator {op!r} has no batch emitter: the neighborhood "
                    "sampler needs batch_words, batch_ready, propose_batch and "
                    "a move builder for every operator"
                )
        if weights is None:
            w = np.full(len(self.operators), 1.0 / len(self.operators))
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (len(self.operators),):
                raise OperatorError(
                    f"got {w.shape[0] if w.ndim == 1 else 'non-1d'} weights for "
                    f"{len(self.operators)} operators"
                )
            if np.any(w < 0) or w.sum() <= 0:
                raise OperatorError("weights must be non-negative and sum > 0")
            w = w / w.sum()
        self.weights = w
        self._cumulative = np.cumsum(w).tolist()
        # Profiling note: the wheel spins once per candidate move (tens
        # of thousands of times per run).  Everything the spin needs is
        # hoisted here — the bound ``propose`` methods and the cumulative
        # thresholds as plain Python containers — so a draw allocates
        # nothing and the weighted case scans a list instead of calling
        # numpy on 5 elements.
        self._uniform = bool(np.allclose(w, w[0]))
        self._n_operators = len(self.operators)
        self._propose = tuple(op.propose for op in self.operators)
        if max_draws_per_move < 1:
            raise OperatorError("max_draws_per_move must be >= 1")
        self.max_draws_per_move = max_draws_per_move

    def draw_operator(self, rng: np.random.Generator) -> Operator:
        """Spin the wheel once."""
        if self._uniform:
            return self.operators[int(rng.integers(self._n_operators))]
        u = rng.random()
        for index, threshold in enumerate(self._cumulative):
            if u < threshold:
                return self.operators[index]
        return self.operators[-1]

    def draw_move(self, solution: Solution, rng: np.random.Generator) -> Move | None:
        """Draw operators until one yields a move (or the cap is hit).

        Returns ``None`` only when :attr:`max_draws_per_move` successive
        operator draws all failed — the caller (the neighborhood
        sampler) then stops early with a short neighborhood.
        """
        propose = self._propose
        random = rng.random
        if self._uniform:
            # Hot path: one wheel spin per candidate move.  The spin is
            # a single ``random()`` double (cheaper to dispatch than a
            # bounded ``integers``) indexing the hoisted propose table;
            # ``u < 1`` strictly, so the floor never reaches ``n``.
            n = self._n_operators
            for _ in range(self.max_draws_per_move):
                move = propose[int(random() * n)](solution, rng)
                if move is not None:
                    return move
            return None
        cumulative = self._cumulative
        last = self._n_operators - 1
        for _ in range(self.max_draws_per_move):
            u = random()
            chosen = last
            for index, threshold in enumerate(cumulative):
                if u < threshold:
                    chosen = index
                    break
            move = propose[chosen](solution, rng)
            if move is not None:
                return move
        return None

    def __repr__(self) -> str:
        names = ", ".join(op.name for op in self.operators)
        return f"OperatorRegistry([{names}])"


def _standard_operators() -> list[Operator]:
    return [Relocate(), Exchange(), TwoOpt(), TwoOptStar(), OrOpt()]


def default_registry() -> OperatorRegistry:
    """The paper's operator set: all five, equal probabilities."""
    return OperatorRegistry()
