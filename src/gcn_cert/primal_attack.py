"""Candidate worst-case perturbation constructed from the dual solution."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import gcn, grad
from .bounds import Budget
from .graph_core import SlicedProblem

if TYPE_CHECKING:  # dual_cert imports this module
    from .dual_cert import DualState

__all__ = ["Perturbation", "construct", "construct_and_evaluate"]


@dataclass
class Perturbation:
    """Set of attribute flips in the target's (L-1)-hop neighborhood."""

    flips: list  # (row in sliced attrs, feature) pairs
    perturbed_attrs: np.ndarray

    def validate(self, budget: Budget, attrs: np.ndarray):
        """Self if the flips lie in `attrs`, keep to `budget`, each listed once, and toggle it into `perturbed_attrs`.

        No other entry may change; otherwise a ValueError.  `construct_and_evaluate`
        evaluates `perturbed_attrs`, so a non-robust status rests on this check.
        """
        _check_inside(self.flips, np.shape(attrs))
        if len(self.flips) > budget.global_Q:
            raise ValueError("global budget exceeded")
        if self.flips and max(Counter(n for n, _ in self.flips).values()) > budget.local_q:
            raise ValueError("local budget exceeded")
        changed = self.perturbed_attrs != attrs  # `Graph` keeps attrs binary: only a changed entry can be non-binary
        at = np.flatnonzero(changed)
        if not np.isin(self.perturbed_attrs.reshape(-1)[at], (0, 1)).all():
            raise ValueError("perturbed attributes must stay binary")
        if len(set(self.flips)) != len(self.flips):
            raise ValueError("a flip is listed more than once")
        n, d = np.array(self.flips, dtype=np.intp).reshape(-1, 2).T
        # a changed binary entry is toggled, so the listed entries must all change, and nothing else
        if not changed[n, d].all() or at.size != n.size:
            raise ValueError("perturbed attributes must be attrs with exactly the listed flips toggled")
        return self


def _check_inside(flips, shape):
    """A ValueError if a flip lies outside `shape`: a negative index would wrap to the last row or column."""
    N, D = shape
    if not all(0 <= n < N and 0 <= d < D for n, d in flips):
        raise ValueError("a flip lies outside the attribute matrix")


def construct(dual: DualState, budget: Budget, attrs: np.ndarray) -> Perturbation:
    """Toggle the dual's flips in a copy of `attrs`; a ValueError unless they are admissible under `budget`."""
    _check_inside(dual.flips, np.shape(attrs))
    perturbed = np.asarray(attrs, dtype=np.float64).copy()
    for n, d in dual.flips:
        perturbed[n, d] = 1.0 - perturbed[n, d]
    return Perturbation(flips=list(dual.flips), perturbed_attrs=perturbed).validate(budget, attrs)


def construct_and_evaluate(sp: SlicedProblem, params, dual: DualState, budget: Budget, y_star: int, y: int) -> float:
    """Exact margin logit[y*] - logit[y] of the network on the dual's flips, admitted by `construct`."""
    pert = construct(dual, budget, sp.sliced_attrs)
    logits = grad.val(gcn.forward_sliced(sp, params, attrs_override=pert.perturbed_attrs).logits)
    return float(logits[y_star] - logits[y])
