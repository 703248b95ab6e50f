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

__all__ = ["Perturbation", "construct", "exact_margin", "construct_and_evaluate"]


@dataclass
class Perturbation:
    """Set of attribute flips in the target's (L-1)-hop neighborhood."""

    flips: list  # (row in sliced attrs, feature) pairs
    perturbed_attrs: np.ndarray

    def validate(self, budget: Budget, attrs: np.ndarray):
        """Self if the flips keep to `budget`, each listed once, and toggle `attrs` into `perturbed_attrs`.

        No other entry may change; otherwise a ValueError.  `exact_margin`
        evaluates `perturbed_attrs`, so a non-robust status rests on this check.
        """
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


def construct(dual: DualState, budget: Budget, attrs: np.ndarray) -> Perturbation:
    """Flip the strictly-improving entries of the dual's selection set."""
    flips = [(n, d) for (n, d) in dual.s_q if dual.delta[n, d] > 0]
    perturbed = np.asarray(attrs, dtype=np.float64).copy()
    for n, d in flips:
        perturbed[n, d] = 1.0 - perturbed[n, d]
    return Perturbation(flips=flips, perturbed_attrs=perturbed).validate(budget, attrs)


def exact_margin(sp: SlicedProblem, params, pert: Perturbation, y_star: int, y: int) -> float:
    """Exact margin logit[y*] - logit[y] of the network on the perturbed attributes."""
    logits = grad.val(gcn.forward_sliced(sp, params, attrs_override=pert.perturbed_attrs).logits)
    return float(logits[y_star] - logits[y])


def construct_and_evaluate(
    sp: SlicedProblem, params, dual: DualState, budget: Budget, y_star: int, y: int
) -> float:
    """Exact margin logit[y*] - logit[y] of the constructed perturbation."""
    return exact_margin(sp, params, construct(dual, budget, sp.sliced_attrs), y_star, y)
