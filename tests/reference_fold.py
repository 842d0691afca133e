"""Test-only reference fold: one sample at a time, in order.

``ReferenceSweep.add`` is the scalar fold that ``zetabounds.verify._Sweep``
runs by array reductions in ``add_many``: the first minimum slack wins,
``max`` passes NaNs over and keeps the first of equal maxima, and a NaN
oracle, bound or budget counts as a violation.  It takes ``_Sweep``'s
place in a check, so the tests can compare the one fold with it field by
field.  Nothing in ``zetabounds`` calls this module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from zetabounds.verify import VerificationReport

__all__ = ["ReferenceSweep"]


class ReferenceSweep:
    """Accumulates (oracle, bound, budget, inputs) samples into a report."""

    def __init__(self, check_id: str) -> None:
        self.check_id = check_id
        self.samples = 0
        self.violations = 0
        self.min_slack = math.inf
        self.max_oracle = -math.inf
        self.error_budget_used = 0.0
        self.min_slack_inputs: dict | None = None
        self.skipped = 0

    def add(self, oracle: float, bound: float, budget: float, inputs: dict) -> bool:
        """Fold one sample; returns whether it is a violation."""
        self.samples += 1
        self.max_oracle = max(self.max_oracle, oracle)
        self.error_budget_used = max(self.error_budget_used, budget)
        slack = bound - oracle
        if slack < self.min_slack:
            self.min_slack = slack
            self.min_slack_inputs = inputs
        violated = not oracle <= bound + budget  # a NaN on either side is a violation
        self.violations += violated
        return violated

    def add_many(
        self, oracle: np.ndarray, bound: np.ndarray, budget: np.ndarray,
        inputs_at: Callable[[int], dict],
    ) -> np.ndarray:
        """``add`` on each entry in order; returns which are violations."""
        samples = zip(oracle.tolist(), bound.tolist(), budget.tolist())
        return np.array([self.add(*sample, inputs_at(i)) for i, sample in enumerate(samples)],
                        dtype=bool)

    def report(self, notes: str = "") -> VerificationReport:
        if self.skipped:
            skip_note = f"{self.skipped} samples excluded (oracle did not converge)"
            notes = f"{notes}; {skip_note}" if notes else skip_note
        return VerificationReport(
            check_id=self.check_id,
            samples=self.samples,
            violations=self.violations,
            min_slack=self.min_slack if self.samples else math.inf,
            max_oracle=self.max_oracle if self.samples else -math.inf,
            error_budget_used=self.error_budget_used,
            notes=notes,
            min_slack_inputs=self.min_slack_inputs,
        )
