"""Shared verdict type for statement checks."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Status", "Verdict"]


class Status(str, enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    HYPOTHESIS_NOT_MET = "hypothesis_not_met"
    UNDECIDED_CAPPED = "undecided_capped"


@dataclass
class Verdict:
    """Outcome of checking one statement on one instance.

    witness carries re-checkable data: for a failure, what broke; for a hold,
    what was found (subgroup, partition, disjunct flags).
    """

    status: Status
    witness: dict[str, Any] = field(default_factory=dict)
