"""A tiny pass/fail report shared by the verification drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["CheckReport"]


@dataclass
class CheckReport:
    """Counts of checks and failed checks, and the witnesses of the first
    ``max_witnesses`` failures."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seed: int | None = None
    max_witnesses: int = 20
    failed: int = 0

    @property
    def passed(self) -> bool:
        return not self.failed

    def __bool__(self) -> bool:
        return self.passed

    def record(self, ok: bool, witness: str | Callable[[], str]) -> None:
        """Count one check; keep its witness if it failed and there is room.

        A callable witness builds the string and is called only then, so a
        passing check formats nothing.
        """
        self.checks += 1
        if ok:
            return
        self.failed += 1
        if len(self.failures) < self.max_witnesses:
            self.failures.append(witness if isinstance(witness, str) else witness())

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.name}: {status} ({self.checks} checks"
        head += f", seed={self.seed})" if self.seed is not None else ")"
        return [head] + [f"  witness: {w}" for w in self.failures]
