"""A tiny pass/fail report shared by the verification drivers."""

from __future__ import annotations

from typing import Callable

__all__ = ["CheckReport", "MAX_WITNESSES"]

# The number of failures whose witnesses a report keeps.
MAX_WITNESSES = 20


class CheckReport:
    """Counts of checks and failed checks, and the witnesses of the first
    :data:`MAX_WITNESSES` failures."""

    def __init__(self, name: str, seed: int | None = None):
        self.name = name
        self.seed = seed
        self.checks = self.failed = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failed

    def record(self, ok: bool, witness: str | Callable[[], str]) -> None:
        """Count one check; keep its witness if it failed and there is room.

        A callable witness builds the string and is called only then, so a
        passing check formats nothing.
        """
        self.checks += 1
        if ok:
            return
        self.failed += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append(witness if isinstance(witness, str) else witness())

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        head = f"{self.name}: {status} ({self.checks} checks"
        head += f", seed={self.seed})" if self.seed is not None else ")"
        return [head] + [f"  witness: {w}" for w in self.failures]
