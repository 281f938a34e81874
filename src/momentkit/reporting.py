"""Pass/fail check structures shared by all verification operations.

A failed check carries its witnesses: the generator pair or triple it was
evaluated on together with the nonzero residual, rendered canonically.
``Check.of`` is the one place where a residual becomes a ``Finding``: every
check hands it its (witness, residual) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol


class Residual(Protocol):
    """A ``TPoly`` or ``TotElement``: exact, with a canonical ``str``."""

    def is_zero(self) -> bool: ...


@dataclass(frozen=True)
class Finding:
    witness: tuple[str, ...]
    residual: str

    def to_dict(self) -> dict:
        return {"witness": list(self.witness), "residual": self.residual}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    findings: tuple[Finding, ...] = ()
    notes: tuple[str, ...] = ()

    @classmethod
    def of(
        cls,
        name: str,
        residuals: Iterable[tuple[tuple[str, ...], Residual]],
        notes: tuple[str, ...] = (),
    ) -> Check:
        """The check over (witness, residual) pairs, read once: each nonzero
        residual becomes a ``Finding``, in order, and the check passes when
        none is left."""
        findings = tuple(Finding(w, str(r)) for w, r in residuals if not r.is_zero())
        return cls(name, not findings, findings, notes)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "findings": [f.to_dict() for f in self.findings],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)
