"""Pass/fail check structures shared by all verification operations.

A failed check carries its witnesses: the generator pair or triple it was
evaluated on together with the nonzero residual, rendered canonically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)
