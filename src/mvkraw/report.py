"""Pass/fail bookkeeping for the verification routines."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One named residual check against a tolerance."""

    name: str
    residual: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: residual={self.residual:.3e} tol={self.tol:.1e}"
        if self.detail:
            out += f" ({self.detail})"
        return out


class Report:
    """An ordered collection of checks; `checks` is the list given, kept."""

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return f"Report(checks={self.checks!r})"

    def add(self, name: str, residual: float, tol: float, detail: str = "") -> Check:
        check = Check(name, float(residual), float(tol), detail)
        self.checks.append(check)
        return check

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def __getitem__(self, name: str) -> Check:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        return [check.line() for check in self.checks]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tol": c.tol,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }
