"""Structured pass/fail reports shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
INFO = "info"


@dataclass
class CheckRecord:
    name: str
    status: str
    expected: str = ""
    actual: str = ""
    # illustrates a failure; records compare by name, status, expected, actual
    witness: str | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status,
               "expected": self.expected, "actual": self.actual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    """A named collection of checks with deterministic ordering."""

    name: str
    params: dict = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, name: str, ok: bool, expected="", actual="", witness=None) -> CheckRecord:
        rec = CheckRecord(name, PASS if ok else FAIL, str(expected), str(actual),
                          None if ok else witness)
        self.checks.append(rec)
        return rec

    def info(self, name: str, actual="", expected="") -> CheckRecord:
        rec = CheckRecord(name, INFO, str(expected), str(actual))
        self.checks.append(rec)
        return rec

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "checks": [c.as_dict() for c in self.checks],
            "overall": PASS if self.passed else FAIL,
        }
