"""Structured pass/fail reports shared by the verification suites and the CLI,
and the plain record classes that every layer's value types build on.

The records are plain classes, not `dataclasses`: that module imports
`inspect` and compiles each decorated class's methods at import, a large
share of the start-up of every CLI process.
"""

from __future__ import annotations


PASS = "pass"
FAIL = "fail"
INFO = "info"


class Record:
    """A plain value class whose fields are its public attributes, in the
    order its ``__init__`` sets them.  Records of one class are equal when
    their ``_key()`` is, by default the fields.  A record is unhashable
    unless it is a `FrozenRecord`."""

    def _fields(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def _key(self) -> tuple:
        return tuple(self._fields().values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """An immutable, hashable record; ``__init__`` sets every field at once."""

    def __init__(self, **fields):
        vars(self).update(fields)

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class CheckRecord(Record):
    def __init__(self, name: str, status: str, expected: str = "", actual: str = "",
                 witness: str | None = None):
        self.name = name
        self.status = status
        self.expected = expected
        self.actual = actual
        # illustrates a failure; equality leaves it out
        self.witness = witness

    def _key(self) -> tuple:
        return (self.name, self.status, self.expected, self.actual)

    def renamed(self, name: str) -> CheckRecord:
        """This record under another name, its outcome and witness kept."""
        return CheckRecord(name, self.status, self.expected, self.actual, self.witness)

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status,
               "expected": self.expected, "actual": self.actual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Report(Record):
    """A named collection of checks with deterministic ordering."""

    def __init__(self, name: str, params: dict | None = None,
                 checks: list[CheckRecord] | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks

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
