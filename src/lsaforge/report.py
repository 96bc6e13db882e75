"""Pass/fail records for algebraic identity checks.

A Report either passes, or carries the first basis tuple violating the
identity together with a human-readable anchor string stating the law
that failed.  Reports are plain immutable data so they serialize and
compare deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class InternalInconsistency(RuntimeError):
    """Two independent routes to the same verdict disagreed.

    Raised when cross-verifying computations (which must agree by
    theorem) produce different answers; this always indicates a defect,
    never bad user input.
    """


@dataclass(frozen=True)
class Report:
    name: str
    passed: bool
    anchor: str
    witness: Optional[Tuple] = None
    details: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ["%s %s" % (status, self.name)]
        if not self.passed:
            if self.witness is not None:
                parts.append("witness=%s" % (self.witness,))
            parts.append("violated: %s" % self.anchor)
        if self.details:
            parts.append(self.details)
        return "  ".join(parts)


def passing(name: str, anchor: str, details: str = "") -> Report:
    return Report(name=name, passed=True, anchor=anchor, details=details)


def failing(name: str, anchor: str, witness=None, details: str = "") -> Report:
    return Report(name=name, passed=False, anchor=anchor, witness=witness,
                  details=details)


def _bool_report(name: str, ok: bool, anchor: str) -> Report:
    return passing(name, anchor) if ok else failing(name, anchor)


def _relabel(rep: Report, name: str) -> Report:
    return Report(name=name, passed=rep.passed, anchor=rep.anchor,
                  witness=rep.witness, details=rep.details)


@dataclass(frozen=True)
class Certificate:
    """A named bundle of reports; passes only if every report passes."""

    name: str
    reports: Tuple[Report, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def __bool__(self) -> bool:
        return self.passed

    def lines(self):
        head = "%s %s" % ("PASS" if self.passed else "FAIL", self.name)
        return [head] + ["  " + r.line() for r in self.reports]

    def first_failure(self) -> Optional[Report]:
        for r in self.reports:
            if not r.passed:
                return r
        return None


def certify(name: str, reports) -> Certificate:
    """The certificate of a construction, which must pass.

    A failing report means the construction is wrong, never that its
    input is: InternalInconsistency is raised naming the construction and
    the first failing line.
    """
    cert = Certificate(name, tuple(reports))
    if not cert.passed:
        raise InternalInconsistency(
            "%s construction failed its own certificate: %s"
            % (name, cert.first_failure().line()))
    return cert
