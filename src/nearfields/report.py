"""Uniform pass/fail reporting for the verifier functions.

Every verifier returns a Report: a list of named checks, each carrying an
optional witness for failures and a free-form detail string. Reports are
JSON-friendly so the command line can emit them verbatim. A check that
has a witness fails exactly when it has one: Report.holds is that rule,
and a verdict that is not a witness's absence goes through Report.add,
with the witness only informing. The skip rule,
that a verdict may rest neither on no checked sample nor on fewer checked
samples than skipped ones, lives here alone: _skips_outweigh states it
for a fixed list of samples, Report.add_sampled rules on such a check with
it, and redraw runs a check that redraws its refused samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import ResourceLimitError

__all__ = ["Check", "Report"]


def _skips_outweigh(checked: int, skipped: int) -> bool:
    """Whether a scan of a fixed list of samples checked none of them, or
    skipped more than it checked, so that no verdict may rest on it."""
    return skipped > checked or checked == 0


@dataclass(slots=True)
class Check:
    name: str
    ok: bool
    witness: object = None
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, witness: object = None, detail: str = "") -> Check:
        check = Check(name, bool(ok), witness, detail)
        self.checks.append(check)
        return check

    def holds(self, name: str, witness: object, detail: str = "") -> Check:
        """A check that fails exactly on a witness: it passes when witness
        is None."""
        return self.add(name, witness is None, witness=witness, detail=detail)

    def add_sampled(self, name: str, witness: object, *, checked: int, skipped: int) -> Check:
        """A check over a fixed list of samples, some skipped at a resource
        ceiling: it fails on a witness, or on no verdict (_skips_outweigh)."""
        return self.add(name, witness is None and not _skips_outweigh(checked, skipped), witness=witness)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def first_failure(self) -> Check | None:
        bad = self.failures()
        return bad[0] if bad else None

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "counts": dict(sorted(self.counts.items())),
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "witness": None if c.witness is None else str(c.witness),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def redraw(draw: Callable[[], tuple], check: Callable[..., object], trials: int) -> int:
    """Call check(*draw()) until trials samples are checked, and return how
    many were skipped. A sample that check refuses with ResourceLimitError
    is skipped and redrawn; the refusal that takes the skips past trials is
    re-raised as it is, naming its ceiling."""
    checked = skipped = 0
    while checked < trials:
        sample = draw()
        try:
            check(*sample)
        except ResourceLimitError:
            skipped += 1
            if skipped > trials:
                raise
            continue
        checked += 1
    return skipped
