"""Concurrency diagnostics, the aggregate report, and the allowlist.

Findings are small frozen dataclasses carrying a stable ``check_id``,
a *subject* (the shared state, lock pair or global the finding is
about — the thing an allowlist entry matches), a severity from the
shared :class:`~repro.staticcheck.report.Severity` scale and a human
message.

Check ids (static passes):

``concheck-thread-shared`` (ERROR)
    State written without a common lock while reachable from both
    thread and non-thread context.
``concheck-inconsistent-guard`` (WARNING)
    A field written under a lock in some places and bare in others —
    the lock protects nothing if any writer bypasses it.
``concheck-lock-order-cycle`` (ERROR)
    The static lock-acquisition graph has a cycle: two threads taking
    the locks in opposite orders can deadlock.
``concheck-lock-reentry`` (ERROR)
    A non-reentrant lock acquired on a path that may already hold it.
``concheck-fork-unsafe-capture`` (ERROR)
    A class pickled across the ``ProcessPoolExecutor`` boundary holds a
    lock/thread/socket attribute and defines no ``__getstate__``.
``concheck-global-mutable`` (WARNING)
    Module-level mutable state rebound or mutated at runtime — its
    value diverges between ``fork`` children (which inherit it) and
    ``spawn`` children (which re-import pristine modules).
``concheck-unresolved-thread-target`` (WARNING)
    A ``Thread(target=...)`` whose target the analyzer cannot resolve;
    thread-escape analysis is blind past it.

Runtime check ids (``concheck-runtime-inversion`` / ``-race`` /
``-reentry``) come from :mod:`repro.concheck.runtime`.

The **allowlist** is a checked-in text file of justified exceptions::

    # check-id       subject-glob                  -- justification
    concheck-global-mutable repro.obs.tracer._CURRENT -- installed before threads start

Every live finding must either be fixed or carry such a line; waived
findings stay in the report (rendered with their justification) but do
not fail the run.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.staticcheck.report import Severity


@dataclass(frozen=True)
class ConDiagnostic:
    """One concurrency finding."""

    check_id: str
    severity: Severity
    subject: str
    message: str
    where: str = ""
    #: Justification text when an allowlist entry waived this finding.
    waived_by: Optional[str] = None

    def render(self) -> str:
        location = " (%s)" % self.where if self.where else ""
        text = "%s: [%s] %s: %s%s" % (
            self.severity.value,
            self.check_id,
            self.subject,
            self.message,
            location,
        )
        if self.waived_by is not None:
            text += "\n    waived: %s" % self.waived_by
        return text

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
            "where": self.where,
            "waived_by": self.waived_by,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConDiagnostic":
        return cls(
            check_id=data["check_id"],
            severity=Severity(data["severity"]),
            subject=data["subject"],
            message=data["message"],
            where=data.get("where", ""),
            waived_by=data.get("waived_by"),
        )


@dataclass(frozen=True)
class AllowlistEntry:
    """One justified exception: check id + subject glob."""

    check_id: str
    pattern: str
    justification: str
    lineno: int = 0

    def matches(self, diagnostic: ConDiagnostic) -> bool:
        return (
            fnmatch.fnmatchcase(diagnostic.check_id, self.check_id)
            and fnmatch.fnmatchcase(diagnostic.subject, self.pattern)
        )


class Allowlist:
    """Parsed allowlist file; tracks which entries actually fired."""

    def __init__(self, entries: Optional[List[AllowlistEntry]] = None,
                 path: str = ""):
        self.entries = list(entries or ())
        self.path = path
        self.used: Dict[AllowlistEntry, int] = {}

    @classmethod
    def parse(cls, text: str, path: str = "") -> "Allowlist":
        entries = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, justification = line.partition("--")
            parts = head.split()
            if len(parts) != 2 or not sep or not justification.strip():
                raise ValueError(
                    "%s:%d: expected '<check-id> <subject-glob> -- "
                    "<justification>', got %r" % (path or "allowlist",
                                                  lineno, raw)
                )
            entries.append(AllowlistEntry(
                check_id=parts[0],
                pattern=parts[1],
                justification=justification.strip(),
                lineno=lineno,
            ))
        return cls(entries, path=path)

    @classmethod
    def load(cls, path: str) -> "Allowlist":
        with open(path, encoding="utf-8") as handle:
            return cls.parse(handle.read(), path=path)

    def match(self, diagnostic: ConDiagnostic) -> Optional[AllowlistEntry]:
        for entry in self.entries:
            if entry.matches(diagnostic):
                self.used[entry] = self.used.get(entry, 0) + 1
                return entry
        return None

    def unused(self) -> List[AllowlistEntry]:
        """Entries that waived nothing (stale — candidates for removal)."""
        return [e for e in self.entries if e not in self.used]


@dataclass
class ConcheckReport:
    """Full result of a concheck run (static passes + optional runtime)."""

    diagnostics: List[ConDiagnostic] = field(default_factory=list)
    #: Global-mutable census: every module-level mutable, flagged or not.
    census: List[Dict[str, Any]] = field(default_factory=list)
    #: Function qualnames running in thread context (analysis roots).
    thread_roots: List[str] = field(default_factory=list)
    #: Lock subject → sorted fields its ``with`` blocks guard.
    locks: Dict[str, List[str]] = field(default_factory=dict)
    #: Static lock-acquisition-order edges ("A -> B (witness)").
    lock_edges: List[str] = field(default_factory=list)
    #: Classes crossing the pool boundary (fork/pickle-safety pass).
    pool_captures: List[str] = field(default_factory=list)
    #: Runtime sanitizer summary when ``--runtime`` ran.
    runtime: Optional[Dict[str, Any]] = None
    #: Wall-clock seconds the static passes took (budgeted in CI).
    elapsed_s: float = 0.0

    # -- views ---------------------------------------------------------------

    @property
    def live(self) -> List[ConDiagnostic]:
        return [d for d in self.diagnostics if d.waived_by is None]

    @property
    def waived(self) -> List[ConDiagnostic]:
        return [d for d in self.diagnostics if d.waived_by is not None]

    @property
    def errors(self) -> List[ConDiagnostic]:
        return [d for d in self.live if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[ConDiagnostic]:
        return [d for d in self.live if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def clean(self) -> bool:
        """No live finding of any severity (the CI gate)."""
        return not self.live

    def apply_allowlist(self, allowlist: Allowlist) -> None:
        """Mark findings matched by an allowlist entry as waived."""
        updated = []
        for diagnostic in self.diagnostics:
            if diagnostic.waived_by is None:
                entry = allowlist.match(diagnostic)
                if entry is not None:
                    diagnostic = replace(
                        diagnostic, waived_by=entry.justification
                    )
            updated.append(diagnostic)
        self.diagnostics = updated

    # -- rendering -----------------------------------------------------------

    def render_text(self, verbose: bool = False) -> str:
        lines = []
        lines.append(
            "concheck: %d thread root(s), %d lock(s), %d pool capture(s), "
            "%d mutable global(s)"
            % (len(self.thread_roots), len(self.locks),
               len(self.pool_captures), len(self.census))
        )
        if verbose:
            for root in self.thread_roots:
                lines.append("  thread-root %s" % root)
            for lock, fields_ in sorted(self.locks.items()):
                lines.append(
                    "  lock %s guards: %s"
                    % (lock, ", ".join(fields_) if fields_ else "(nothing)")
                )
            for edge in self.lock_edges:
                lines.append("  lock-order %s" % edge)
            for cls in self.pool_captures:
                lines.append("  pool-capture %s" % cls)
            for entry in self.census:
                lines.append(
                    "  global %s (%s%s)"
                    % (entry["subject"], entry["kind"],
                       ", mutated" if entry["mutated"] else "")
                )
        for diagnostic in self.live:
            lines.append(diagnostic.render())
        for diagnostic in self.waived:
            lines.append(diagnostic.render())
        if self.runtime is not None:
            lines.append(
                "runtime: %d kernel(s), %d lock(s), %d acquire(s), "
                "%d scrape(s), %d inversion(s), %d race(s), %d reentry(s)"
                % (self.runtime.get("kernels", 0),
                   len(self.runtime.get("locks", ())),
                   self.runtime.get("n_acquires", 0),
                   self.runtime.get("scrapes", 0),
                   len(self.runtime.get("inversions", ())),
                   len(self.runtime.get("races", ())),
                   len(self.runtime.get("reentries", ())))
            )
        if self.clean:
            lines.append(
                "concheck: clean (%d waived)" % len(self.waived)
            )
        else:
            lines.append(
                "concheck: %d error(s), %d warning(s), %d waived"
                % (len(self.errors), len(self.warnings), len(self.waived))
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "census": list(self.census),
            "thread_roots": list(self.thread_roots),
            "locks": {k: list(v) for k, v in sorted(self.locks.items())},
            "lock_edges": list(self.lock_edges),
            "pool_captures": list(self.pool_captures),
            "runtime": self.runtime,
            "elapsed_s": self.elapsed_s,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "n_waived": len(self.waived),
            "clean": self.clean,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
