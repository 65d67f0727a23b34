"""``repro.concheck`` — concurrency- and fork-safety analysis.

Static side (:func:`analyze_concurrency`): four passes over the
:class:`~repro.concheck.modindex.ModuleIndex` — thread-escape,
lock-discipline (guard consistency + acquisition-order cycles),
fork/pickle-safety across the ``ProcessPoolExecutor`` boundary, and a
census of module-level mutable state.  Findings are either fixed or
justified in ``concheck-allow.txt``; the CI gate requires a clean
report.

Runtime side (:mod:`repro.concheck.runtime`): an opt-in sanitizer
(``REPRO_CONCHECK=1``) that wraps the locks built via
:func:`~repro.concheck.runtime.make_lock`, recording held-lock sets,
acquisition-order edges, and an Eraser-style lockset state machine per
instrumented access — cross-validating the static inference over the
real 40-kernel sweep.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.concheck.facts import CodeFacts, extract_facts
from repro.concheck.forksafety import check_fork_safety, global_census
from repro.concheck.locks import (
    check_guard_consistency,
    check_lock_order,
    guarded_fields,
)
from repro.concheck.modindex import ModuleIndex
from repro.concheck.report import (
    Allowlist,
    AllowlistEntry,
    ConcheckReport,
    ConDiagnostic,
)
from repro.concheck.runtime import (
    CONCHECK_ENV,
    LockMonitor,
    TrackedLock,
    concheck_enabled,
    install,
    make_lock,
    monitor,
    runtime_findings,
    runtime_sweep,
    site_access,
    uninstall,
)
from repro.concheck.threads import check_thread_shared

#: Severity ranking for stable report ordering.
_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


def analyze_concurrency(
    index: Optional[ModuleIndex] = None,
    facts: Optional[CodeFacts] = None,
    allowlist: Optional[Allowlist] = None,
) -> ConcheckReport:
    """Run all four static passes and assemble the report."""
    started = time.perf_counter()
    if facts is None:
        facts = extract_facts(index)

    report = ConcheckReport()

    thread_diags, roots, diagnosed = check_thread_shared(facts)
    report.diagnostics.extend(thread_diags)
    report.thread_roots = roots

    report.diagnostics.extend(check_guard_consistency(facts, diagnosed))
    order_diags, edges = check_lock_order(facts)
    report.diagnostics.extend(order_diags)
    report.locks = guarded_fields(facts)
    report.lock_edges = edges

    fork_diags, captured = check_fork_safety(facts)
    report.diagnostics.extend(fork_diags)
    report.pool_captures = captured

    census_diags, census = global_census(facts)
    report.diagnostics.extend(census_diags)
    report.census = census

    report.diagnostics.sort(key=lambda d: (
        _SEVERITY_ORDER.get(d.severity.value, 9), d.check_id, d.subject,
    ))
    if allowlist is not None:
        report.apply_allowlist(allowlist)
    report.elapsed_s = time.perf_counter() - started
    return report


__all__ = [
    "Allowlist",
    "AllowlistEntry",
    "CodeFacts",
    "CONCHECK_ENV",
    "ConcheckReport",
    "ConDiagnostic",
    "LockMonitor",
    "TrackedLock",
    "analyze_concurrency",
    "check_fork_safety",
    "check_guard_consistency",
    "check_lock_order",
    "check_thread_shared",
    "concheck_enabled",
    "extract_facts",
    "global_census",
    "install",
    "make_lock",
    "monitor",
    "runtime_findings",
    "runtime_sweep",
    "site_access",
    "uninstall",
]
