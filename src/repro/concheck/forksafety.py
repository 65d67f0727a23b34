"""Fork/pickle-safety and the global-mutable-state census (passes 3+4).

**Pool boundary.** Everything handed to a ``ProcessPoolExecutor`` —
``initargs``, mapped arguments, submitted callables — is pickled in the
parent and rebuilt in the worker.  A captured object holding a lock, a
live thread handle, a socket or a server crashes under ``spawn``
(unpicklable) and silently resurrects *stale* state under ``fork``
(e.g. a ``Thread`` object whose OS thread does not exist in the child).
A class that defines ``__getstate__``/``__reduce__`` has opted into
controlling its pickled form and is trusted; anything else holding a
hazard attribute is an ERROR.  The capture set is closed over
``attr_types``: capturing ``Pipeline`` captures its tracer, metrics
registry and store too.

**Census.** Module-level mutable values are the one category of state
that exists *twice* under different start methods: ``fork`` children
inherit the parent's current value, ``spawn`` children re-import the
module and get the pristine initial value.  Any such global that is
also mutated or rebound at runtime therefore makes results depend on
``REPRO_START_METHOD`` — exactly what the serial-vs-parallel identity
guarantee forbids — and gets a WARNING that must be justified in the
allowlist.  Globals that are initialised once and only read are listed
in the census but not diagnosed.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Set, Tuple

from repro.concheck.facts import CodeFacts
from repro.concheck.report import ConDiagnostic
from repro.concheck.modindex import ClassInfo
from repro.staticcheck.report import Severity

#: Constructor names whose instances must not cross a fork boundary.
_HAZARD_CTORS = frozenset({"Thread", "Timer", "socket"})


def _hazard_attrs(facts: CodeFacts, cls: ClassInfo) -> List[Tuple[str, str]]:
    """(attr, hazard kind) pairs a class instance may hold."""
    hazards: List[Tuple[str, str]] = []
    prefix = cls.qualname + "."
    for subject in sorted(facts.sync_subjects):
        if subject.startswith(prefix):
            attr = subject[len(prefix):]
            if "." not in attr:
                kind = ("lock" if subject in facts.locks
                        else "sync primitive")
                hazards.append((attr, kind))
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name in _HAZARD_CTORS:
                kind = "thread handle" if name in (
                    "Thread", "Timer"
                ) else "socket"
            elif name.endswith("Server"):
                kind = "server socket"
            else:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    hazards.append((target.attr, kind))
    return hazards


def _capture_closure(facts: CodeFacts, seeds: List[str]) -> List[str]:
    """Close the captured-class set over instance attribute types."""
    seen: Set[str] = set()
    queue = list(seeds)
    while queue:
        qualname = queue.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        cls = facts.index.classes.get(qualname)
        if cls is None:
            continue
        for _, (kind, class_name) in sorted(cls.attr_types.items()):
            resolved = facts.index.resolve_name(cls.module, class_name)
            if isinstance(resolved, ClassInfo) and \
                    resolved.qualname not in seen:
                queue.append(resolved.qualname)
    return sorted(seen)


def _controls_pickling(facts: CodeFacts, cls: ClassInfo) -> bool:
    return (
        facts.index.find_method(cls, "__getstate__") is not None
        or facts.index.find_method(cls, "__reduce__") is not None
    )


def check_fork_safety(
    facts: CodeFacts,
) -> Tuple[List[ConDiagnostic], List[str]]:
    """Run the pool-boundary pass.

    Returns ``(diagnostics, captured_class_qualnames)``.
    """
    seeds: List[str] = []
    sites_by_seed: Dict[str, str] = {}
    for fn_facts in facts.functions.values():
        for site in fn_facts.pool_sites:
            for qualname in site.captured:
                seeds.append(qualname)
                sites_by_seed.setdefault(qualname, site.where)
    captured = _capture_closure(facts, seeds)

    diagnostics: List[ConDiagnostic] = []
    for qualname in captured:
        cls = facts.index.classes.get(qualname)
        if cls is None:
            continue
        hazards = _hazard_attrs(facts, cls)
        if not hazards or _controls_pickling(facts, cls):
            continue
        listing = ", ".join(
            "%s (%s)" % (attr, kind) for attr, kind in hazards
        )
        where = sites_by_seed.get(
            qualname,
            next(iter(sites_by_seed.values()), ""),
        )
        diagnostics.append(ConDiagnostic(
            check_id="concheck-fork-unsafe-capture",
            severity=Severity.ERROR,
            subject=qualname,
            message="crosses the process-pool boundary holding %s but "
                    "defines no __getstate__/__reduce__" % listing,
            where=where,
        ))
    return diagnostics, captured


def global_census(
    facts: CodeFacts,
) -> Tuple[List[ConDiagnostic], List[Dict[str, Any]]]:
    """Run the census pass.

    Returns ``(diagnostics, census_entries)`` — every module-level
    mutable is a census entry; only the mutated ones are diagnosed.
    """
    diagnostics: List[ConDiagnostic] = []
    census: List[Dict[str, Any]] = []
    for subject in sorted(facts.globals):
        entry = facts.globals[subject]
        mutated = bool(entry.mutations)
        census.append({
            "subject": subject,
            "kind": entry.kind,
            "where": entry.where,
            "mutated": mutated,
            "mutations": sorted(set(entry.mutations)),
        })
        if mutated:
            diagnostics.append(ConDiagnostic(
                check_id="concheck-global-mutable",
                severity=Severity.WARNING,
                subject=subject,
                message="module-level %s mutated at runtime; value "
                        "diverges between fork children (inherit it) "
                        "and spawn children (re-import pristine)"
                        % entry.kind,
                where=sorted(entry.mutations)[0],
            ))
    return diagnostics, census
