"""Runtime lock sanitizer: the dynamic prong of ``repro.concheck``.

With ``REPRO_CONCHECK=1`` (checked once at import, or via
:func:`install`), :func:`make_lock` hands out :class:`TrackedLock`
objects instead of plain ``threading.Lock``s and the shared-state hot
spots of :mod:`repro.obs` report their reads/writes through
:func:`site_access`.  A process-wide :class:`LockMonitor` then watches
three invariants while real work runs:

* **Lock-order inversions** — every acquisition records held → wanted
  edges; observing both ``A → B`` and ``B → A`` means two threads can
  deadlock (each holding one lock, wanting the other).
* **Unguarded shared mutations** — the classic Eraser lockset
  algorithm per named *site*: the candidate lockset is the running
  intersection of locks held across accesses, refinement starting only
  once a second thread touches the site (so single-threaded
  initialisation never trips it).  An empty lockset on a written,
  multi-thread site is a data race.
* **Non-reentrant re-acquisition** — taking a plain ``Lock`` a thread
  already holds would deadlock; the tracked wrapper is backed by an
  ``RLock`` so the bug is *recorded* and the run continues.

Everything is pay-for-what-you-use: with the sanitizer off,
:func:`make_lock` returns a plain stdlib lock and :func:`site_access`
is a single global-load-and-compare.  This module deliberately imports
nothing from the rest of the package — :mod:`repro.obs` imports *it*,
never the reverse.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

#: Environment toggle; any value other than ``""``/``"0"`` installs the
#: monitor at import time.
CONCHECK_ENV = "REPRO_CONCHECK"


def concheck_enabled() -> bool:
    """Is the runtime sanitizer requested for this process?"""
    return os.environ.get(CONCHECK_ENV, "0") not in ("", "0")


class _SiteState:
    """Eraser state machine for one named shared-state site.

    ``virgin → exclusive(first thread) → shared / shared-modified``;
    the candidate lockset starts as the held set of the first access
    from a *second* thread and only ever shrinks.
    """

    __slots__ = ("state", "first_tid", "lockset", "threads",
                 "written", "reported", "n_accesses")

    def __init__(self) -> None:
        self.state = "virgin"
        self.first_tid: Optional[int] = None
        self.lockset: Optional[FrozenSet[str]] = None
        self.threads: Set[int] = set()
        self.written = False
        self.reported = False
        self.n_accesses = 0


class LockMonitor:
    """Process-wide record of lock activity and shared-site accesses."""

    def __init__(self) -> None:
        #: Internal guard; a plain lock so the monitor never traces
        #: itself.  Strictly a leaf: nothing is acquired while held.
        self._guard = threading.Lock()
        self._local = threading.local()
        #: (held, wanted) → first witness ("function-ish" description).
        self.edges: Dict[Tuple[str, str], str] = {}
        self.inversions: List[Dict[str, Any]] = []
        self.reentries: List[Dict[str, Any]] = []
        self.races: List[Dict[str, Any]] = []
        self._sites: Dict[str, _SiteState] = {}
        self.lock_names: Set[str] = set()
        self.n_acquires = 0

    # -- held-lock bookkeeping (per thread) ---------------------------------

    def _held(self) -> List[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def note_acquire(self, name: str, reentrant: bool) -> bool:
        """Record an acquisition attempt; returns False on a reentry
        violation (a non-reentrant lock the thread already holds)."""
        held = self._held()
        ok = True
        with self._guard:
            self.lock_names.add(name)
            self.n_acquires += 1
            if name in held and not reentrant:
                self.reentries.append({
                    "lock": name,
                    "held": list(held),
                    "thread": threading.get_ident(),
                })
                ok = False
            for outer in held:
                if outer == name:
                    continue
                edge = (outer, name)
                if edge not in self.edges:
                    self.edges[edge] = "thread %d" % threading.get_ident()
                    if (name, outer) in self.edges:
                        pair = tuple(sorted((outer, name)))
                        self.inversions.append({
                            "locks": list(pair),
                            "first": "%s -> %s" % (name, outer),
                            "second": "%s -> %s" % (outer, name),
                        })
        held.append(name)
        return ok

    def note_release(self, name: str) -> None:
        held = self._held()
        # Remove the innermost occurrence (reentrant locks stack).
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                break

    # -- Eraser lockset per shared site -------------------------------------

    def access(self, site: str, write: bool = True) -> None:
        """Record a read/write of a named shared-state site."""
        tid = threading.get_ident()
        held = frozenset(self._held())
        with self._guard:
            state = self._sites.get(site)
            if state is None:
                state = self._sites[site] = _SiteState()
            state.n_accesses += 1
            state.threads.add(tid)
            state.written = state.written or write
            if state.state == "virgin":
                state.state = "exclusive"
                state.first_tid = tid
                return
            if state.state == "exclusive":
                if tid == state.first_tid:
                    return  # still the initialising thread
                state.state = "shared-modified" if (
                    write or state.written
                ) else "shared"
                state.lockset = held
            else:
                if write and state.state == "shared":
                    state.state = "shared-modified"
                assert state.lockset is not None
                state.lockset = state.lockset & held
            if (state.state == "shared-modified"
                    and not state.lockset
                    and not state.reported):
                state.reported = True
                self.races.append({
                    "site": site,
                    "threads": len(state.threads),
                    "accesses": state.n_accesses,
                })

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-able dump of everything observed so far."""
        with self._guard:
            sites = {
                name: {
                    "state": s.state,
                    "threads": len(s.threads),
                    "accesses": s.n_accesses,
                    "written": s.written,
                    "lockset": sorted(s.lockset)
                    if s.lockset is not None else None,
                }
                for name, s in sorted(self._sites.items())
            }
            return {
                "locks": sorted(self.lock_names),
                "n_acquires": self.n_acquires,
                "edges": sorted(
                    "%s -> %s" % edge for edge in self.edges
                ),
                "inversions": list(self.inversions),
                "reentries": list(self.reentries),
                "races": list(self.races),
                "sites": sites,
            }

    def reset(self) -> None:
        """Drop all state (fork children, test isolation)."""
        with self._guard:
            self.edges.clear()
            self.inversions.clear()
            self.reentries.clear()
            self.races.clear()
            self._sites.clear()
            self.lock_names.clear()
            self.n_acquires = 0
        self._local = threading.local()


class TrackedLock:
    """Drop-in ``threading.Lock``/``RLock`` that reports to the monitor.

    Backed by an ``RLock`` regardless of the declared kind so that a
    reentry *bug* on a plain lock is recorded instead of deadlocking
    the sanitized run.  Never pickled: every owner drops its lock in
    ``__getstate__`` and rebuilds via :func:`make_lock`.
    """

    __slots__ = ("name", "reentrant", "_inner", "_monitor")

    def __init__(self, name: str, monitor: LockMonitor,
                 reentrant: bool = False):
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock()
        self._monitor = monitor

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor.note_acquire(self.name, self.reentrant)
        got = self._inner.acquire(blocking, timeout)
        if not got:
            self._monitor.note_release(self.name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._monitor.note_release(self.name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


#: The installed monitor, or ``None`` when the sanitizer is off.  The
#: hot-path contract: ``site_access`` and ``make_lock`` only do real
#: work when this is not ``None``.
_MONITOR: Optional[LockMonitor] = None


def monitor() -> Optional[LockMonitor]:
    """The installed monitor (``None`` when the sanitizer is off)."""
    return _MONITOR


def install(fresh: bool = False) -> LockMonitor:
    """Install (or return) the process-wide monitor."""
    global _MONITOR
    if _MONITOR is None or fresh:
        _MONITOR = LockMonitor()
    return _MONITOR


def uninstall() -> Optional[LockMonitor]:
    """Remove and return the monitor (test isolation)."""
    global _MONITOR
    current, _MONITOR = _MONITOR, None
    return current


def make_lock(name: str, reentrant: bool = False):
    """A lock for shared structure ``name``.

    Plain ``threading.Lock``/``RLock`` when the sanitizer is off; a
    :class:`TrackedLock` reporting to the monitor when it is on.  The
    name identifies the lock *class* (every ``Tracer`` shares the name
    ``"Tracer._lock"``), which is the granularity lock-order analysis
    needs.
    """
    mon = _MONITOR
    if mon is None:
        return threading.RLock() if reentrant else threading.Lock()
    return TrackedLock(name, mon, reentrant)


def site_access(site: str, write: bool = True) -> None:
    """Report an access to shared site ``site``; no-op when off."""
    mon = _MONITOR
    if mon is not None:
        mon.access(site, write)


def _reset_after_fork() -> None:
    # A forked child inherits the parent's monitor state but none of its
    # threads; parent observations must not double-count in the child.
    if _MONITOR is not None:
        _MONITOR.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix only
    os.register_at_fork(after_in_child=_reset_after_fork)

if concheck_enabled():
    install()


def runtime_findings(mon: Optional[LockMonitor] = None) -> List[Dict[str, Any]]:
    """Monitor observations as raw finding dicts (one per violation)."""
    mon = mon if mon is not None else _MONITOR
    if mon is None:
        return []
    summary = mon.summary()
    findings: List[Dict[str, Any]] = []
    for inv in summary["inversions"]:
        findings.append({
            "check_id": "concheck-runtime-inversion",
            "subject": " / ".join(inv["locks"]),
            "message": (
                "lock-order inversion observed: both %s and %s — two "
                "threads interleaving these paths can deadlock"
                % (inv["first"], inv["second"])
            ),
        })
    for race in summary["races"]:
        findings.append({
            "check_id": "concheck-runtime-race",
            "subject": race["site"],
            "message": (
                "unguarded shared mutation: %d threads touched this "
                "site (%d accesses) with an empty common lockset"
                % (race["threads"], race["accesses"])
            ),
        })
    for re_entry in summary["reentries"]:
        findings.append({
            "check_id": "concheck-runtime-reentry",
            "subject": re_entry["lock"],
            "message": (
                "non-reentrant lock re-acquired while already held "
                "(held: %s) — would deadlock outside the sanitizer"
                % ", ".join(re_entry["held"])
            ),
        })
    return findings


def runtime_sweep(kernels=None, scale=None, config=None, jobs: int = 1):
    """Run the suite with the sanitizer on and live obs threads.

    Evaluates every requested kernel (defaults: the full suite at tiny
    scale on a small machine) with a fresh monitor installed, an
    enabled tracer, a metrics exporter being scraped concurrently and
    the sampling profiler running — i.e. every cross-thread path the
    static passes reason about is actually exercised.  Returns
    ``(summary, findings, kernel_names)``.
    """
    import json as _json
    import time as _time
    import urllib.request as _request

    previous = os.environ.get(CONCHECK_ENV)
    os.environ[CONCHECK_ENV] = "1"
    mon = install(fresh=True)
    try:
        from repro.config import GPUConfig
        from repro.obs import (
            MetricsExporter,
            SamplingProfiler,
            Tracer,
        )
        from repro.pipeline import Pipeline
        from repro.workloads.generators import Scale
        from repro.workloads.suite import SUITE

        kernels = list(kernels) if kernels is not None else sorted(SUITE)
        scale = scale if scale is not None else Scale.tiny()
        config = config if config is not None else GPUConfig.small()
        tracer = Tracer(enabled=True)
        pipeline = Pipeline(config, scale=scale, tracer=tracer, jobs=jobs)
        stop_scraping = threading.Event()
        n_scrapes = [0]

        def _scrape_loop(url: str) -> None:
            while not stop_scraping.wait(0.05):
                try:
                    with _request.urlopen(url + "/metrics",
                                          timeout=5.0) as response:
                        response.read()
                    with _request.urlopen(url + "/healthz",
                                          timeout=5.0) as response:
                        _json.loads(response.read())
                    n_scrapes[0] += 1
                except OSError:
                    _time.sleep(0.05)

        exporter = MetricsExporter(pipeline.metrics, tracer=tracer)
        profiler = SamplingProfiler(tracer=tracer)
        with exporter, profiler:
            scraper = threading.Thread(
                target=_scrape_loop, args=(exporter.url,),
                name="concheck-scraper", daemon=True,
            )
            scraper.start()
            try:
                if jobs > 1:
                    pipeline.evaluate_many(
                        [{"kernel": k} for k in kernels]
                    )
                else:
                    for kernel in kernels:
                        pipeline.evaluate(kernel)
            finally:
                stop_scraping.set()
                scraper.join(timeout=5.0)
        summary = mon.summary()
        summary["kernels"] = len(kernels)
        summary["scrapes"] = n_scrapes[0]
        summary["samples"] = profiler.n_samples
        return summary, runtime_findings(mon), kernels
    finally:
        if previous is None:
            del os.environ[CONCHECK_ENV]
        else:
            os.environ[CONCHECK_ENV] = previous
        if not concheck_enabled():
            uninstall()
