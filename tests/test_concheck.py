"""Tests for the concurrency/fork-safety subsystem (``repro.concheck``).

Four layers:

* the static passes on synthetic packages seeded with each bug class
  (thread-escape, inconsistent guards, lock-order cycles, reentry,
  fork-unsafe pool captures, mutable globals);
* the static passes against the real repository — the CI gate: every
  finding fixed or allowlisted, no stale allowlist entries, and the
  whole analysis under its 2s budget;
* the runtime lock sanitizer (Eraser locksets, order inversions,
  reentry recording, the off-switch contract);
* the concurrency fixes the analyzer motivated: fork-stale exporter /
  sampler handles and the multithreaded metrics + scrape stress test.
"""

import json
import multiprocessing
import os
import textwrap
import threading
import time
import urllib.request

import pytest

from repro.concheck import (
    Allowlist,
    ConDiagnostic,
    LockMonitor,
    TrackedLock,
    analyze_concurrency,
    extract_facts,
    install,
    make_lock,
    site_access,
    uninstall,
)
from repro.concheck.modindex import ModuleIndex
from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import validate_openmetrics
from repro.obs.sampler import SamplingProfiler
from repro.staticcheck.report import Severity

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "concheck-allow.txt")


def build_synth(tmp_path, sources):
    """Index a synthetic package written from ``{module: source}``."""
    pkg = tmp_path / "synth"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in sources.items():
        (pkg / (name + ".py")).write_text(textwrap.dedent(source))
    return ModuleIndex.build(root=str(pkg), package="synth")


def findings(tmp_path, sources, check_id=None):
    index = build_synth(tmp_path, sources)
    report = analyze_concurrency(index)
    if check_id is None:
        return report.diagnostics
    return [d for d in report.diagnostics if d.check_id == check_id]


# ---------------------------------------------------------------------------
# Static pass 1: thread-escape analysis
# ---------------------------------------------------------------------------


class TestThreadShared:
    UNLOCKED = {
        "m": """
            import threading

            class Worker:
                def __init__(self):
                    self.items = []

                def start(self):
                    thread = threading.Thread(target=self._run)
                    thread.start()

                def _run(self):
                    self.items.append(1)

                def read(self):
                    return len(self.items)
            """
    }

    def test_unlocked_shared_write_is_an_error(self, tmp_path):
        diags = findings(tmp_path, self.UNLOCKED, "concheck-thread-shared")
        assert len(diags) == 1
        diag = diags[0]
        assert diag.severity is Severity.ERROR
        assert diag.subject == "synth.m.Worker.items"

    def test_locked_shared_write_is_clean(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Worker:
                    def __init__(self):
                        self.lock = threading.Lock()
                        self.items = []

                    def start(self):
                        thread = threading.Thread(target=self._run)
                        thread.start()

                    def _run(self):
                        with self.lock:
                            self.items.append(1)

                    def read(self):
                        with self.lock:
                            return len(self.items)
                """
        }
        assert findings(tmp_path, sources, "concheck-thread-shared") == []

    def test_write_reached_through_call_chain(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Worker:
                    def __init__(self):
                        self.count = 0

                    def start(self):
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        self._bump()

                    def _bump(self):
                        self.count += 1

                    def read(self):
                        return self.count
                """
        }
        diags = findings(tmp_path, sources, "concheck-thread-shared")
        assert [d.subject for d in diags] == ["synth.m.Worker.count"]

    def test_unresolved_thread_target_warns(self, tmp_path):
        sources = {
            "m": """
                import threading

                def launch(callback):
                    threading.Thread(target=callback).start()
                """
        }
        diags = findings(
            tmp_path, sources, "concheck-unresolved-thread-target"
        )
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING

    def test_handler_methods_race_against_themselves(self, tmp_path):
        # A ThreadingHTTPServer runs one handler thread per request, so
        # an unlocked write reached from a handler method races even
        # with no other thread entry point in the codebase.
        sources = {
            "m": """
                from http.server import (
                    BaseHTTPRequestHandler,
                    ThreadingHTTPServer,
                )

                class Counter:
                    def __init__(self):
                        self.hits = 0

                class Handler(BaseHTTPRequestHandler):
                    server: "Srv"

                    def do_GET(self):
                        self.server.counter.hits += 1

                class Srv(ThreadingHTTPServer):
                    counter: "Counter"

                def serve():
                    server = Srv(("127.0.0.1", 0), Handler)
                    server.serve_forever()
                """
        }
        diags = findings(tmp_path, sources, "concheck-thread-shared")
        assert [d.subject for d in diags] == ["synth.m.Counter.hits"]


# ---------------------------------------------------------------------------
# Static pass 2: lock discipline
# ---------------------------------------------------------------------------


class TestLockDiscipline:
    def test_sometimes_guarded_field_warns(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.Lock()
                        self.count = 0

                    def locked_add(self):
                        with self.lock:
                            self.count += 1

                    def bare_add(self):
                        self.count += 1
                """
        }
        diags = findings(tmp_path, sources, "concheck-inconsistent-guard")
        assert len(diags) == 1
        assert diags[0].subject == "synth.m.Box.count"
        assert diags[0].severity is Severity.WARNING

    def test_caller_holds_annotation_counts_as_guarded(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.Lock()
                        self.count = 0

                    def locked_add(self):
                        with self.lock:
                            self._bump()

                    def _bump(self):
                        '''Add one.

                        concheck: caller-holds Box.lock
                        '''
                        self.count += 1
                """
        }
        assert findings(
            tmp_path, sources, "concheck-inconsistent-guard"
        ) == []

    def test_opposite_acquisition_order_is_a_cycle(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Pair:
                    def __init__(self):
                        self.a = threading.Lock()
                        self.b = threading.Lock()

                    def forward(self):
                        with self.a:
                            with self.b:
                                pass

                    def backward(self):
                        with self.b:
                            with self.a:
                                pass
                """
        }
        diags = findings(tmp_path, sources, "concheck-lock-order-cycle")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert diags[0].subject == "synth.m.Pair.a <-> synth.m.Pair.b"

    def test_consistent_order_is_clean(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Pair:
                    def __init__(self):
                        self.a = threading.Lock()
                        self.b = threading.Lock()

                    def one(self):
                        with self.a:
                            with self.b:
                                pass

                    def two(self):
                        with self.a:
                            with self.b:
                                pass
                """
        }
        assert findings(
            tmp_path, sources, "concheck-lock-order-cycle"
        ) == []

    def test_reentry_through_a_callee_is_an_error(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.Lock()

                    def outer(self):
                        with self.lock:
                            self.inner()

                    def inner(self):
                        with self.lock:
                            pass
                """
        }
        diags = findings(tmp_path, sources, "concheck-lock-reentry")
        assert len(diags) == 1
        assert "synth.m.Box.lock" in diags[0].subject

    def test_rlock_reentry_is_allowed(self, tmp_path):
        sources = {
            "m": """
                import threading

                class Box:
                    def __init__(self):
                        self.lock = threading.RLock()

                    def outer(self):
                        with self.lock:
                            self.inner()

                    def inner(self):
                        with self.lock:
                            pass
                """
        }
        assert findings(tmp_path, sources, "concheck-lock-reentry") == []


# ---------------------------------------------------------------------------
# Static pass 3: fork/pickle safety at the pool boundary
# ---------------------------------------------------------------------------


class TestForkSafety:
    def test_lock_holder_without_getstate_is_flagged(self, tmp_path):
        sources = {
            "m": """
                import threading
                from concurrent.futures import ProcessPoolExecutor

                class Task:
                    def __init__(self):
                        self.lock = threading.Lock()

                    def run(self):
                        return 1

                def main():
                    task = Task()
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(task.run).result()
                """
        }
        diags = findings(tmp_path, sources, "concheck-fork-unsafe-capture")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert "synth.m.Task" in diags[0].subject

    def test_getstate_makes_the_capture_safe(self, tmp_path):
        sources = {
            "m": """
                import threading
                from concurrent.futures import ProcessPoolExecutor

                class Task:
                    def __init__(self):
                        self.lock = threading.Lock()

                    def __getstate__(self):
                        return {}

                    def run(self):
                        return 1

                def main():
                    task = Task()
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(task.run).result()
                """
        }
        assert findings(
            tmp_path, sources, "concheck-fork-unsafe-capture"
        ) == []


# ---------------------------------------------------------------------------
# Static pass 4: global mutable census
# ---------------------------------------------------------------------------


class TestGlobalCensus:
    def test_mutated_global_warns_and_constant_does_not(self, tmp_path):
        sources = {
            "m": """
                CACHE = {}
                LIMITS = (1, 2, 3)

                def remember(key, value):
                    CACHE[key] = value
                """
        }
        index = build_synth(tmp_path, sources)
        report = analyze_concurrency(index)
        flagged = [
            d.subject for d in report.diagnostics
            if d.check_id == "concheck-global-mutable"
        ]
        assert flagged == ["synth.m.CACHE"]
        assert any(e["subject"] == "synth.m.CACHE" for e in report.census)
        assert all(e["subject"] != "synth.m.LIMITS" for e in report.census)

    def test_rebound_none_global_is_in_the_census(self, tmp_path):
        sources = {
            "m": """
                _STATE = None

                def set_state(value):
                    global _STATE
                    _STATE = value
                """
        }
        index = build_synth(tmp_path, sources)
        report = analyze_concurrency(index)
        entries = {e["subject"]: e for e in report.census}
        assert "synth.m._STATE" in entries
        assert entries["synth.m._STATE"]["mutated"]


# ---------------------------------------------------------------------------
# The allowlist
# ---------------------------------------------------------------------------


def _diag(check_id="concheck-global-mutable", subject="pkg.mod.NAME"):
    return ConDiagnostic(
        check_id=check_id, severity=Severity.WARNING,
        subject=subject, message="m",
    )


class TestAllowlist:
    def test_parse_match_and_unused(self):
        allowlist = Allowlist.parse(
            "# comment\n"
            "\n"
            "concheck-global-mutable pkg.mod.* -- registry filled at import\n"
            "concheck-thread-shared other.thing -- never fires\n",
            path="x.txt",
        )
        assert len(allowlist.entries) == 2
        hit = allowlist.match(_diag())
        assert hit is not None
        assert hit.justification == "registry filled at import"
        assert allowlist.match(_diag(subject="elsewhere.NAME")) is None
        assert [e.pattern for e in allowlist.unused()] == ["other.thing"]

    def test_malformed_line_is_rejected(self):
        with pytest.raises(ValueError, match="justification"):
            Allowlist.parse("concheck-global-mutable pkg.mod.NAME\n")

    def test_waived_findings_do_not_fail_but_render(self, tmp_path):
        sources = {
            "m": """
                CACHE = {}

                def remember(key, value):
                    CACHE[key] = value
                """
        }
        index = build_synth(tmp_path, sources)
        allowlist = Allowlist.parse(
            "concheck-global-mutable synth.m.CACHE -- memo table\n"
        )
        report = analyze_concurrency(index, allowlist=allowlist)
        assert report.clean
        assert len(report.waived) == 1
        assert "memo table" in report.render_text()


# ---------------------------------------------------------------------------
# The CI gate: the repository itself is clean
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_report():
    return analyze_concurrency(
        allowlist=Allowlist.load(ALLOWLIST_PATH)
    )


class TestRepositoryGate:
    def test_repo_is_clean_under_the_checked_in_allowlist(self, repo_report):
        assert repo_report.clean, repo_report.render_text()

    def test_no_stale_allowlist_entries(self):
        allowlist = Allowlist.load(ALLOWLIST_PATH)
        analyze_concurrency(allowlist=allowlist)
        assert allowlist.unused() == []

    def test_static_passes_meet_the_time_budget(self, repo_report):
        assert repo_report.elapsed_s < 2.0

    def test_known_obs_locks_are_discovered(self, repo_report):
        for lock in (
            "repro.obs.tracer.Tracer._lock",
            "repro.obs.exporter.MetricsExporter._lock",
            "repro.obs.sampler.SamplingProfiler._lock",
            "repro.obs.metrics.MetricsRegistry._lock",
        ):
            assert lock in repo_report.locks

    def test_seeded_regression_is_caught(self):
        # Re-analyze the real tracer with its span-append lock erased:
        # the analyzer must rediscover the bug the lock fixes.
        facts = extract_facts()
        fn = "repro.obs.tracer._SpanHandle.__exit__"
        fresh = facts.functions[fn].accesses
        facts.functions[fn].accesses = [
            a.__class__(subject=a.subject, kind=a.kind,
                        locks=frozenset(), fn=a.fn, where=a.where)
            for a in fresh
        ]
        report = analyze_concurrency(facts=facts)
        assert any(
            d.check_id == "concheck-thread-shared"
            and d.subject == "repro.obs.tracer.Tracer._spans"
            for d in report.diagnostics
        )

    def test_json_report_shape(self, repo_report):
        payload = json.loads(repo_report.to_json())
        assert payload["clean"] is True
        assert payload["n_errors"] == 0
        assert payload["elapsed_s"] > 0
        assert payload["locks"]


# ---------------------------------------------------------------------------
# The runtime sanitizer
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_monitor():
    mon = install(fresh=True)
    try:
        yield mon
    finally:
        uninstall()


def _in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(5.0)


class TestLockMonitor:
    def test_make_lock_is_plain_when_off(self):
        uninstall()
        lock = make_lock("X")
        assert not isinstance(lock, TrackedLock)
        site_access("X.site")  # must be a silent no-op

    def test_make_lock_is_tracked_when_on(self, fresh_monitor):
        lock = make_lock("X")
        assert isinstance(lock, TrackedLock)
        with lock:
            pass
        assert "X" in fresh_monitor.summary()["locks"]

    def test_opposite_order_acquisition_is_an_inversion(self, fresh_monitor):
        a = make_lock("A")
        b = make_lock("B")
        with a:
            with b:
                pass

        def backward():
            with b:
                with a:
                    pass

        _in_thread(backward)
        inversions = fresh_monitor.summary()["inversions"]
        assert len(inversions) == 1
        assert inversions[0]["locks"] == ["A", "B"]

    def test_reentry_is_recorded_not_deadlocked(self, fresh_monitor):
        lock = make_lock("L")  # non-reentrant by declaration
        with lock:
            with lock:  # a real Lock would deadlock right here
                pass
        reentries = fresh_monitor.summary()["reentries"]
        assert len(reentries) == 1
        assert reentries[0]["lock"] == "L"

    def test_reentrant_lock_reenters_silently(self, fresh_monitor):
        lock = make_lock("R", reentrant=True)
        with lock:
            with lock:
                pass
        assert fresh_monitor.summary()["reentries"] == []

    def test_unlocked_cross_thread_write_is_a_race(self, fresh_monitor):
        site_access("Shared.field")
        _in_thread(lambda: site_access("Shared.field"))
        races = fresh_monitor.summary()["races"]
        assert [r["site"] for r in races] == ["Shared.field"]

    def test_locked_cross_thread_write_is_not_a_race(self, fresh_monitor):
        lock = make_lock("Shared._lock")

        def locked_write():
            with lock:
                site_access("Shared.field")

        locked_write()
        _in_thread(locked_write)
        summary = fresh_monitor.summary()
        assert summary["races"] == []
        site = summary["sites"]["Shared.field"]
        assert site["state"] == "shared-modified"
        assert site["lockset"] == ["Shared._lock"]

    def test_read_only_sharing_is_not_a_race(self, fresh_monitor):
        site_access("Shared.config", write=False)
        _in_thread(lambda: site_access("Shared.config", write=False))
        summary = fresh_monitor.summary()
        assert summary["races"] == []
        assert summary["sites"]["Shared.config"]["state"] == "shared"

    def test_monitor_reset_drops_everything(self):
        mon = LockMonitor()
        mon.note_acquire("A", reentrant=False)
        mon.access("S")
        mon.reset()
        summary = mon.summary()
        assert summary["n_acquires"] == 0
        assert summary["sites"] == {}


# ---------------------------------------------------------------------------
# Fork-stale handles (exporter and sampler)
# ---------------------------------------------------------------------------


class TestForkStaleHandles:
    def test_exporter_drops_simulated_stale_handle(self):
        exporter = MetricsExporter(MetricsRegistry())
        exporter.start()
        try:
            assert exporter.running
            # Quiesce the serve loop, then claim another pid started it
            # — exactly the state a forked child inherits.
            exporter._server.shutdown()
            exporter._thread.join(timeout=5.0)
            exporter._pid += 1
            assert not exporter.running
            exporter.start()  # must drop the stale state and rebind
            assert exporter.running
            assert exporter._pid == os.getpid()
            with urllib.request.urlopen(
                exporter.url + "/healthz", timeout=5
            ) as response:
                assert response.status == 200
        finally:
            exporter.stop()
        assert not exporter.running

    def test_exporter_stop_in_fake_child_does_not_block(self):
        exporter = MetricsExporter(MetricsRegistry())
        exporter.start()
        exporter._server.shutdown()
        exporter._thread.join(timeout=5.0)
        exporter._pid += 1
        started = time.monotonic()
        exporter.stop()  # inherited handle: no join, no server shutdown
        assert time.monotonic() - started < 1.0
        assert exporter._server is None and exporter._thread is None

    def test_sampler_drops_simulated_stale_handle(self):
        sampler = SamplingProfiler(interval=0.005)
        sampler.start()
        try:
            assert sampler.running
            sampler._stop.set()
            sampler._thread.join(timeout=5.0)
            sampler._pid += 1
            assert not sampler.running
            sampler.start()
            assert sampler.running
            assert sampler._pid == os.getpid()
        finally:
            sampler.stop()
        assert not sampler.running

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="fork start method unavailable"
    )
    def test_real_fork_child_sees_dead_exporter_and_recovers(self):
        ctx = multiprocessing.get_context("fork")
        exporter = MetricsExporter(MetricsRegistry())

        def child():
            code = 1
            try:
                if exporter.running:
                    code = 2  # inherited handle wrongly claims to serve
                else:
                    exporter.stop()  # must return, not join a ghost
                    exporter.start()  # fresh server on a fresh port
                    code = 0 if exporter.running else 3
            finally:
                os._exit(code)

        with exporter:
            parent_url = exporter.url
            process = ctx.Process(target=child)
            process.start()
            process.join(timeout=30)
            assert process.exitcode == 0
            # The parent's server survived the child's lifecycle.
            with urllib.request.urlopen(
                parent_url + "/healthz", timeout=5
            ) as response:
                assert response.status == 200


# ---------------------------------------------------------------------------
# Multithreaded metrics + scrape stress (satellite of the analyzer work)
# ---------------------------------------------------------------------------


class TestMetricsStress:
    N_THREADS = 8
    N_ITER = 300

    def test_hammered_registry_serves_valid_scrapes(self):
        registry = MetricsRegistry()
        exporter = MetricsExporter(registry)
        errors = []
        stop_scraping = threading.Event()

        def hammer(worker_id):
            for i in range(self.N_ITER):
                registry.counter("stress_total").inc()
                registry.counter(
                    "stress_labeled_total", worker=str(worker_id)
                ).inc(2)
                registry.gauge("stress_gauge").set(i)
                registry.histogram("stress_ms").observe(i % 50)

        def scrape(url):
            while not stop_scraping.is_set():
                try:
                    with urllib.request.urlopen(
                        url + "/metrics", timeout=5
                    ) as response:
                        text = response.read().decode("utf-8")
                except OSError as exc:  # pragma: no cover - fail loudly
                    errors.append("scrape failed: %r" % (exc,))
                    return
                bad = validate_openmetrics(text)
                if bad:
                    errors.append("invalid exposition: %s" % bad)
                    return

        with exporter:
            scraper = threading.Thread(
                target=scrape, args=(exporter.url,), daemon=True
            )
            scraper.start()
            workers = [
                threading.Thread(target=hammer, args=(worker_id,))
                for worker_id in range(self.N_THREADS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            stop_scraping.set()
            scraper.join(timeout=10)

        assert errors == []
        expected = self.N_THREADS * self.N_ITER
        assert registry.counter_value("stress_total") == expected
        for worker_id in range(self.N_THREADS):
            assert registry.counter_value(
                "stress_labeled_total", worker=str(worker_id)
            ) == 2 * self.N_ITER
        histogram = registry.histogram("stress_ms")
        assert histogram.count == expected
        assert sum(histogram.counts) == expected
        assert exporter.n_scrapes >= 1

    def test_hammered_registry_under_sanitizer_reports_no_races(self):
        mon = install(fresh=True)
        try:
            registry = MetricsRegistry()

            def hammer():
                for i in range(100):
                    registry.counter("sanitized_total").inc()
                    registry.histogram("sanitized_ms").observe(i)

            workers = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            registry.snapshot()
            summary = mon.summary()
            assert summary["races"] == []
            assert summary["inversions"] == []
            assert summary["reentries"] == []
            assert summary["n_acquires"] > 0
        finally:
            uninstall()
