"""Every ``repro`` process runs on one thread.

The observability layer takes no locks and the sampling profiler's
``SIGPROF`` handler reads the tracer's span stack directly; both are
sound only while nothing under ``src/repro`` starts a thread.  This
scan keeps it that way: it fails on any import of ``threading`` or
``_thread`` and on any use of the stdlib's thread-based executors and
servers.  Pool workers are processes, and what crosses that boundary is
checked at run time (``tests/test_obs_pipeline.py`` under ``spawn``).
A serial evaluation is also checked at run time to start no thread,
and the modules that existed only for threads must stay deleted.
"""

import ast
import importlib
import os
import threading

import pytest

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: Modules whose import alone means threads.
THREAD_MODULES = frozenset({"threading", "_thread"})

#: Stdlib names that run work on threads.
THREAD_NAMES = frozenset({
    "ThreadPoolExecutor", "ThreadingMixIn", "ThreadingHTTPServer",
})


def thread_uses(source, filename):
    """``file:line: what`` for every thread import or name in a module."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        what = None
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
            if names & THREAD_MODULES:
                what = "import %s" % ", ".join(sorted(names & THREAD_MODULES))
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            imported = {alias.name for alias in node.names}
            if module in THREAD_MODULES:
                what = "from %s import ..." % module
            elif imported & THREAD_NAMES:
                what = "import of %s" % ", ".join(sorted(imported & THREAD_NAMES))
        elif isinstance(node, ast.Name) and node.id in THREAD_NAMES:
            what = node.id
        elif isinstance(node, ast.Attribute) and node.attr in THREAD_NAMES:
            what = node.attr
        if what is not None:
            found.append("%s:%d: %s" % (filename, node.lineno, what))
    return found


def test_no_module_uses_threads():
    found = []
    n_modules = 0
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    found.extend(thread_uses(handle.read(), path))
                n_modules += 1
    assert n_modules > 50  # the walk really covered the package
    assert not found, "threads under src/repro:\n" + "\n".join(found)


#: Source snippet → what the scan must report for it.
FORBIDDEN = {
    "import threading": "import threading",
    "import os, _thread as t": "import _thread",
    "from threading import Lock": "from threading import",
    "from _thread import get_ident": "from _thread import",
    "from concurrent.futures import ThreadPoolExecutor":
        "ThreadPoolExecutor",
    "import concurrent.futures as cf\ncf.ThreadPoolExecutor()":
        "ThreadPoolExecutor",
    "from socketserver import ThreadingMixIn": "ThreadingMixIn",
    "import http.server\nhttp.server.ThreadingHTTPServer": (
        "ThreadingHTTPServer"),
}

#: Sources that look thread-ish but start no thread.
ALLOWED = (
    "import multiprocessing",
    "from concurrent.futures import ProcessPoolExecutor",
    "multithreading = 1",
    "import threadpoolctl",
    "NOTE = 'threading is not used here'",
    "# import threading",
    "from repro.obs import threading_notes",
)


@pytest.mark.parametrize("source", sorted(FORBIDDEN))
def test_scan_flags_every_forbidden_form(source):
    found = thread_uses(source, "mod.py")
    assert found and FORBIDDEN[source] in found[0], (source, found)
    assert found[0].startswith("mod.py:")


@pytest.mark.parametrize("source", ALLOWED)
def test_scan_allows_process_based_and_lookalike_code(source):
    assert thread_uses(source, "mod.py") == []


def test_scan_reports_the_offending_line():
    source = "import os\n\n\nimport threading\n"
    assert thread_uses(source, "pkg/mod.py") == [
        "pkg/mod.py:4: import threading"
    ]


def test_serial_evaluation_starts_no_thread():
    from repro.config import GPUConfig
    from repro.pipeline import Pipeline
    from repro.workloads import Scale

    before = set(threading.enumerate())
    pipeline = Pipeline(GPUConfig.small(n_cores=2, warps_per_core=4),
                        scale=Scale.tiny())
    pipeline.evaluate("vectoradd")
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("module", [
    "repro.concheck", "repro.obs.exporter", "repro.obs.openmetrics",
])
def test_thread_only_modules_are_gone(module):
    # The concurrency analyzer and the live HTTP exporter existed only
    # because of threads; neither may come back as an importable module.
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_runner_facade_is_gone():
    from repro import harness

    assert not hasattr(repro, "Runner")
    assert not hasattr(harness, "Runner")

