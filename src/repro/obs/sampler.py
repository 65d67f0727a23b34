"""Stdlib sampling profiler with collapsed-stack flamegraph export.

:class:`SamplingProfiler` arms a ``SIGPROF`` interval timer
(``signal.setitimer(ITIMER_PROF, ...)``).  Each tick runs a handler on
the main thread that walks the interrupted frame from innermost frame
to root and folds the walk into a counter of *collapsed stacks* — the
``root;caller;callee N`` text format every flamegraph renderer
understands (flamegraph.pl, speedscope, Firefox Profiler's importer).
Because sampling reads frames instead of instrumenting calls, the
profiled code runs unmodified and the overhead is bounded by the
sampling period, not by call volume — which is what makes it safe to
leave on for a whole sweep (``repro profile --sample``).

``ITIMER_PROF`` counts the process's CPU time (user + system), so the
period is CPU time and samples measure where CPU went, not wall-clock
time: a process blocked waiting (for pool workers, for I/O) is not
sampled.  The timer needs ``signal.setitimer``, i.e. a Unix host;
:meth:`SamplingProfiler.start` raises on platforms without it.

Span attribution: when a :class:`~repro.obs.tracer.Tracer` is supplied,
every sample taken inside open spans is prefixed with those span names
(``stage:trace;...``), so hot frames map directly to the pipeline stage
that was executing them — the flamegraph and the stage-timing table
tell one story.  The handler takes no lock: the tracer's span stack is
a plain list that only the interrupted main thread ever changes.

Worker processes are out of scope by design: forked workers inherit
the handler but not the interval timer, and spawned ones start without
either, so the profile covers the process that started it.  Profile
serially (``--jobs 1``, the default) when a whole-run flamegraph is
wanted.
"""

from __future__ import annotations

import signal
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

#: Default sampling period in seconds of CPU time (~97 Hz; a prime-ish
#: rate avoids resonating with timer-driven work the way 100 Hz can).
DEFAULT_INTERVAL = 0.0103


def _frame_label(frame) -> str:
    """One collapsed-stack frame: ``module:function``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return "%s:%s" % (module, code.co_name)


class SamplingProfiler:
    """Periodic main-thread stack sampler (start/stop or ``with``)."""

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        tracer: Optional[Tracer] = None,
        span_prefix: str = "stage:",
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive; got %r"
                             % (interval,))
        self.interval = float(interval)
        #: Tracer whose open-span names attribute samples to stages.
        self.tracer = tracer
        self.span_prefix = span_prefix
        self.n_samples = 0
        #: collapsed stack tuple → number of samples observed there.
        self._stacks: Counter = Counter()
        self.running = False
        #: The SIGPROF handler start() replaced; stop() restores it.
        self._saved_handler = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Install the handler and arm the timer (no-op if running)."""
        if self.running:
            return self
        if not hasattr(signal, "setitimer"):
            raise RuntimeError(
                "SamplingProfiler needs signal.setitimer (SIGPROF), "
                "which is not available on %s" % sys.platform
            )
        self._saved_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        self.running = True
        return self

    def stop(self) -> None:
        """Disarm the timer and restore the saved handler (idempotent)."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._saved_handler)
        self._saved_handler = None
        self.running = False

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- sampling -----------------------------------------------------------

    def _sample(self, signum: int, frame) -> None:
        """The SIGPROF handler: record the interrupted stack."""
        stack: List[str] = []
        while frame is not None:
            stack.append(_frame_label(frame))
            frame = frame.f_back
        stack.reverse()  # root first, collapsed-stack order
        if self.tracer is not None:
            spans = self.tracer.open_span_names()
            if spans:
                stack = [self.span_prefix + name for name in spans] + stack
        self._stacks[tuple(stack)] += 1
        self.n_samples += 1

    # -- output -------------------------------------------------------------

    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """Snapshot of the collapsed-stack counter."""
        return dict(self._stacks)

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), sorted by
        descending count then lexicographically — feed to flamegraph.pl
        or paste into speedscope."""
        return [
            "%s %d" % (";".join(stack), count)
            for stack, count in sorted(
                self.stacks().items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]

    def write_collapsed(self, path: str) -> None:
        """Write the collapsed-stack profile to a file."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")

    def hot_frames(self, top: int = 10) -> List[Tuple[str, int]]:
        """The ``top`` most-sampled leaf frames (inclusive of span
        prefixes is wrong for leaves, so prefixes are skipped)."""
        leaves: Counter = Counter()
        for stack, count in self.stacks().items():
            if stack:
                leaves[stack[-1]] += count
        return leaves.most_common(top)

    def by_span(self) -> Dict[str, int]:
        """Samples grouped by innermost attributed span (stage)."""
        spans: Counter = Counter()
        for stack, count in self.stacks().items():
            innermost = None
            for frame in stack:
                if frame.startswith(self.span_prefix):
                    innermost = frame[len(self.span_prefix):]
                else:
                    break
            spans[innermost or "(no span)"] += count
        return dict(spans)
