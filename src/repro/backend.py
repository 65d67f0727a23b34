"""Hot-path *compute* backend selection: vectorized vs scalar reference.

Terminology: this module selects **how** results are computed, never
**what** is modeled.  ``GPUConfig.arch`` is the opposite: it changes
modeled semantics (reconvergence, issue slots per core) and therefore
*does* participate in cache keys.  The two axes are orthogonal: either
compute backend must produce bitwise-equal results under either arch,
which ``tests/test_vectorized_equivalence.py`` asserts for both.

Three pipeline stages dominate wall-clock — functional emulation, the
Eq. 4 interval scan, and the functional cache replay.  Each has two
interchangeable implementations:

* ``vectorized`` — batched numpy over all warps at once (the default);
* ``scalar`` — the original one-warp/one-request-at-a-time loops, kept
  as the executable specification the vectorized code is tested against.

Both backends produce **bitwise-identical artifacts** (same trace
columns, same interval profiles, same cache counters, and therefore the
same content-addressed store fingerprints), which is asserted across the
whole workload suite by ``tests/test_vectorized_equivalence.py``.  The
backend is deliberately *not* part of any stage cache key: artifacts
written by one backend are valid hits for the other.

Set ``REPRO_SCALAR=1`` in the environment to select the scalar
reference backend (for debugging, differential testing, or measuring
the vectorization speedup — see ``benchmarks/test_bench_hotpath.py``).
The environment is consulted on every call so tests can flip backends
with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

#: Backend names, as reported in metrics labels and span args.
VECTORIZED = "vectorized"
SCALAR = "scalar"

#: Environment variable selecting the scalar reference backend.
SCALAR_ENV = "REPRO_SCALAR"

#: Stages whose implementation the backend switch selects.
BACKEND_STAGES = frozenset({"trace", "interval_profiles", "cache_sim"})


def use_scalar() -> bool:
    """Whether the scalar reference backend is selected."""
    value = os.environ.get(SCALAR_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no")


def current_backend() -> str:
    """Name of the active hot-path backend (``vectorized``/``scalar``)."""
    return SCALAR if use_scalar() else VECTORIZED
