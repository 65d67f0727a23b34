"""Trace persistence: save/load kernel traces as ``.npz`` archives.

Functional emulation is the most expensive hardware-independent stage of
the pipeline (the paper runs GPUOcelot once and reuses its traces for
both the model and the detailed simulator).  Persisting traces lets a
design-space study emulate each kernel once and sweep hardware
configurations across processes or machines.

The format is a single compressed numpy archive: a small JSON header
plus, per warp, the column arrays of :class:`WarpTrace`.  Integers are
stored at their natural widths; the archive is portable and versioned.
Loading packs the warps back into a :class:`KernelTrace`'s launch-wide
columns, after checking that every producer index and request offset
is one the model can use.

Every column has exactly one canonical dtype (:data:`COLUMN_DTYPES`),
enforced on *both* save and load: whatever widths an archive carries —
a hand-built trace, an older tool, a different platform's default int —
the loaded trace holds the canonical columns.  That is what keeps
disk-cached artifacts backend- and platform-independent: the pipeline's
content-addressed keys hash the raw column bytes (``trace_digest``), so
a dtype drift would silently fork the cache.
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from repro.trace.trace_types import (
    COLUMN_DTYPES,
    MAX_DEPS,
    NO_DEP,
    KernelTrace,
    WarpTrace,
)

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 2


class TraceFormatError(RuntimeError):
    """Raised when an archive is not a valid trace file."""


def _canonical(name: str, value: np.ndarray) -> np.ndarray:
    """``value`` as the canonical dtype/shape of column ``name``.

    Already-canonical arrays pass through untouched (no copy); anything
    else is cast, with a :class:`TraceFormatError` if the values do not
    survive the cast exactly.
    """
    spec = COLUMN_DTYPES[name]
    array = np.asarray(value)
    if name == "deps":
        array = array.reshape(-1, MAX_DEPS)
    if array.dtype == spec:
        return array
    cast = array.astype(spec)
    if not np.array_equal(cast, array):
        raise TraceFormatError(
            "column %r does not fit its canonical dtype %s" % (name, spec)
        )
    return cast


def save_trace(trace: KernelTrace, path: Union[str, os.PathLike]) -> None:
    """Write a kernel trace to ``path`` (a ``.npz`` archive)."""
    header = {
        "format_version": FORMAT_VERSION,
        "kernel_name": trace.kernel_name,
        "warp_size": trace.warp_size,
        "line_size": trace.line_size,
        "n_blocks": trace.n_blocks,
        "warps": [
            {"warp_id": w.warp_id, "block_id": w.block_id}
            for w in trace.warps
        ],
    }
    arrays = {"header": np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )}
    for i, warp in enumerate(trace.warps):
        for name in COLUMN_DTYPES:
            arrays["w%d_%s" % (i, name)] = _canonical(
                name, getattr(warp, name)
            )
    np.savez_compressed(path, **arrays)


def load_trace(path: Union[str, os.PathLike]) -> KernelTrace:
    """Read a kernel trace written by :func:`save_trace`."""
    with np.load(path) as archive:
        if "header" not in archive:
            raise TraceFormatError("%s is not a trace archive" % path)
        try:
            header = json.loads(bytes(archive["header"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError("corrupt trace header in %s" % path) from exc
        version = header.get("format_version")
        if version not in (1, FORMAT_VERSION):
            raise TraceFormatError(
                "unsupported trace format version %r (expected <= %d)"
                % (version, FORMAT_VERSION)
            )
        warps = []
        for i, meta in enumerate(header["warps"]):
            columns = {}
            for name in COLUMN_DTYPES:
                key = "w%d_%s" % (i, name)
                if key not in archive:
                    if name == "conflict":
                        continue  # v1 archives predate scratchpad support
                    raise TraceFormatError(
                        "missing column %s in %s" % (key, path)
                    )
                columns[name] = _canonical(name, archive[key])
            _check_links(columns, "warp %d of %s" % (i, path))
            warps.append(
                WarpTrace(
                    warp_id=meta["warp_id"],
                    block_id=meta["block_id"],
                    conflict=columns.pop("conflict", None),
                    **columns,
                )
            )
    return KernelTrace.from_warps(
        header["kernel_name"],
        header["warp_size"],
        header["line_size"],
        header["n_blocks"],
        warps,
    )


def _check_links(columns: dict, where: str) -> None:
    """Reject producer indices and request offsets the model cannot use.

    Instruction ``k`` may depend only on an earlier instruction of its
    warp (``0 <= p < k``) or on nothing (``NO_DEP``); ``req_offsets``
    must rise from 0 to ``len(req_lines)`` over ``n + 1`` entries.  The
    emulators build such traces by construction; an archive is checked
    here, where it enters.
    """
    n = len(columns["pcs"])
    offsets = columns["req_offsets"]
    if not (
        len(offsets) == n + 1
        and offsets[0] == 0
        and offsets[-1] == len(columns["req_lines"])
        and (np.diff(offsets) >= 0).all()
    ):
        raise TraceFormatError(
            "%s: req_offsets must rise from 0 to len(req_lines) over "
            "%d entries" % (where, n + 1)
        )
    deps = columns["deps"]
    bad = (deps != NO_DEP) & (
        (deps < 0) | (deps >= np.arange(len(deps))[:, None])
    )
    if bad.any():
        k, slot = np.argwhere(bad)[0].tolist()
        raise TraceFormatError(
            "%s: instruction %d depends on %d; a producer must be NO_DEP "
            "or an earlier instruction of the same warp"
            % (where, k, int(deps[k, slot]))
        )
