"""Deterministic synthetic memory contents for the functional emulator.

The paper's input collector executes real CUDA kernels on real inputs; we
substitute a :class:`MemoryImage` that returns deterministic values for any
address, so kernels with data-dependent behaviour (gather indices, loop
trip counts) are reproducible without any external data files.

By default a load returns a pseudo-random value in ``[0, 1)`` derived from
a multiplicative hash of the address (Knuth's 2654435761), which is enough
entropy to drive divergent control flow.  Kernels that need structured
data (index arrays for gathers, bounded trip counts) register *regions*:
half-open byte ranges whose values come from a vectorised function of the
address.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

_KNUTH = np.int64(2654435761)
_MOD = np.int64(1 << 32)


def _hash_unit(addrs: np.ndarray) -> np.ndarray:
    """Deterministic per-address value in [0, 1)."""
    mixed = (addrs.astype(np.int64) * _KNUTH) % _MOD
    return mixed.astype(np.float64) / float(_MOD)


RegionFn = Callable[[np.ndarray], np.ndarray]


class MemoryImage:
    """Address → value mapping with optional structured regions.

    Stores update a sparse overlay so read-after-write through memory is
    functionally correct; tracking can be disabled for store-only kernels
    to bound memory use.
    """

    def __init__(self, track_stores: bool = True):
        self._regions: List[Tuple[int, int, RegionFn]] = []
        # The store overlay: sorted distinct addresses, their values.
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self.track_stores = track_stores

    # Region registration ----------------------------------------------------

    def add_region(self, base: int, size: int, fn: RegionFn) -> None:
        """Values of addresses in ``[base, base + size)`` come from ``fn``.

        ``fn`` receives the raw byte addresses (int64 array) and must
        return a float64 array of the same shape.  Later regions shadow
        earlier ones.
        """
        if size <= 0:
            raise ValueError("region size must be positive")
        self._regions.append((base, base + size, fn))

    def add_uniform_int_region(
        self, base: int, size: int, low: int, high: int, salt: int = 0
    ) -> None:
        """Region of deterministic pseudo-uniform integers in [low, high)."""
        if high <= low:
            raise ValueError("need high > low")
        span = high - low

        def fn(addrs: np.ndarray) -> np.ndarray:
            u = _hash_unit(addrs + np.int64(salt) * np.int64(40503))
            return np.floor(u * span) + low

        self.add_region(base, size, fn)

    def add_gradient_int_region(
        self,
        base: int,
        size: int,
        low: int,
        high: int,
        element_size: int = 4,
        waves: float = 2.0,
        jitter: float = 0.3,
        salt: int = 0,
    ) -> None:
        """Spatially structured integers in [low, high): a sinusoidal
        gradient across the region plus per-element jitter.

        Real workloads' data-dependent behaviour (loop trip counts,
        frontier membership) is spatially correlated — neighbouring
        threads, and hence whole warps, see similar values while distant
        warps differ.  This is what makes warps *heterogeneous* and the
        representative-warp selection of Sec. III-C meaningful; purely
        i.i.d. per-lane randomness makes every warp statistically
        identical.

        ``waves`` is the number of full sine periods across the region;
        ``jitter`` is the fraction of the range driven by the hash.
        """
        if high <= low:
            raise ValueError("need high > low")
        span = high - low

        def fn(addrs: np.ndarray) -> np.ndarray:
            position = (addrs.astype(np.float64) - base) / (
                element_size * max(size // element_size, 1)
            )
            gradient = 0.5 + 0.5 * np.sin(2.0 * np.pi * waves * position)
            noise = _hash_unit(addrs + np.int64(salt) * np.int64(40503))
            mixed = np.clip(
                (1.0 - jitter) * gradient + jitter * noise, 0.0, 1.0
            )
            return np.minimum(np.floor(mixed * span), span - 1) + low

        self.add_region(base, size, fn)

    def add_constant_region(self, base: int, size: int, value: float) -> None:
        """Region returning a single constant value."""
        self.add_region(base, size, lambda addrs: np.full(addrs.shape, float(value)))

    def add_linear_region(
        self, base: int, size: int, scale: float = 1.0, offset: float = 0.0
    ) -> None:
        """Region returning ``scale * (addr - base) + offset``."""

        def fn(addrs: np.ndarray) -> np.ndarray:
            return scale * (addrs.astype(np.float64) - base) + offset

        self.add_region(base, size, fn)

    # Access -------------------------------------------------------------------

    def read(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorised read of raw byte addresses (int64 array)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        values = _hash_unit(addrs)
        for base, end, fn in self._regions:
            mask = (addrs >= base) & (addrs < end)
            if mask.any():
                values = np.where(mask, fn(addrs), values)
        keys = self._keys
        if len(keys):
            slot = np.minimum(np.searchsorted(keys, addrs), len(keys) - 1)
            hit = keys[slot] == addrs
            values[hit] = self._values[slot[hit]]
        return values

    def write(self, addrs: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
        """Masked store into the overlay (no-op if tracking is disabled)."""
        if not self.track_stores:
            return
        on = np.asarray(mask, dtype=bool).ravel()
        new_keys = np.asarray(addrs, dtype=np.int64).ravel()[on]
        if not len(new_keys):
            return
        new_values = np.asarray(values, dtype=np.float64).ravel()[on]
        # Newest first (this store's lanes last to first, then the
        # overlay), so the first occurrence np.unique keeps is the last
        # write to each address.
        keys, first = np.unique(
            np.concatenate((new_keys[::-1], self._keys)), return_index=True
        )
        self._values = np.concatenate((new_values[::-1], self._values))[first]
        self._keys = keys

    @property
    def n_overlaid(self) -> int:
        """Number of addresses written so far (diagnostics)."""
        return len(self._keys)
