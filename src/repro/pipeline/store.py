"""Content-addressed artifact stores backing the staged pipeline.

Keys are ``"<stage>:<hash>"`` strings produced by the pipeline's key
derivation (stage name + fingerprint of exactly the inputs the stage
reads); values are arbitrary picklable stage artifacts (traces, cache
results, interval profiles, oracle stats, predictions).

Three implementations:

``MemoryStore``
    Plain in-process dict — the default.  Hits return the *same object*,
    so e.g. repeated ``Pipeline.trace()`` calls are identity-cached.
``DiskStore``
    One pickle file per artifact under ``<root>/<stage>/<hash>.pkl``,
    written atomically — safe for concurrent writers (parallel sweep
    workers racing on the same key write identical bytes; the ``os.replace``
    is atomic either way) and reusable across processes and sessions.
``TieredStore``
    A read-through/write-through chain (memory in front of disk): gets
    backfill earlier layers, puts propagate to all layers.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Dict, Optional, Sequence


class ArtifactStore:
    """Interface: ``get`` returns the artifact or ``None`` on a miss."""

    def get(self, key: str) -> Optional[Any]:
        raise NotImplementedError

    def put(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


def _split_key(key: str) -> tuple:
    stage, _, digest = key.partition(":")
    if not digest:
        raise ValueError("artifact key must look like '<stage>:<hash>': %r" % key)
    return stage, digest


class MemoryStore(ArtifactStore):
    """In-process artifact store (identity-preserving on hits)."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}

    def get(self, key: str) -> Optional[Any]:
        return self._data.get(key)

    def put(self, key: str, value: Any) -> None:
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        return self._data.keys()


class DiskStore(ArtifactStore):
    """On-disk pickle-per-artifact store rooted at a directory."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        stage, digest = _split_key(key)
        return os.path.join(self.root, stage, digest + ".pkl")

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Unpickling corrupt bytes can raise almost anything
            # (UnpicklingError, EOFError, ValueError, ...); any failure
            # to load is a cache miss, never an error.
            return None

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)  # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self.root):
            count += sum(1 for f in files if f.endswith(".pkl"))
        return count


class TieredStore(ArtifactStore):
    """Read-through chain of stores (first layer is the fastest)."""

    def __init__(self, layers: Sequence[ArtifactStore]) -> None:
        if not layers:
            raise ValueError("TieredStore needs at least one layer")
        self.layers = list(layers)

    def get(self, key: str) -> Optional[Any]:
        for i, layer in enumerate(self.layers):
            value = layer.get(key)
            if value is not None:
                for earlier in self.layers[:i]:  # backfill hot layers
                    earlier.put(key, value)
                return value
        return None

    def put(self, key: str, value: Any) -> None:
        for layer in self.layers:
            layer.put(key, value)


def open_store(cache_dir: Optional[str] = None) -> ArtifactStore:
    """The standard store: memory-only, or memory-fronted disk."""
    if cache_dir is None:
        return MemoryStore()
    return TieredStore([MemoryStore(), DiskStore(cache_dir)])
