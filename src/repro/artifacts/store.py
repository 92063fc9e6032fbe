"""Disk-backed, process-shared artifact store (JSON meta + NPZ arrays).

One artifact is two files under the store root, both committed by
atomic rename (the :mod:`repro.sweep.journal` idiom):

- ``<key>.npz``  — the numeric payload (complex arrays savez'd as-is);
- ``<key>.json`` — the metadata, written *last* as the commit marker.

Readers open the JSON first; a key whose JSON is present but whose NPZ
is missing or unreadable was torn by a dying writer and reads as a
**miss**, never as a wrong answer — the caller falls back to the
ab-initio solve and (optionally) re-stores.  Concurrent writers of the
same key are safe for the same reason: each writes to a private
``*.tmp.<pid>`` pair and renames, so the loser's rename simply
overwrites the winner's files with an equally complete artifact.

Lookups and stores tick ambient :class:`~repro.telemetry.Telemetry`
counters (``artifacts.hit`` / ``artifacts.miss`` /
``artifacts.corrupt`` / ``artifacts.store``) and a local ``stats``
dict, so the hit economics can be read off the store itself.

>>> import numpy as np, tempfile
>>> store = ArtifactStore(tempfile.mkdtemp())
>>> store.put("k1", {"kind": "demo"}, {"x": np.arange(3) + 0j})
>>> meta, arrays = store.get("k1")
>>> meta["kind"], arrays["x"].tolist()
('demo', [0j, (1+0j), (2+0j)])
>>> store.get("nope") is None
True
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..telemetry import current_telemetry

__all__ = ["ArtifactStore", "default_store", "resolve_store"]

#: Environment variable naming the store root for worker processes
#: (the serve workers inherit it).
STORE_ENV = "REPRO_ARTIFACT_STORE"

_FORMAT_VERSION = 1


def collide(points, tol: float = 1e-6) -> bool:
    """Do two of the points lie within ``tol`` (max norm)?

    A solve that reports no failure can still deliver two paths on one
    endpoint (a predictor jump nothing separated); every warm query
    continued from such a set loses a root, so the codecs neither store
    nor serve one.
    """
    from ..tracker.result import greedy_cluster_indices

    return len(greedy_cluster_indices(points, tol)) < len(points)


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ArtifactStore:
    """Structure-keyed artifact cache shared by every process on a host.

    Keys are fingerprint strings (see
    :mod:`repro.artifacts.fingerprints`); values are a JSON-able
    metadata dict plus a mapping of numpy arrays.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = {"hits": 0, "misses": 0, "corrupt": 0, "stores": 0}

    # ------------------------------------------------------------------
    def _meta_path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"bad artifact key {key!r}")
        return self.root / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self):
        """Committed keys (JSON marker present), sorted."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
        """``(meta, arrays)`` for a committed key, else ``None``.

        Any torn, missing or undecodable state — half-written JSON, a
        JSON marker without its NPZ, an NPZ numpy cannot parse — counts
        as a miss (``artifacts.corrupt`` distinguishes it from a clean
        miss); the store never serves a partial artifact.
        """
        tel = current_telemetry()
        meta_path = self._meta_path(key)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if not isinstance(meta, dict) or "kind" not in meta:
                raise ValueError("artifact meta is not a kinded dict")
            with np.load(self._npz_path(key)) as payload:
                arrays = {name: payload[name] for name in payload.files}
        except FileNotFoundError:
            if meta_path.exists():
                # committed marker without payload: a torn write
                self.note_corrupt()
            self.stats["misses"] += 1
            if tel is not None:
                tel.count("artifacts.miss")
            return None
        except (ValueError, OSError, KeyError, json.JSONDecodeError):
            self.note_corrupt()
            self.stats["misses"] += 1
            if tel is not None:
                tel.count("artifacts.miss")
            return None
        self.stats["hits"] += 1
        if tel is not None:
            tel.count("artifacts.hit")
        return meta, arrays

    def note_corrupt(self) -> None:
        """Count an artifact that must not be served: undecodable here,
        or decoded but failing a loader's validation of its content."""
        self.stats["corrupt"] += 1
        tel = current_telemetry()
        if tel is not None:
            tel.count("artifacts.corrupt")

    def put(
        self,
        key: str,
        meta: Mapping,
        arrays: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Commit an artifact atomically (NPZ first, JSON marker last)."""
        meta_path = self._meta_path(key)
        npz_path = self._npz_path(key)
        record = dict(meta)
        record.setdefault("version", _FORMAT_VERSION)
        if "kind" not in record:
            raise ValueError("artifact meta must carry a 'kind'")
        suffix = f".tmp.{os.getpid()}"
        npz_tmp = npz_path.with_name(npz_path.name + suffix)
        meta_tmp = meta_path.with_name(meta_path.name + suffix)
        with open(npz_tmp, "wb") as fh:
            np.savez(fh, **{k: np.asarray(v) for k, v in (arrays or {}).items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(npz_tmp, npz_path)
        with open(meta_tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(meta_tmp, meta_path)
        _fsync_dir(self.root)
        self.stats["stores"] += 1
        tel = current_telemetry()
        if tel is not None:
            tel.count("artifacts.store")

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r}, {len(self.keys())} keys)"


def default_store() -> Optional[ArtifactStore]:
    """The store named by ``$REPRO_ARTIFACT_STORE``, if any."""
    root = os.environ.get(STORE_ENV)
    return ArtifactStore(root) if root else None


def resolve_store(cache) -> Optional[ArtifactStore]:
    """Normalize a user-facing ``cache=`` argument.

    ``None``/``False`` disable caching; ``True`` uses the environment
    default (:func:`default_store`); a path creates/opens a store
    there; an :class:`ArtifactStore` passes through.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_store()
    if isinstance(cache, ArtifactStore):
        return cache
    return ArtifactStore(cache)
