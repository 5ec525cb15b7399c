"""Content-addressed on-disk result cache for simulation cells.

Every cell result is stored under a key that is a pure function of *what
was simulated*: the SHA-256 of the cell's canonical spec (scenario kind,
scheduler, rate, seed, workload, resolved :class:`SchedulerConfig`, …)
salted with the installed ``repro`` version.  Consequences:

* re-running an unchanged figure is a pure cache hit — no simulation;
* changing **one** parameter (a seed, a scale, a scheduler knob)
  re-keys only the affected cells, so a sweep re-simulates exactly the
  dirty part of its grid;
* upgrading ``repro`` invalidates everything at once — a deliberate,
  coarse guard against stale results from changed simulation code.

Entries live in ``.repro-cache/`` (override with ``REPRO_CACHE_DIR`` or
the ``--cache-dir`` CLI/pytest options), fanned out over two-hex-char
subdirectories.  Each entry is a pickle of the result dataclass plus a
small JSON sidecar with the originating spec — the sidecar makes cache
content reviewable (``python -m json.tool``) and is what the CI
artifact's stats summarise.  Writes go through a temp file + ``fsync`` +
``os.replace`` so concurrent writers can never expose a torn entry.

Integrity
---------
The sidecar records the SHA-256 of the pickled payload, and every read
re-hashes the payload against it.  An entry whose checksum (or sidecar)
is wrong — bit rot, a torn write from a killed process, tampering — is
**quarantined**: moved to ``<root>/quarantine/`` for post-mortem, counted
in :meth:`stats`, and served as a miss so the cell simply re-executes.
The sidecar is written *before* the payload, so a payload that exists
without a sidecar is itself evidence of corruption, never a benign race.
:meth:`verify` scans the whole store explicitly and can raise
:class:`~repro.errors.CacheIntegrityError` for CI gating.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import __version__
from repro.errors import CacheIntegrityError
from repro.parallel.cells import CellSpec

__all__ = ["DEFAULT_CACHE_DIR", "CacheIntegrityWarning", "ResultCache",
           "default_salt"]

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every cached result on a format change.
#: 4: integrity sidecars (sha256 checksum verified on every read).
CACHE_SCHEMA = 4

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class CacheIntegrityWarning(UserWarning):
    """A corrupt cache entry was found (and quarantined when possible)."""


def default_salt() -> str:
    """Code-version salt mixed into every cache key."""
    return f"repro-{__version__}/schema-{CACHE_SCHEMA}"


class ResultCache:
    """Content-addressed store mapping cell specs to pickled results."""

    def __init__(self, root: Optional[object] = None,
                 salt: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(_CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.salt = salt if salt is not None else default_salt()
        #: Per-process traffic counters (reset with the process, not the
        #: directory) — what the CLI's one-line summary and the CI stats
        #: artifact report.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries detected (and, when possible, moved aside).
        self.quarantined = 0

    # -- keys and paths ------------------------------------------------- #
    def key_for(self, spec: CellSpec) -> str:
        return spec.cache_key(self.salt)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _sidecar_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    # -- traffic -------------------------------------------------------- #
    def get(self, spec: CellSpec) -> Tuple[bool, object]:
        """Look a spec up.  Returns ``(hit, value)``; value is ``None``
        on a miss.  A corrupt, truncated or checksum-failing entry is
        quarantined and reads as a miss."""
        key = self.key_for(spec)
        try:
            payload = self._entry_path(key).read_bytes()
        except OSError:
            self.misses += 1
            return False, None
        if not self._checksum_ok(key, payload):
            self._quarantine(key, "payload checksum mismatch")
            self.misses += 1
            return False, None
        try:
            value: object = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # Checksum matched but the pickle does not load: an entry
            # from an incompatible code revision that slipped past the
            # salt.  Quarantine it for post-mortem; it will be rewritten.
            self._quarantine(key, "payload unpickling failed")
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, spec: CellSpec, value: object) -> str:
        """Store a result; returns the entry key.  Atomic via rename.

        The sidecar (spec + payload checksum) lands *before* the payload
        so readers never see a payload they cannot verify.
        """
        key = self.key_for(spec)
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        sidecar = {"salt": self.salt, "spec": json.loads(spec.canonical()),
                   "result_type": type(value).__name__,
                   "sha256": hashlib.sha256(payload).hexdigest(),
                   "payload_bytes": len(payload)}
        self._write_atomic(self._sidecar_path(key),
                           (json.dumps(sidecar, sort_keys=True, indent=1)
                            + "\n").encode("utf-8"))
        self._write_atomic(entry, payload)
        self.stores += 1
        return key

    def _checksum_ok(self, key: str, payload: bytes) -> bool:
        """Does the sidecar's recorded SHA-256 match the payload?"""
        try:
            doc = json.loads(self._sidecar_path(key).read_text(
                encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return False
        if not isinstance(doc, dict):
            return False
        return doc.get("sha256") == hashlib.sha256(payload).hexdigest()

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt entry (payload + sidecar) aside for post-mortem.

        If the quarantine directory cannot be created or written
        (read-only media, a file squatting on the path), the entry is
        left in place and the read degrades to a plain miss — a loud
        warning either way, silent-corruption never.
        """
        self.quarantined += 1
        target = "left in place (quarantine dir unwritable)"
        with contextlib.suppress(OSError):
            qdir = self._quarantine_root()
            qdir.mkdir(parents=True, exist_ok=True)
            for path in (self._entry_path(key), self._sidecar_path(key)):
                if path.exists():
                    os.replace(path, qdir / path.name)
            target = f"moved to {qdir}"
        warnings.warn(
            f"corrupt cache entry {key[:16]}… ({reason}); {target}; "
            f"the cell will re-execute", CacheIntegrityWarning,
            stacklevel=3)

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                # Durability before visibility: the rename must never
                # land a payload the kernel has not yet committed, or a
                # crash can expose a torn-but-renamed entry.
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            # Any failure — not just OSError: a write error, an
            # interrupt mid-write — must not leave the temp file behind.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- maintenance ---------------------------------------------------- #
    def _scan(self) -> Iterator[Tuple[os.DirEntry, bool]]:
        """Every file in the directories directly under the root (the
        fan-out directories, ``quarantine/``, ``journal/``), each with
        whether it sits in quarantine — one :func:`os.scandir` pass
        shared by :meth:`stats`, :meth:`verify` and :meth:`clear`."""
        try:
            tops = list(os.scandir(self.root))
        except OSError:
            return  # no store yet
        for top in tops:
            if not top.is_dir():
                continue
            quarantined = top.name == QUARANTINE_DIR
            with contextlib.suppress(OSError), os.scandir(top.path) as it:
                for entry in it:
                    yield entry, quarantined

    def clear(self) -> int:
        """Delete every entry (quarantined ones included) and sweep any
        stale ``*.tmp`` files left by writers that died mid-write;
        returns the number of entries removed."""
        removed = 0
        for entry, _quarantined in list(self._scan()):
            if entry.name.endswith(".pkl"):
                os.unlink(entry.path)
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(entry.path[:-len(".pkl")] + ".json")
                removed += 1
            elif entry.name.endswith(".tmp"):
                with contextlib.suppress(OSError):
                    os.unlink(entry.path)
        return removed

    def verify(self, strict: bool = False) -> Dict[str, object]:
        """Re-hash every entry against its sidecar checksum.

        Returns ``{"checked": n, "corrupt": [keys...]}`` without touching
        the store (no quarantining — this is the read-only audit).  With
        ``strict=True`` a non-empty corrupt list raises
        :class:`~repro.errors.CacheIntegrityError` instead (the CI
        gate's form).
        """
        entries = sorted((entry for entry, quarantined in self._scan()
                          if not quarantined
                          and entry.name.endswith(".pkl")),
                         key=lambda entry: entry.name)
        corrupt: List[str] = []
        for entry in entries:
            key = entry.name[:-len(".pkl")]
            try:
                payload = Path(entry.path).read_bytes()
            except OSError:
                corrupt.append(key)
                continue
            if not self._checksum_ok(key, payload):
                corrupt.append(key)
        if strict and corrupt:
            raise CacheIntegrityError(
                f"{len(corrupt)} corrupt cache entr"
                f"{'y' if len(corrupt) == 1 else 'ies'} under {self.root}: "
                + ", ".join(k[:16] + "…" for k in corrupt[:5])
                + ("" if len(corrupt) <= 5 else ", …"))
        return {"checked": len(entries), "corrupt": corrupt}

    def stats(self) -> Dict[str, object]:
        """On-disk + in-process statistics (the CI artifact payload)."""
        entries = 0
        size = 0
        quarantine_entries = 0
        for entry, quarantined in self._scan():
            if not entry.name.endswith(".pkl"):
                continue
            if quarantined:
                quarantine_entries += 1
            else:
                entries += 1
                size += entry.stat().st_size
        return {
            "root": str(self.root),
            "salt": self.salt,
            "entries": entries,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "quarantine_entries": quarantine_entries,
        }

    def write_stats(self, path: object) -> Path:
        """Dump :meth:`stats` as JSON (uploaded as a CI artifact)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.stats(), sort_keys=True, indent=1)
                       + "\n")
        return out

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        s = self.stats()
        text = (f"cache {s['root']}: {s['hits']} hit(s), "
                f"{s['misses']} miss(es), {s['stores']} store(s), "
                f"{s['entries']} entr{'y' if s['entries'] == 1 else 'ies'} "
                f"on disk")
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text
