"""Content-addressed result store for farm points.

Layout (everything JSON, everything atomic-rename written)::

    <root>/objects/<key[:2]>/<key>.json   one record per cached point
    <root>/last-run.json                  summary + metrics of the last run

A record stores the point's identity next to its row so the cache can
be audited by hand (``python -m json.tool``) and so a key collision —
practically impossible, but cheap to guard — is detected on read.
Corrupt or unreadable records behave as misses, never as errors: the
worst outcome of a damaged cache is recomputation.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["DEFAULT_STORE", "ResultStore"]

#: Default on-disk location (repo-local, gitignored); override with
#: ``REPRO_FARM_STORE`` or ``--store``.
DEFAULT_STORE = ".farm-store"


def default_store_path() -> Path:
    return Path(os.environ.get("REPRO_FARM_STORE", DEFAULT_STORE))


class ResultStore:
    """Keyed JSON blobs on disk; keys come from :func:`fingerprint.result_key`."""

    LAST_RUN = "last-run.json"

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_store_path()

    # -- point records -------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The record stored under ``key``, or None (missing/corrupt)."""
        path = self._object_path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "row" not in record:
            return None
        if record.get("key") not in (None, key):
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Atomically write ``record`` under ``key`` (overwrites)."""
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_json(path, {**record, "key": key})

    def count(self) -> int:
        """Number of cached point records."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))

    def records(self):
        """Iterate every readable cached record (corrupt ones skipped).

        Order is by key (the shard layout's natural order) — callers
        wanting a human ordering sort on record fields themselves.
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            record = self.get(path.stem)
            if record is not None:
                yield record

    def clear(self) -> int:
        """Delete every cached point record; returns how many were removed."""
        objects = self.root / "objects"
        removed = 0
        if objects.is_dir():
            for path in objects.glob("*/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- run summary ---------------------------------------------------------

    def save_last_run(self, summary: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_json(self.root / self.LAST_RUN, summary)

    def load_last_run(self) -> Optional[dict]:
        try:
            with open(self.root / self.LAST_RUN) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # No sort_keys: a cached row must round-trip with its key
                # order intact so replayed tables are byte-identical to the
                # sequential path (dict order is deterministic anyway).
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:
        return f"<ResultStore {self.root} objects={self.count()}>"
