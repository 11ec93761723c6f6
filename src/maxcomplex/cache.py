"""On-disk cache for search certificates.

Every entry is one file named by its kind and parameters.  The file's
header holds a content hash of (package version, kind, parameters) and a
hash of the body, so that stale or corrupted entries are detected, reported
and regenerated in place.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from . import __version__

ENV_VAR = "MAXCOMPLEX_CACHE"
DEFAULT_DIR = ".maxcomplex-cache"
_HEADER = "maxcomplex-cache"


def content_hash(kind: str, params: str) -> str:
    return _digest(f"{__version__}|{kind}|{params}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class DiskCache:
    """Entries under $MAXCOMPLEX_CACHE, else ./.maxcomplex-cache.  `event` is the
    outcome of the last `load`: hit, miss, stale (the header names another
    content hash) or corrupt (the body's hash is wrong, or the file is
    unreadable or not UTF-8)."""

    def __init__(self):
        self.root = Path(os.environ.get(ENV_VAR) or DEFAULT_DIR)
        self.event: str | None = None

    def _path(self, kind: str, params: str) -> Path:
        """One file per (kind, params): an entry of another version is found,
        reported stale and overwritten in place by the next store."""
        return self.root / f"{kind}-{params}.txt"

    def load(self, kind: str, params: str) -> str | None:
        """The stored body, or None to force regeneration."""
        key = content_hash(kind, params)
        try:
            text = self._path(kind, params).read_text()
        except FileNotFoundError:
            self.event = "miss"
            return None
        except (OSError, UnicodeDecodeError):
            self.event = "corrupt"
            return None
        header, _, body = text.partition("\n")
        fields = header.split()
        if fields == [_HEADER, key, _digest(body)]:
            self.event = "hit"
            return body
        stale = fields[:1] == [_HEADER] and len(fields) > 1 and fields[1] != key
        self.event = "stale" if stale else "corrupt"
        return None

    def store(self, kind: str, params: str, body: str) -> Path:
        path = self._path(kind, params)
        self.root.mkdir(parents=True, exist_ok=True)
        path.write_text(f"{_HEADER} {content_hash(kind, params)} {_digest(body)}\n{body}")
        return path
