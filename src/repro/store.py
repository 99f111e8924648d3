"""Versioned, checksummed JSON document store.

Every long-lived artifact of the pipeline -- profiling campaigns and
their checkpoints, trained model artifacts, tuning-cache groups -- is a
JSON document on disk.  This module holds each storage decision once;
it imports nothing from the rest of the library but :mod:`repro.errors`,
so any layer can use it.

**Writes.**  :func:`atomic_write_text` writes to a temporary file in the
target's directory and moves it into place with :func:`os.replace`.  A
reader observes either the previous document or the new one, never a
truncated body.

**Documents.**  A document is a JSON object.  Its ``format`` field is
checked by :func:`check_format`: a document from a newer library names
both versions; any other unsupported value is rejected.  Where a
document carries a ``checksum``, it is :func:`checksum` of its payload:
BLAKE2b (16-byte digest, hex) over the canonical JSON encoding (sorted
keys, no whitespace), so key order never changes it and any edited
value does.

**Reads fail closed.**  :func:`read_document` raises the caller's
:class:`~repro.errors.ReproError` subclass -- never a raw ``OSError``,
``JSONDecodeError`` or ``AttributeError`` -- when a file is unreadable,
not valid JSON (for example truncated) or not a JSON object.

**Versioned stores.**  A :class:`VersionedStore` keeps immutable
versions per name, one directory per name::

    <root>/
        select-gbdt-V100-2d/
            v000001.json
            v000002.json
            LATEST          # text file: "v000002"

- Names are letters, digits, ``.``, ``_`` and ``-`` and start with a
  letter or digit, so no name escapes the root.
- Versions count up from ``v000001``; a version file is never
  rewritten, so history stays loadable.
- A publish writes the next version file first and moves the ``LATEST``
  tag second, both atomically, under a per-store lock that gives
  concurrent in-process publishers distinct versions.  A crash between
  the two moves leaves the old tag naming a complete version.
- Resolving ``LATEST`` fails closed on every torn state a reader can
  observe: an unreadable, empty or garbled tag, a tag naming a deleted
  version, or a name with no published version.  A missing tag (a
  hand-pruned store) resolves to the newest version.

:class:`~repro.serve.registry.ModelRegistry` (model artifacts) and
:class:`~repro.profiling.registry.DatasetRegistry` (campaign datasets)
are the two stores; each supplies its error type, its noun for messages
and its typed ``publish``/``load``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from pathlib import Path

from .errors import ReproError

#: Name of the tag file naming a store entry's current version.
LATEST = "LATEST"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v(\d{6})\.json$")


def atomic_write_text(path: "str | Path", text: str) -> None:
    """Write *text* to *path* without ever exposing a partial file.

    The content goes to a temporary file in the same directory (so the
    final rename never crosses a filesystem boundary) and is moved into
    place with :func:`os.replace`, which is atomic on POSIX and Windows.
    An interrupt mid-write leaves either the previous document or nothing
    -- never a truncated JSON body.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def checksum(payload: object) -> str:
    """BLAKE2b hex digest of the canonical JSON encoding of *payload*."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def check_format(
    doc: dict, supported: int, kind: str, error: "type[ReproError]"
) -> None:
    """Validate a document's ``format`` field against *supported*.

    Documents written by a *newer* library version get a distinct,
    actionable message instead of best-effort parsing that would fail in
    some arbitrary field deeper down.
    """
    fmt = doc.get("format")
    if isinstance(fmt, int) and fmt > supported:
        raise error(
            f"{kind} document has format_version {fmt}, newer than the "
            f"supported FORMAT_VERSION {supported}; upgrade the library "
            f"to read it"
        )
    if fmt != supported:
        raise error(f"unsupported {kind} format: {fmt!r}")


def read_document(
    path: "str | Path", error: "type[ReproError]", noun: str
) -> dict:
    """Read the JSON object at *path*, failing closed with *error*."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise error(f"cannot read {noun} {path}: {e}") from None
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise error(
            f"{noun} {path} is not valid JSON ({e}); the file is corrupt "
            f"or truncated"
        ) from None
    if not isinstance(doc, dict):
        raise error(
            f"{noun} document must be an object, got {type(doc).__name__}"
        )
    return doc


class VersionedStore:
    """Immutable ``v%06d.json`` versions per name plus a ``LATEST`` tag.

    Subclasses set :attr:`error` and :attr:`noun` and add their typed
    ``publish``/``load`` on top of :meth:`publish_text` and
    :meth:`read`.
    """

    #: Exception type raised for every failure of this store.
    error: "type[ReproError]" = ReproError
    #: What one entry is called in error messages.
    noun = "document"

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serializes in-process publishes so concurrent publishers never
        # race for the same next version number.  (Cross-process safety
        # comes from the atomic file moves: readers always observe a
        # complete version file and a complete tag.)
        self._publish_lock = threading.Lock()

    def _dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise self.error(
                f"bad {self.noun} name {name!r}: use letters, digits, '.', "
                f"'_', '-' (no path separators)"
            )
        return self.root / name

    @staticmethod
    def _versions_in(d: Path) -> "list[str]":
        found = []
        for p in d.iterdir():
            m = _VERSION_RE.match(p.name)
            if m:
                found.append(f"v{m.group(1)}")
        return sorted(found)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def names(self) -> "list[str]":
        """Names with at least one published version."""
        return [
            p.name
            for p in sorted(self.root.iterdir())
            if p.is_dir() and self._versions_in(p)
        ]

    def versions(self, name: str) -> "list[str]":
        """Published versions of *name*, oldest first (e.g. ``v000001``)."""
        d = self._dir(name)
        if not d.is_dir():
            raise self.error(f"no {self.noun} named {name!r} in {self.root}")
        return self._versions_in(d)

    def latest(self, name: str) -> str:
        """The version the ``LATEST`` tag points at (fails closed)."""
        # Tag before listing: a version file always lands before the tag
        # naming it, so a concurrent publish cannot make the tag look torn.
        try:
            v = (self._dir(name) / LATEST).read_text().strip()
        except FileNotFoundError:
            v = None
        except OSError as e:
            raise self.error(f"{name}: cannot read LATEST tag: {e}") from None
        versions = self.versions(name)
        if v is None:
            if not versions:
                raise self.error(
                    f"{name}: no published versions in {self.root}"
                )
            return versions[-1]
        if v in versions:
            return v
        raise self.error(
            f"{name}: LATEST tag points at {v!r} but published "
            f"versions are {versions} (torn tag, or the version "
            f"file was deleted)"
        )

    def path(self, name: str, version: "str | None" = None) -> Path:
        """Filesystem path of a published document (default latest)."""
        version = version or self.latest(name)
        p = self._dir(name) / f"{version}.json"
        if not p.exists():
            raise self.error(
                f"{name}@{version} not found in {self.root} "
                f"(published: {self.versions(name)})"
            )
        return p

    # ------------------------------------------------------------------
    # publish / read
    # ------------------------------------------------------------------
    def publish_text(self, name: str, text: str) -> str:
        """Write *text* as the next version of *name*; returns it."""
        d = self._dir(name)
        d.mkdir(parents=True, exist_ok=True)
        with self._publish_lock:
            existing = self._versions_in(d)
            next_num = 1 + (int(existing[-1][1:]) if existing else 0)
            version = f"v{next_num:06d}"
            atomic_write_text(d / f"{version}.json", text)
            atomic_write_text(d / LATEST, version + "\n")
        return version

    def read(self, name: str, version: "str | None" = None) -> dict:
        """The JSON object stored as ``name@version`` (fails closed)."""
        return read_document(self.path(name, version), self.error, self.noun)
