"""Engine-version metadata: the ``meta/engine.json`` stamp.

Every persisted engine tree carries one small CRC-framed blob at the key
``meta/engine.json`` recording which layout *version* wrote it, which
*backend* kind it was written through, and the *shard* count the series
router hashed over.  ``StorageEngine.open`` dispatches on it (the
version-aware open pattern of ontologia's RFC 0009).  There is one
layout: version 2, the key schema every
:class:`~repro.iotdb.backends.BlobStore` addresses.  Version 1 is what
older builds stamped on the byte-identical local directory tree; it stays
readable as an alias and is never rewritten.  Trees written before this
stamp existed carry no meta at all; ``open`` stamps them version 2.

Framing (normative; docs/STORAGE.md §"meta/engine.json"):

.. code-block:: text

    REPROMETA1\\n{crc32:08x}\\n{payload}\\n

— the same three-line checksummed text frame as ``interval-index.json``,
where ``payload`` is a compact sorted-key JSON object
``{"backend": str, "shards": int, "version": int}`` and the CRC-32 covers
exactly the payload bytes.  The stamp is written atomically: bytes stream
to ``meta/engine.json.part`` through the ``meta.write`` fault site, the
``meta.swap`` crash point fires, then one ``rename_atomic`` publishes it.
A crash anywhere leaves the old stamp or a torn ``.part`` — never a
half-written published stamp.

Damage discipline: framing/CRC damage raises
:class:`~repro.errors.MetaCorruptionError` (a crash artifact — the caller
rebuilds the stamp from what its access path proves); a well-framed
payload with unsupported fields (future version, unknown backend string)
raises a precise :class:`~repro.errors.StorageError` and is never
rewritten — refusing is the only safe answer to metadata from a newer
engine.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

from repro.errors import BlobNotFoundError, MetaCorruptionError, StorageError

#: Key of the engine-version stamp in every backend's namespace.
ENGINE_META_KEY = "meta/engine.json"

#: First line of the stamp's frame.
META_MAGIC = "REPROMETA1"

#: The layout version ``StorageEngine.create`` stamps.
LAYOUT_VERSION = 2

#: Layout versions this build can open (the compatibility matrix rows in
#: docs/STORAGE.md); 1 is a read alias of the identical bytes.
SUPPORTED_VERSIONS = (1, 2)


@dataclass(frozen=True)
class EngineMeta:
    """One engine tree's identity: layout version, backend kind, shards."""

    version: int
    backend: str
    shards: int

    def payload(self) -> str:
        return json.dumps(
            {"backend": self.backend, "shards": self.shards, "version": self.version},
            sort_keys=True,
            separators=(",", ":"),
        )


def encode_meta(meta: EngineMeta) -> bytes:
    """The stamp's full framed bytes (magic, CRC line, payload line)."""
    payload = meta.payload()
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{META_MAGIC}\n{crc:08x}\n{payload}\n".encode("utf-8")


def decode_meta(blob: bytes, source: str = ENGINE_META_KEY) -> EngineMeta:
    """Parse a stamp.

    Framing or checksum damage raises :class:`MetaCorruptionError`
    (rebuildable crash artifact); a well-framed payload whose fields are
    malformed or unsupported raises :class:`StorageError` with a precise
    message (refuse, never misread).
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MetaCorruptionError(f"undecodable engine meta in {source}: {exc}") from exc
    parts = text.split("\n", 2)
    if len(parts) != 3 or parts[0] != META_MAGIC:
        raise MetaCorruptionError(f"bad engine-meta magic in {source}")
    crc_line, payload = parts[1], parts[2]
    if not payload.endswith("\n"):
        raise MetaCorruptionError(f"truncated engine-meta payload in {source}")
    payload = payload[:-1]
    try:
        expected = int(crc_line, 16)
    except ValueError as exc:
        raise MetaCorruptionError(f"bad engine-meta checksum line in {source}") from exc
    actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise MetaCorruptionError(
            f"engine-meta checksum mismatch in {source}: "
            f"stored {expected:08x}, computed {actual:08x}"
        )
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        # CRC-valid but not JSON cannot come from a crash mid-write (the
        # CRC covers the payload); treat it as corruption all the same —
        # there is nothing here safe to believe.
        raise MetaCorruptionError(f"bad engine-meta payload in {source}: {exc}") from exc
    if not isinstance(obj, dict):
        raise StorageError(f"engine meta in {source} is not an object: {obj!r}")
    version = obj.get("version")
    backend = obj.get("backend")
    shards = obj.get("shards")
    if not isinstance(version, int) or isinstance(version, bool):
        raise StorageError(
            f"engine meta in {source} carries a malformed version field "
            f"{version!r}; refusing to guess the on-disk layout"
        )
    if not isinstance(backend, str) or not backend:
        raise StorageError(
            f"engine meta in {source} carries a malformed backend field {backend!r}"
        )
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise StorageError(
            f"engine meta in {source} carries a malformed shards field {shards!r}"
        )
    return EngineMeta(version=version, backend=backend, shards=shards)


def write_meta(store, meta: EngineMeta, *, faults=None) -> None:
    """Atomically stamp ``meta`` into ``store`` at :data:`ENGINE_META_KEY`.

    Bytes stream to ``<key>.part`` through the injector's ``meta.write``
    site (torn writes simulatable), the ``meta.swap`` crash point fires,
    then one ``rename_atomic`` publishes the stamp.
    """
    from repro.faults.injector import NOOP_INJECTOR

    injector = faults if faults is not None else NOOP_INJECTOR
    part_key = ENGINE_META_KEY + ".part"
    handle = injector.wrap_file(store.open_write(part_key), site="meta.write")
    try:
        handle.write(encode_meta(meta))
        handle.flush()
    finally:
        try:
            handle.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    injector.crash_point("meta.swap", key=ENGINE_META_KEY)
    store.rename_atomic(part_key, ENGINE_META_KEY)


def read_meta(store) -> EngineMeta | None:
    """The stamp in ``store``, ``None`` when absent (an unversioned tree).

    Raises :class:`MetaCorruptionError` / :class:`StorageError` per
    :func:`decode_meta`'s damage discipline.
    """
    try:
        blob = store.get(ENGINE_META_KEY)
    except BlobNotFoundError:
        return None
    return decode_meta(blob)


def check_supported_version(version: int) -> None:
    """Refuse versions this build cannot open, with a precise error."""
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise StorageError(
            f"on-disk engine version {version} is not supported by this build "
            f"(supported: {supported}); upgrade the library to open this tree"
        )
