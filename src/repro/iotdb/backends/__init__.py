"""Pluggable blob-store backends: the one path the storage engine persists through.

Every persistence call site in the engine — sealed TsFiles, WAL segments,
interval indexes, ``meta/engine.json`` — addresses bytes through the
:class:`BlobStore` interface.  :class:`LocalDirStore` maps keys 1:1 onto a
local directory (byte-identical to the historical local tree);
:class:`MemoryStore` is an S3-like in-memory table — the private store of
every engine created without a ``data_dir``, and the ``memory`` crash
sweep's.  See docs/STORAGE.md for the
normative on-disk format and the per-method atomicity contract.
"""

from repro.iotdb.backends.base import BlobNotFoundError, BlobStore, validate_key
from repro.iotdb.backends.local import LocalDirStore
from repro.iotdb.backends.memory import MemoryStore

__all__ = [
    "BlobNotFoundError",
    "BlobStore",
    "LocalDirStore",
    "MemoryStore",
    "validate_key",
]
