"""Differential parity across persistence backends.

The pluggable backend must change nothing: the same workload driven over a
``data_dir`` (``LocalDirStore``) and over a ``MemoryStore`` must produce
identical query results, identical persisted bytes (below ``meta/``), and
identical post-crash recoveries.  The local tree is additionally pinned to
the bytes older builds wrote as layout version 1, which is what makes
version 1 a pure read alias of version 2.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.iotdb import IoTDBConfig, MemoryStore, StorageEngine
from tests.conftest import make_delayed_stream

BACKENDS = ("local", "memory")

#: SHA-256 over (path, bytes) of the local tree ``_drive`` leaves behind
#: (``meta/`` excluded), as written by the last build that still created
#: separate version-1 trees.
V1_TREE_SHA256 = "b0cc2c44ee6e5f2ad76ac216812d9c7f2e0c3b3496cf979e373d6294b8535627"

#: The ``meta/engine.json`` stamp that build wrote for the same tree.
V1_STAMP = b'REPROMETA1\n0f08d817\n{"backend":"local","shards":2,"version":1}\n'


def _config(data_dir, **kw):
    defaults = dict(
        data_dir=data_dir,
        wal_enabled=True,
        memtable_flush_threshold=120,
        shards=2,
    )
    defaults.update(kw)
    return IoTDBConfig(**defaults)


def _build(backend, tmp_path, **kw):
    """(engine, store, data_dir) for one backend."""
    if backend == "memory":
        store = MemoryStore()
        engine = StorageEngine.create(_config(None, **kw), backend=store)
        return engine, store, None
    data_dir = tmp_path / backend / "data"
    engine = StorageEngine.create(_config(data_dir, **kw))
    return engine, engine.store, data_dir


def _reopen(backend, store, data_dir):
    if backend == "memory":
        return StorageEngine.open(_config(None), backend=store)
    return StorageEngine.open(_config(data_dir))


def _drive(engine, n=500, seed=3):
    stream = make_delayed_stream(n, lam=0.4, seed=seed)
    for i, (t, v) in enumerate(zip(stream.timestamps, stream.values)):
        device = f"d{i % 3}"
        engine.write(device, "s", t, v)
    return max(stream.timestamps) + 1


def _query_state(engine, horizon):
    return {
        device: engine.query(device, "s", 0, horizon)
        for device in ("d0", "d1", "d2")
    }


def _tree_bytes(data_dir: Path) -> dict[str, bytes]:
    """Relative path → bytes of every file below data_dir, meta/ excluded."""
    return {
        p.relative_to(data_dir).as_posix(): p.read_bytes()
        for p in sorted(data_dir.rglob("*"))
        if p.is_file() and not p.relative_to(data_dir).as_posix().startswith("meta/")
    }


def _store_bytes(store) -> dict[str, bytes]:
    return {
        key: store.get(key)
        for key in store.list("")
        if not key.startswith("meta/")
    }


class TestQueryParity:
    def test_identical_results_across_backends(self, tmp_path):
        results = {}
        for backend in BACKENDS:
            engine, _, _ = _build(backend, tmp_path)
            horizon = _drive(engine)
            engine.drain_flushes()
            results[backend] = {
                device: (r.timestamps, r.values)
                for device, r in _query_state(engine, horizon).items()
            }
            engine.close()
        assert results["memory"] == results["local"]

    def test_identical_aggregates_across_backends(self, tmp_path):
        aggregates = {}
        for backend in BACKENDS:
            engine, _, _ = _build(backend, tmp_path)
            horizon = _drive(engine)
            aggregates[backend] = engine.aggregate("d0", "s", 0, horizon)
            engine.close()
        assert aggregates["memory"] == aggregates["local"]


class TestByteParity:
    def test_v2_local_tree_is_byte_identical_to_v1(self, tmp_path):
        engine, _, data_dir = _build("local", tmp_path)
        _drive(engine)
        engine.close()
        digest = hashlib.sha256()
        for rel, blob in sorted(_tree_bytes(data_dir).items()):
            digest.update(rel.encode() + b"\0" + blob + b"\0")
        assert digest.hexdigest() == V1_TREE_SHA256

    def test_v2_memory_blobs_match_v2_local_files(self, tmp_path):
        engine, _, data_dir = _build("local", tmp_path)
        _drive(engine)
        engine.close()
        local_tree = _tree_bytes(data_dir)

        engine, store, _ = _build("memory", tmp_path)
        _drive(engine)
        engine.close()
        memory_tree = _store_bytes(store)

        assert memory_tree.keys() == local_tree.keys()
        assert memory_tree == local_tree

    def test_meta_stamps_differ_only_in_version(self, tmp_path):
        from repro.iotdb import EngineMeta, LocalDirStore, read_meta
        from repro.iotdb.meta import decode_meta

        engine, _, data_dir = _build("local", tmp_path)
        engine.close()
        stamp = LocalDirStore(data_dir).get("meta/engine.json")
        assert read_meta(LocalDirStore(data_dir)) == EngineMeta(
            version=2, backend="local", shards=2
        )
        # Same length as the version-1 stamp, so stored bytes per point
        # cannot move; the two decode to the same tree identity.
        assert len(stamp) == len(V1_STAMP)
        old = decode_meta(V1_STAMP)
        assert (old.version, old.backend, old.shards) == (1, "local", 2)


class TestCrashReopenParity:
    def test_abrupt_reopen_recovers_identically(self, tmp_path):
        recovered = {}
        for backend in BACKENDS:
            engine, store, data_dir = _build(backend, tmp_path)
            horizon = _drive(engine)
            # Abandon without close: sealed files + WAL tails must carry
            # the full state through StorageEngine.open on every backend.
            del engine
            reborn = _reopen(backend, store, data_dir)
            recovered[backend] = {
                device: (r.timestamps, r.values)
                for device, r in _query_state(reborn, horizon).items()
            }
            reborn.close()
        assert recovered["memory"] == recovered["local"]

    def test_recovered_points_are_complete(self, tmp_path):
        engine, store, _ = _build("memory", tmp_path)
        n = 500
        stream = make_delayed_stream(n, lam=0.4, seed=3)
        written = {}
        for i, (t, v) in enumerate(zip(stream.timestamps, stream.values)):
            device = f"d{i % 3}"
            engine.write(device, "s", t, v)
            written.setdefault(device, {})[t] = v
        horizon = max(stream.timestamps) + 1
        del engine
        reborn = _reopen("memory", store, None)
        for device, expected in written.items():
            result = reborn.query(device, "s", 0, horizon)
            assert dict(zip(result.timestamps, result.values)) == expected
        reborn.close()
