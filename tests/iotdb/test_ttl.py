"""TTL: event-time expiry at query, aggregation, and flush."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.iotdb import IoTDBConfig, StorageEngine
from repro.obs import metrics_only
from repro.obs.clock import Clock


def _engine(ttl, threshold=10_000, **kw):
    return StorageEngine.create(
        IoTDBConfig(ttl=ttl, memtable_flush_threshold=threshold, **kw)
    )


class TestTTLQueries:
    def test_expired_points_invisible(self):
        engine = _engine(ttl=10)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        result = engine.query("d", "s", 0, 100)
        # latest=99, ttl=10 -> live window [90, 99].
        assert result.timestamps == list(range(90, 100))

    def test_window_fully_expired(self):
        engine = _engine(ttl=10)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        result = engine.query("d", "s", 0, 50)
        assert len(result) == 0

    def test_ttl_moves_with_latest_event(self):
        engine = _engine(ttl=10)
        engine.write("d", "s", 0, 0.0)
        assert len(engine.query("d", "s", 0, 100)) == 1
        engine.write("d", "s", 50, 1.0)  # pushes the live window forward
        result = engine.query("d", "s", 0, 100)
        assert result.timestamps == [50]

    def test_no_ttl_keeps_everything(self):
        engine = _engine(ttl=None)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        assert len(engine.query("d", "s", 0, 100)) == 100

    def test_aggregate_respects_ttl(self):
        engine = _engine(ttl=10)
        for t in range(100):
            engine.write("d", "s", t, 1.0)
        agg = engine.aggregate("d", "s", 0, 100)
        assert agg.count == 10
        agg = engine.aggregate("d", "s", 0, 50)
        assert agg.count == 0

    def test_aggregate_fast_path_respects_ttl(self):
        engine = _engine(ttl=50, threshold=100, page_size=10)
        for t in range(100):
            engine.write("d", "s", t, 1.0)  # fully flushed
        agg = engine.aggregate("d", "s", 0, 100)
        assert agg.count == 50  # live window [50, 99]

    def test_ttl_validation(self):
        with pytest.raises(InvalidParameterError):
            IoTDBConfig(ttl=0)


class TestTTLFlush:
    def test_expired_points_dropped_at_flush(self):
        engine = _engine(ttl=20, threshold=100)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        report = engine.flush_reports[0]
        chunk = report.chunks[0]
        assert chunk.expired_points == 80
        assert chunk.deduped_points == 20
        result = engine.query("d", "s", 0, 100)
        assert result.timestamps == list(range(80, 100))

    def test_flush_without_ttl_drops_nothing(self):
        engine = _engine(ttl=None, threshold=100)
        for t in range(100):
            engine.write("d", "s", t, float(t))
        assert engine.flush_reports[0].chunks[0].expired_points == 0


class _CountingLock:
    """Wraps a shard lock; counts outermost acquisitions (lock holds)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._depth = 0
        self.holds = 0

    def acquire(self, *args, **kwargs):
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._depth += 1
            if self._depth == 1:
                self.holds += 1
        return acquired

    def release(self) -> None:
        self._depth -= 1
        self._inner.release()

    __enter__ = acquire

    def __exit__(self, *exc_info) -> None:
        self.release()


class TestTTLFloorLocking:
    """The TTL floor is read in the same shard-lock hold as the data it
    bounds, so a write landing in between cannot move it."""

    @pytest.mark.parametrize(
        "start, end, flushed",
        [
            (0, 100, False),  # floor clips the range; raw scan
            (0, 100, True),  # floor clips the range; statistics fast path
            (0, 50, False),  # floor past the range: empty answer
        ],
    )
    def test_aggregate_takes_the_shard_lock_once(self, start, end, flushed):
        engine = _engine(ttl=10, threshold=10_000)
        for t in range(100):
            engine.write("d", "s", t, 1.0)
        if flushed:
            engine.flush_all()
        shard = engine.shard_for("d")
        counting = _CountingLock(shard._lock)
        shard._lock = counting
        engine.aggregate("d", "s", start, end)
        assert counting.holds == 1

    def test_query_takes_the_shard_lock_once(self):
        engine = _engine(ttl=10)
        for t in range(100):
            engine.write("d", "s", t, 1.0)
        shard = engine.shard_for("d")
        counting = _CountingLock(shard._lock)
        shard._lock = counting
        assert engine.query("d", "s", 0, 100).timestamps == list(range(90, 100))
        assert counting.holds == 1


class _TickingClock(Clock):
    """Advances one second on every read: no timed region can read 0.0."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        self._now += 1.0
        return self._now


class TestQuerySecondsAccounting:
    """Every query/aggregate call adds exactly one non-zero observation to
    ``engine_query_seconds``, whichever path answers it."""

    def _engine(self, monkeypatch, ttl, flushed):
        engine = StorageEngine.create(
            IoTDBConfig(ttl=ttl, memtable_flush_threshold=10_000),
            obs=metrics_only(clock=_TickingClock()),
        )
        for t in range(100):
            engine.write("d", "s", t, 1.0)
        if flushed:
            engine.flush_all()
        observed = []
        histogram = engine._instruments.query_seconds
        original = histogram.observe

        def record(value):
            observed.append(value)
            original(value)

        monkeypatch.setattr(histogram, "observe", record)
        return engine, observed

    @pytest.mark.parametrize(
        "op, ttl, flushed, start, end",
        [
            ("query", None, False, 0, 100),  # executor path
            ("query", 10, False, 0, 50),  # TTL-empty early return
            ("aggregate", None, True, 0, 100),  # statistics fast path
            ("aggregate", None, False, 0, 100),  # raw scan via query()
            ("aggregate", 10, False, 0, 50),  # TTL-empty early return
        ],
    )
    def test_one_nonzero_observation_per_call(
        self, monkeypatch, op, ttl, flushed, start, end
    ):
        engine, observed = self._engine(monkeypatch, ttl, flushed)
        getattr(engine, op)("d", "s", start, end)
        assert len(observed) == 1
        assert observed[0] > 0.0

    def test_fast_path_is_the_one_exercised(self, monkeypatch):
        import repro.iotdb.shard as shard_module

        engine, observed = self._engine(monkeypatch, None, True)
        calls = []
        original = shard_module.combine_aggregates

        def spy(partials):
            calls.append(len(partials))
            return original(partials)

        monkeypatch.setattr(shard_module, "combine_aggregates", spy)
        assert engine.aggregate("d", "s", 0, 100).count == 100
        assert calls and len(observed) == 1 and observed[0] > 0.0
