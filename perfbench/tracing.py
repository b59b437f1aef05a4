"""Per-layer tracing installed from outside the program.

:class:`Tracer` wraps the public functions of each ``repro.iotdb`` /
``repro.core`` layer at class or module level, records a span for every
call (name, start, end, parent, operation id), and folds self time — a
span's duration minus the time its children cover — into a per-layer
table.  The engine is single-threaded in the benchmark's configuration
(``flush_workers=0``), so one span stack suffices and children never
overlap.  Spans stay in memory until :meth:`Tracer.write_spans`.

Blob-store handles returned by ``open_write``/``open_read`` are wrapped in
:class:`_TracedHandle`, which times ``write``/``read``/``flush`` and counts
bytes at the backends boundary, classified by key (WAL segment, TsFile,
other) and by the operation that caused them.

If a target no longer exists, :meth:`Tracer.install` raises
:class:`MissingTarget` naming it before anything is patched.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

BACKEND_OPS = (
    "put", "get", "delete", "exists", "list", "rename_atomic",
    "open_write", "open_read", "ensure_prefix",
)
#: Calls on the handles ``open_write``/``open_read`` return.
HANDLE_OPS = ("write", "read", "flush")


class MissingTarget(RuntimeError):
    """A function the tracer must wrap does not exist any more."""


def _timed_sort_name(args, kwargs) -> str:
    return "core.sort." + kwargs.get("site", "direct")


def _targets() -> list[tuple]:
    """``(module[:Class], attribute, layer or namer[, post])`` to wrap;
    ``post(tracer, args, kwargs, result)`` reads counts off a call."""
    t = [
        ("repro.iotdb.engine:StorageEngine", "write_batch", "engine.facade"),
        ("repro.iotdb.engine:StorageEngine", "query", "engine.facade"),
        ("repro.iotdb.engine:StorageEngine", "aggregate", "engine.facade"),
        ("repro.iotdb.engine:StorageEngine", "compact", "engine.facade"),
        ("repro.iotdb.engine:StorageEngine", "open", "engine.open"),
        ("repro.iotdb.engine", "read_meta", "meta.read"),
        ("repro.iotdb.engine", "write_meta", "meta.write"),
        ("repro.iotdb.shard:StorageShard", "write_batch", "shard.write_batch"),
        ("repro.iotdb.shard:StorageShard", "query", "shard.query"),
        ("repro.iotdb.shard:StorageShard", "aggregate", "shard.aggregate"),
        ("repro.iotdb.shard:StorageShard", "recover", "shard.recover"),
        ("repro.iotdb.shard", "flush_memtable", "flush.memtable"),
        ("repro.iotdb.shard", "combine_aggregates", "aggregation", _post_combine),
        ("repro.iotdb.wal:SegmentedWal", "append_batch", "wal.append", _post_append),
        ("repro.iotdb.wal:SegmentedWal", "replay", "wal.replay"),
        ("repro.iotdb.memtable:MemTable", "write_batch", "memtable.write"),
        ("repro.core.sorter:Sorter", "timed_sort", _timed_sort_name, _post_sort),
        ("repro.iotdb.tvlist:TVList", "sort_in_place", "tvlist.sort"),
        ("repro.iotdb.tvlist:TVList", "get_sorted_arrays", "tvlist.sort"),
        ("repro.iotdb.tsfile:TsFileWriter", "write_chunk", "tsfile.write"),
        ("repro.iotdb.tsfile:TsFileWriter", "close", "tsfile.write"),
        ("repro.iotdb.tsfile:TsFileReader", "__init__", "tsfile.open"),
        ("repro.iotdb.tsfile:TsFileReader", "query_range", "tsfile.read"),
        ("repro.iotdb.tsfile:TsFileReader", "read_chunk", "tsfile.read"),
        ("repro.iotdb.query:TimeRangeQueryExecutor", "execute", "query.execute", _post_execute),
        ("repro.iotdb.interval_index:IntervalIndex", "candidates", "interval_index.candidates"),
        ("repro.iotdb.interval_index:IntervalIndex", "save_to", "interval_index.save"),
        ("repro.iotdb.aggregation", "aggregate_sealed_chunk", "aggregation"),
        ("repro.iotdb.aggregation", "aggregate_from_points", "aggregation"),
        ("repro.iotdb.compaction", "compact", "compaction", _post_compact),
    ]
    t += [
        ("repro.iotdb.backends.local:LocalDirStore", op, f"backends.{op}", _post_backend(op))
        for op in BACKEND_OPS
    ]
    return t


def _encoder_targets() -> list[tuple]:
    """Every concrete encoder's ``encode``/``decode``."""
    from repro.iotdb.encoding import Encoder

    out = []
    pending = list(Encoder.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("encode", "decode"):
            if attr in cls.__dict__:
                post = _post_decode if attr == "decode" else None
                out.append((f"{cls.__module__}:{cls.__qualname__}", attr, f"encoding.{attr}", post))
    if not out:
        raise MissingTarget("repro.iotdb.encoding:Encoder subclasses")
    return out


def _resolve(owner_path: str, attr: str):
    module_name, _, class_name = owner_path.partition(":")
    try:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
    except (ImportError, AttributeError):
        raise MissingTarget(f"{owner_path} (needed for .{attr})") from None
    if attr not in vars(owner):
        raise MissingTarget(f"{owner_path}.{attr}")
    return owner, vars(owner)[attr]


def resolve_targets() -> list[tuple]:
    """``(owner, attribute, original, layer, post)`` for every target;
    raises :class:`MissingTarget` naming the first one that is gone."""
    plan = []
    for owner_path, attr, name, *post in _targets() + _encoder_targets():
        owner, original = _resolve(owner_path, attr)
        plan.append((owner, attr, original, name, post[0] if post else None))
    return plan


class Tracer:
    """Spans, self time and counts for one traced pass."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_span_id, op_id)``; ``None`` while open.
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Deterministic work counts, keyed ``(counter, operation kind)``.
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op_id = 0
        self.op_kind = "setup"
        # Frames: [name, child_seconds, span_id].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        span_id = -1
        if record:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        name, child, span_id = frame
        duration = t1 - t0
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[2]
        if span_id >= 0:
            self.spans[span_id] = (name, t0, t1, parent_id, self.op_id)

    def call(self, name: str, fn, args, kwargs, record: bool = True):
        frame = self._enter(name, record)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, t0, perf_counter())

    def root(self, kind: str, fn, *args):
        """Run one client operation as a root span ``client.<kind>``."""
        self.op_id += 1
        self.op_kind = kind
        self.counts[("ops", kind)] += 1
        return self.call("client." + kind, fn, args, {})

    def count(self, counter: str, n: int = 1) -> None:
        self.counts[(counter, self.op_kind)] += n

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, fn, name, post):
        tracer = self
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = namer(args, kwargs) if namer else name
            result = tracer.call(layer, fn, args, kwargs)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer._enter(name, record=False)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, t0, perf_counter())
                tracer.count("wal.replayed_points")
                yield item

        return wrapper

    def _wrap_store_open(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(store, key, *args, **kwargs):
            handle = tracer.call(name, fn, (store, key, *args), kwargs)
            tracer.count("calls." + name)
            return _TracedHandle(handle, tracer, _key_class(key))

        return wrapper

    def install(self) -> None:
        """Wrap every target; all are resolved before the first patch."""
        for owner, attr, original, name, post in resolve_targets():
            method_type = type(original) if isinstance(original, (classmethod, staticmethod)) else None
            fn = original.__func__ if method_type else original
            if attr == "replay":
                wrapped = self._wrap_generator(fn, name)
            elif attr in ("open_write", "open_read"):
                wrapped = self._wrap_store_open(fn, name)
            else:
                wrapped = self._wrap_function(fn, name, post)
            setattr(owner, attr, method_type(wrapped) if method_type else wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def total(self, counter: str, kinds=None) -> int:
        return sum(
            n for (c, kind), n in self.counts.items()
            if c == counter and (kinds is None or kind in kinds)
        )

    def deterministic_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same seed."""
        out = {f"{c}[{k}]": n for (c, k), n in self.counts.items()}
        out.update({f"calls[{name}]": n for name, n in self.calls.items()})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")


def _key_class(key: str) -> str:
    name = key.rsplit("/", 1)[-1]
    if name.startswith("wal-"):
        return "wal"
    if ".tsfile" in name:
        return "tsfile"
    return "other"


class _TracedHandle:
    """A blob-store handle that times I/O and counts bytes."""

    def __init__(self, inner, tracer: Tracer, key_class: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._key_class = key_class

    def write(self, data):
        tracer = self._tracer
        tracer.count(f"bytes.{self._key_class}", len(data))
        tracer.count("calls.backends.write")
        return tracer.call("backends.write", self._inner.write, (data,), {}, record=False)

    def read(self, *args):
        self._tracer.count("calls.backends.read")
        return self._tracer.call("backends.read", self._inner.read, args, {}, record=False)

    def flush(self):
        self._tracer.count("calls.backends.flush")
        return self._tracer.call("backends.flush", self._inner.flush, (), {}, record=False)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# -- per-layer counters read off arguments and results -------------------------


def _post_sort(tracer, args, kwargs, result) -> None:
    tracer.count("sort.points", len(args[1]))
    tracer.count("sort.comparisons", result.stats.comparisons)
    tracer.count("sort.moves", result.stats.moves)


def _post_execute(tracer, args, kwargs, result) -> None:
    stats = result.stats
    tracer.count("query.files_opened", stats.files_opened)
    tracer.count("query.files_pruned", stats.files_pruned)
    tracer.count("query.points_scanned", stats.points_scanned)
    tracer.count("query.points_returned", stats.points_returned)


def _post_compact(tracer, args, kwargs, result) -> None:
    tracer.count("compaction.points_rewritten", result.points_written)


def _post_append(tracer, args, kwargs, result) -> None:
    if args[1]:
        tracer.count("wal.frames")


def _post_decode(tracer, args, kwargs, result) -> None:
    tracer.count("decode.points", args[2])
    tracer.count("decode.calls")


def _post_combine(tracer, args, kwargs, result) -> None:
    tracer.count("aggregation.fast_path")


def _post_backend(op):
    def post(tracer, args, kwargs, result) -> None:
        tracer.count(f"calls.backends.{op}")
        if op == "put":
            tracer.count(f"bytes.{_key_class(args[1])}", len(args[2]))

    return post


__all__ = ["BACKEND_OPS", "HANDLE_OPS", "MissingTarget", "Tracer", "resolve_targets"]
