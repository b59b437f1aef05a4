"""End-to-end wall-clock benchmark of the storage engine, with a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
work once untraced and twice traced, and prints the per-layer table, the
unattributed remainder, the tracing overhead and a determinism
cross-check of the per-layer counts.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any answer was wrong or any operation failed.

One client thread drives one engine in a closed loop.  After set-up
(inputs generated, a throwaway warm-up engine), every workload repeats the
same round: *load* the workload's operation stream into a fresh engine,
crash it (drop it without ``close``), then restore the crashed tree byte
for byte, reopen it (recovery), read it and compact it.  Every answer is
checked, outside the timed region, against a model of the generated
streams.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.clock import Clock  # noqa: E402
from perfbench.tracing import BACKEND_OPS, HANDLE_OPS, MissingTarget, Tracer, resolve_targets  # noqa: E402

SETUP_REPEATS = 5

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ingest_pts_per_s": "points/s",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_pts_per_s": "points/s",
    "agg_p50_ms": "ms",
    "agg_p99_ms": "ms",
    "recover_p50_ms": "ms",
    "compact_s": "s",
    "stored_bytes_per_point": "B/point",
}

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER = {
    "shard.write_self_ms": "ms",
    "separation.unseq_share": "ratio",
    "wal.append_ms": "ms",
    "wal.frames": "count",
    "backends.wal_bytes_per_point": "B/point",
    "memtable.write_ms": "ms",
    "core.sort_flush_ms": "ms",
    "core.sort_query_ms": "ms",
    "core.comparisons_per_point": "count/point",
    "core.moves_per_point": "count/point",
    "tvlist.sort_self_ms": "ms",
    "flush.p50_ms": "ms",
    "flush.p99_ms": "ms",
    "flush.sort_share": "ratio",
    "encoding.encode_ms": "ms",
    "encoding.decode_ms": "ms",
    "encoding.decoded_per_returned": "ratio",
    "tsfile.write_self_ms": "ms",
    "backends.tsfile_bytes_per_point": "B/point",
    "tsfile.read_self_ms": "ms",
    "tsfile.pages_read_per_query": "count",
    "query.execute_self_ms": "ms",
    "query.scanned_per_returned": "ratio",
    "interval_index.candidates_ms": "ms",
    "query.files_opened_per_query": "count",
    "interval_index.pruned_share": "ratio",
    "interval_index.save_ms": "ms",
    "aggregation.busy_ms": "ms",
    "aggregation.fast_path_share": "ratio",
    "compaction.busy_ms": "ms",
    "compaction.points_rewritten": "count",
    "backends.compact_bytes_written": "B",
    "shard.recover_ms": "ms",
    "wal.replay_ms": "ms",
    "wal.replayed_points": "count",
    "meta.read_ms": "ms",
    **{
        f"backends.{kind}.{op}": unit
        for op in BACKEND_OPS + HANDLE_OPS
        for kind, unit in (("busy_ms", "ms"), ("calls", "count"))
    },
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
    "trace.nondeterministic_counts": "count",
}


class Failure(Exception):
    """The run cannot produce a result (missing program, missing target)."""


def _import_program():
    if not (ROOT / "src" / "repro").is_dir():
        raise Failure(f"no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


# -- statistics ----------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tree_bytes(path: Path) -> int:
    return sum(
        (Path(d) / f).stat().st_size for d, _, files in os.walk(path) for f in files
    )


# -- environment record ----------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, clock: Clock) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        # The calibration kernel's time here, to compare machines by.
        "calibration_s": statistics.median(clock.kernel() for _ in range(21)),
    }


# -- the client ------------------------------------------------------------------


class Client:
    """Runs operations, times them, and counts failures.

    With a tracer, each operation is a root span; otherwise it is timed
    with ``perf_counter`` alone.  Between operations the clock samples its
    calibration kernel.  An exception is a failed operation; the run goes
    on so every failure is counted.
    """

    def __init__(self, clock: Clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.first_error: str | None = None

    def do(self, kind: str, fn, *args):
        """``(ok, result, (start, wall seconds, CPU seconds))``; ``ok`` is
        False when the call raised."""
        self.attempted += 1
        self.clock.tick()
        c0 = thread_time()
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.root(kind, fn, *args)
            else:
                result = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            return False, None, (t0, perf_counter() - t0, thread_time() - c0)
        return True, result, (t0, perf_counter() - t0, thread_time() - c0)

    def check(self, verify, *args):
        """Run an oracle check; a wrong answer is counted as a failure."""
        from perfbench.workloads import WrongAnswer

        try:
            return verify(*args)
        except WrongAnswer as exc:
            self.wrong += 1
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"wrong answer: {exc}"
            return 0


# -- set-up ----------------------------------------------------------------------


def engine_config(data_dir: Path):
    from repro.iotdb import IoTDBConfig

    return IoTDBConfig(
        shards=1,
        flush_workers=0,
        deferred_flush=False,
        wal_enabled=True,
        memtable_flush_threshold=10_000,
        data_dir=data_dir,
    )


def warm_up(work: Path) -> None:
    """Exercise every operation once on a throwaway engine, so lazy imports
    and first-call set-up finish before anything is timed."""
    from repro.iotdb import StorageEngine

    path = work / "warmup"
    shutil.rmtree(path, ignore_errors=True)
    config = engine_config(path)
    config.memtable_flush_threshold = 300
    engine = StorageEngine.create(config)
    for lo in (1_000, 0, 2_000):
        ts = list(range(lo, lo + 500, 2))
        engine.write_batch("warm", "s1", ts, [float(t) for t in ts])
    engine.query("warm", "s1", 0, 2_500)
    engine.aggregate("warm", "s1", 0, 2_500)
    engine.aggregate("warm", "s1", 1_000, 1_400)
    engine.compact()
    engine.write_batch("warm", "s1", [5, 3, 4], [1.0, 2.0, 3.0])
    del engine
    gc.collect()
    engine = StorageEngine.open(config)
    engine.query("warm", "s1", 0, 2_500)
    engine.flush_all()
    engine.close()
    shutil.rmtree(path, ignore_errors=True)


def set_up(workload, seed: int, work: Path):
    from perfbench.workloads import build_inputs

    inputs = build_inputs(workload, seed, max_rounds=64)
    warm_up(work)
    shutil.rmtree(work / "db", ignore_errors=True)
    shutil.rmtree(work / "crashed", ignore_errors=True)
    return inputs


# -- one pass over the workload ------------------------------------------------------


class Samples:
    """What one pass measured; timings are ``(start, wall s, CPU s)``."""

    def __init__(self) -> None:
        self.write: list[tuple] = []
        self.query: list[tuple] = []
        self.agg: list[tuple] = []
        self.open: list[tuple] = []
        self.compact: list[tuple] = []
        self.points_written = 0
        self.points_returned = 0
        self.stored_bytes = 0
        self.routed: dict = {}
        self.flush_reports: list = []
        self.rounds = 0

    def op_seconds(self, clock: Clock) -> float:
        """Reference-machine seconds spent in timed operations."""
        timed = self.write + self.query + self.agg + self.open + self.compact
        return sum(clock.scaled(timed))


def _read(client: Client, engine, model, samples: Samples, kind, device, start, end) -> None:
    from perfbench.workloads import SENSOR

    if kind == "query":
        ok, result, timed = client.do("query", engine.query, device, SENSOR, start, end)
        if ok:
            samples.query.append(timed)
            samples.points_returned += client.check(model.check_query, device, start, end, result)
    else:
        ok, result, timed = client.do("aggregate", engine.aggregate, device, SENSOR, start, end)
        if ok:
            samples.agg.append(timed)
            client.check(model.check_aggregate, device, start, end, result)


def _verify_state(client: Client, engine, model) -> None:
    """Every acknowledged point is visible, with its last value."""
    from perfbench.workloads import SENSOR

    for device in model.devices():
        lo, hi = model.span(device)
        ok, result, _ = client.do("verify", engine.query, device, SENSOR, lo, hi + 1)
        if ok:
            client.check(model.check_query, device, lo, hi + 1, result)


def _verify_counts(client: Client, engine, model) -> None:
    from perfbench.workloads import SENSOR

    for device in model.devices():
        lo, hi = model.span(device)
        ok, result, _ = client.do("verify", engine.aggregate, device, SENSOR, lo, hi + 1)
        if ok:
            client.check(model.check_aggregate, device, lo, hi + 1, result)


def _load(client: Client, engine, inputs, samples: Samples) -> None:
    """Replay the workload's operation stream against a fresh engine."""
    from perfbench.workloads import SENSOR, Model, QueryOp

    live = Model()
    for index, op in enumerate(inputs.ops):
        if index == inputs.checkpoint_at:
            client.do("checkpoint", engine.flush_all)
        if isinstance(op, QueryOp):
            # The paper's tail query: the window ends at the latest
            # timestamp ingested for the device so far.
            latest = live.latest.get(op.device, 0)
            _read(client, engine, live, samples, "query", op.device, latest - op.window, latest + 1)
            continue
        ok, _, timed = client.do(
            "write", engine.write_batch, op.device, SENSOR, op.timestamps, op.values
        )
        if ok:
            samples.write.append(timed)
            samples.points_written += len(op.timestamps)
            if inputs.mixed:
                live.apply(op)


def run_pass(workload, inputs, work: Path, client: Client, *, seconds: float | None, rounds: int) -> Samples:
    """Rounds of load, crash, restore/open, read and compact.

    With ``seconds``, rounds go on until that much time has passed (at
    least ``rounds`` of them); without, exactly ``rounds``.  Every round
    repeats the same work, so each metric's samples spread over the run.
    """
    from repro.iotdb import StorageEngine

    from perfbench.workloads import OPENS_PER_ROUND

    db, crashed = work / "db", work / "crashed"
    config = engine_config(db)
    samples = Samples()
    final = inputs.final
    began = perf_counter()
    while samples.rounds < rounds or (
        seconds is not None and perf_counter() - began < seconds
    ):
        first = samples.rounds == 0
        shutil.rmtree(db, ignore_errors=True)
        shutil.rmtree(crashed, ignore_errors=True)
        gc.collect()
        ok, engine, _ = client.do("create", StorageEngine.create, config)
        if not ok:
            break
        _load(client, engine, inputs, samples)
        if first:
            samples.routed = {
                space.value: n for space, n in engine.separation.routed_counts().items()
            }
            samples.flush_reports = engine.flush_reports
        # The crash: the engine is dropped without close; the WAL still
        # holds the live memtables.
        del engine
        gc.collect()
        if first:
            samples.stored_bytes = tree_bytes(db)
        shutil.copytree(db, crashed)

        for i in range(OPENS_PER_ROUND):
            shutil.rmtree(db)
            shutil.copytree(crashed, db)
            gc.collect()
            recovered, engine, timed = client.do("open", StorageEngine.open, config)
            if not recovered:
                break
            samples.open.append(timed)
            if i == OPENS_PER_ROUND - 1:
                # Reads go to the last recovered engine only.
                if first:
                    _verify_state(client, engine, final)
                gc.collect()
                plan = inputs.reads[samples.rounds % len(inputs.reads)]
                for kind, device, start, end in plan:
                    _read(client, engine, final, samples, kind, device, start, end)
            ok, _, timed = client.do("compact", engine.compact)
            if ok:
                samples.compact.append(timed)
            _verify_counts(client, engine, final)
            del engine
        if not recovered:
            break
        samples.rounds += 1
    gc.collect()
    return samples


# -- metrics -----------------------------------------------------------------------


def cpu_seconds(timed: list[tuple]) -> list[float]:
    return [cpu for _, _, cpu in timed]


def wall_seconds(timed: list[tuple]) -> list[float]:
    return [wall for _, wall, _ in timed]


def end_to_end_metrics(
    samples: Samples, setup_s: list[float], points_per_round: int, seconds, tail_seconds
) -> dict:
    """The end-to-end metrics.  ``seconds`` turns a list of timings into the
    seconds to report; ``tail_seconds`` does so for the p99s."""
    write, query, agg = seconds(samples.write), seconds(samples.query), seconds(samples.agg)
    ms = 1e3
    return {
        "setup_s": statistics.median(setup_s),
        "ingest_pts_per_s": samples.points_written / sum(write),
        "write_p50_ms": statistics.median(write) * ms,
        "write_p99_ms": percentile(tail_seconds(samples.write), 0.99) * ms,
        "query_p50_ms": statistics.median(query) * ms,
        "query_p99_ms": percentile(tail_seconds(samples.query), 0.99) * ms,
        "query_pts_per_s": samples.points_returned / sum(query),
        "agg_p50_ms": statistics.median(agg) * ms,
        "agg_p99_ms": percentile(tail_seconds(samples.agg), 0.99) * ms,
        "recover_p50_ms": statistics.median(seconds(samples.open)) * ms,
        "compact_s": statistics.median(seconds(samples.compact)),
        "stored_bytes_per_point": samples.stored_bytes / points_per_round,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, samples: Samples, overhead: float, nondeterministic: int) -> dict:
    ms = 1e3
    self_ms = {k: v * ms for k, v in tracer.self_s.items()}
    total_ms = {k: v * ms for k, v in tracer.total_s.items()}
    count = tracer.total
    points = samples.points_written
    flush_s = sorted(r.total_seconds for r in samples.flush_reports)
    flush_total = sum(r.total_seconds for r in samples.flush_reports)
    sort_total = sum(r.sort_seconds for r in samples.flush_reports)
    reads = ("query", "aggregate")
    queries = count("ops", ("query",))
    aggregates = count("ops", ("aggregate",))
    opened = count("query.files_opened", reads)
    pruned = count("query.files_pruned", reads)
    routed_total = sum(samples.routed.values())
    roots = [k for k in tracer.total_s if k.startswith("client.")]
    out = {
        "shard.write_self_ms": self_ms.get("shard.write_batch", 0.0),
        "separation.unseq_share": _ratio(samples.routed.get("unseq", 0), routed_total),
        "wal.append_ms": total_ms.get("wal.append", 0.0),
        "wal.frames": count("wal.frames"),
        "backends.wal_bytes_per_point": _ratio(count("bytes.wal", ("write",)), points),
        "memtable.write_ms": total_ms.get("memtable.write", 0.0),
        "core.sort_flush_ms": total_ms.get("core.sort.flush", 0.0),
        "core.sort_query_ms": total_ms.get("core.sort.query", 0.0),
        "core.comparisons_per_point": _ratio(count("sort.comparisons"), count("sort.points")),
        "core.moves_per_point": _ratio(count("sort.moves"), count("sort.points")),
        "tvlist.sort_self_ms": self_ms.get("tvlist.sort", 0.0),
        "flush.p50_ms": statistics.median(flush_s) * ms if flush_s else 0.0,
        "flush.p99_ms": percentile(flush_s, 0.99) * ms if flush_s else 0.0,
        "flush.sort_share": _ratio(sort_total, flush_total),
        "encoding.encode_ms": total_ms.get("encoding.encode", 0.0),
        "encoding.decode_ms": total_ms.get("encoding.decode", 0.0),
        # Each page decodes a time and a value column of the same length.
        "encoding.decoded_per_returned": _ratio(
            count("decode.points", reads) / 2, count("query.points_returned", ("query",))
        ),
        "tsfile.write_self_ms": self_ms.get("tsfile.write", 0.0),
        "backends.tsfile_bytes_per_point": _ratio(count("bytes.tsfile", ("write",)), points),
        "tsfile.read_self_ms": self_ms.get("tsfile.read", 0.0),
        "tsfile.pages_read_per_query": _ratio(count("decode.calls", ("query",)) / 2, queries),
        "query.execute_self_ms": self_ms.get("query.execute", 0.0),
        "query.scanned_per_returned": _ratio(
            count("query.points_scanned", reads), count("query.points_returned", reads)
        ),
        "interval_index.candidates_ms": total_ms.get("interval_index.candidates", 0.0),
        "query.files_opened_per_query": _ratio(count("query.files_opened", ("query",)), queries),
        "interval_index.pruned_share": _ratio(pruned, opened + pruned),
        "interval_index.save_ms": total_ms.get("interval_index.save", 0.0),
        "aggregation.busy_ms": total_ms.get("aggregation", 0.0),
        "aggregation.fast_path_share": _ratio(count("aggregation.fast_path", ("aggregate",)), aggregates),
        "compaction.busy_ms": total_ms.get("compaction", 0.0),
        "compaction.points_rewritten": count("compaction.points_rewritten"),
        "backends.compact_bytes_written": count("bytes.tsfile", ("compact",)) + count("bytes.other", ("compact",)),
        "shard.recover_ms": self_ms.get("shard.recover", 0.0),
        "wal.replay_ms": total_ms.get("wal.replay", 0.0),
        "wal.replayed_points": count("wal.replayed_points"),
        "meta.read_ms": total_ms.get("meta.read", 0.0),
        "trace.unattributed_share": _ratio(
            sum(tracer.self_s[k] for k in roots), sum(tracer.total_s[k] for k in roots)
        ),
        "trace.overhead": overhead,
        "trace.nondeterministic_counts": nondeterministic,
    }
    for name in PER_LAYER:
        if name.startswith("backends.busy_ms."):
            out[name] = total_ms.get("backends." + name.rsplit(".", 1)[1], 0.0)
        elif name.startswith("backends.calls."):
            out[name] = count("calls.backends." + name.rsplit(".", 1)[1])
    return out


def layer_table(tracer) -> str:
    """Self time per layer, with the client's unattributed remainder."""
    roots = [k for k in tracer.total_s if k.startswith("client.")]
    whole = sum(tracer.total_s[k] for k in roots) or 1.0
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':34} {'calls':>9} {'total ms':>11} {'self ms':>11} {'self %':>7}"]
    for name, self_s in rows:
        label = name + (" (unattributed)" if name.startswith("client.") else "")
        lines.append(
            f"{label:34} {tracer.calls[name]:>9} {tracer.total_s[name] * 1e3:>11.1f} "
            f"{self_s * 1e3:>11.1f} {100 * self_s / whole:>6.1f}%"
        )
    return "\n".join(lines)


# -- the command ---------------------------------------------------------------------


def _format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> int:
    _import_program()
    from perfbench.workloads import MIN_ROUNDS, get_workload

    workload = get_workload(args.workload, args.scale)
    clock = Clock()
    env = environment(args.seed, clock)
    print("env " + json.dumps(env, sort_keys=True))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            for _ in range(5):
                clock.sample()
            t0 = perf_counter()
            inputs = set_up(workload, args.seed, work)
            setups.append((t0, perf_counter() - t0))
        gc.collect()
        gc.freeze()

        raw = None
        if not args.trace:
            client = Client(clock)
            samples = run_pass(
                workload, inputs, work, client,
                seconds=args.seconds, rounds=MIN_ROUNDS,
            )
            if not client.failed:
                # Set-ups are scaled like operations: by the kernel samples
                # nearest them (taken around and right after them).
                metrics = end_to_end_metrics(
                    samples, clock.scaled(setups), inputs.points, clock.scaled, cpu_seconds
                )
                raw = end_to_end_metrics(
                    samples, [wall for _, wall in setups], inputs.points, wall_seconds, wall_seconds
                )
            else:
                metrics = {}
            units = END_TO_END
            counts = {
                "write_p99_ms": len(samples.write),
                "query_p99_ms": len(samples.query),
                "agg_p99_ms": len(samples.agg),
                "recover_p50_ms": len(samples.open),
                "compact_s": len(samples.compact),
            }
            spans_path = None
        else:
            try:
                resolve_targets()
            except MissingTarget as exc:
                raise Failure(f"trace target missing: {exc}") from None
            client = Client(clock)
            untraced = run_pass(workload, inputs, work, client, seconds=None, rounds=MIN_ROUNDS)
            passes = []
            for _ in range(2):
                tracer = Tracer()
                tracer.install()
                try:
                    traced_client = Client(clock, tracer)
                    samples = run_pass(
                        workload, inputs, work, traced_client, seconds=None, rounds=MIN_ROUNDS
                    )
                finally:
                    tracer.uninstall()
                client.attempted += traced_client.attempted
                client.failed += traced_client.failed
                client.wrong += traced_client.wrong
                client.first_error = client.first_error or traced_client.first_error
                passes.append((tracer, samples))
            (tracer, samples), (tracer_b, _) = passes
            counts_a = tracer.deterministic_counts()
            counts_b = tracer_b.deterministic_counts()
            differing = sorted(
                k for k in counts_a.keys() | counts_b.keys()
                if counts_a.get(k) != counts_b.get(k)
            )
            for key in differing:
                print(
                    f"nondeterminism: {key} = {counts_a.get(key)} vs {counts_b.get(key)}",
                    file=sys.stderr,
                )
            overhead = _ratio(samples.op_seconds(clock), untraced.op_seconds(clock))
            print(f"per-layer self time, workload {args.workload} (traced pass 1 of 2):")
            print(layer_table(tracer))
            metrics = per_layer_metrics(tracer, samples, overhead, len(differing)) if not client.failed else {}
            units = PER_LAYER
            counts = {}
            spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.write_spans(spans_path)

        correct = client.failed == 0
        if not correct:
            print(
                f"FAILED: {client.failed} of {client.attempted} operations "
                f"({client.wrong} wrong answers)\n{client.first_error}",
                file=sys.stderr,
            )
        error_rate = client.failed / max(1, client.attempted)
        print(f"error_rate {error_rate:.6g} ({client.failed} of {client.attempted})")
        for name, value in metrics.items():
            notes = [f"n={counts[name]}"] if name in counts else []
            if name in ("write_p99_ms", "query_p99_ms", "agg_p99_ms"):
                notes.append("thread CPU time")
            if raw is not None and name in END_TO_END and END_TO_END[name] != "B/point":
                notes.append(f"wall-clock {_format_value(raw[name])}")
            extra = f" ({', '.join(notes)})" if notes else ""
            print(f"{name} {_format_value(value)} {units[name]}{extra}")
        result = {
            "correct": correct,
            "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "env": env,
            "sample_counts": counts,
            "wall_clock_metrics": raw,
            "spans": str(spans_path) if spans_path else None,
            **result,
        }
        out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "tail_query", "history"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own self-tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
