"""Workload definitions, seeded inputs and the correctness oracle.

Every workload drives the same client lifecycle against a
``StorageEngine``, in rounds: a *load* that replays the workload's
operation stream into a fresh engine, a crash (the engine is dropped
without ``close``), recovery of the byte-identical crashed tree, reads,
and a compaction.
The workloads differ in the data they ingest and in how they read it,
which decides the layers that do the work (see ``perfbench/README.md``).

Inputs come unmodified from ``repro.bench.workload.build_operations``
(which draws its streams from ``repro.workloads.load_dataset``); the seed
is the only source of randomness.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.bench.workload import QueryOp, SystemWorkloadConfig, WriteOp, build_operations

SENSOR = "s1"
#: Points per write batch (the paper's optimum).
BATCH_SIZE = 500
#: Widths of the old-range query and aggregate windows, and of the tail
#: windows ``[latest - width, latest]``.
QUERY_WINDOW = 500
AGG_WINDOW = 2_000
TAIL_QUERY_WINDOW = 1_000
#: Rounds run at least this often, so every p99 has >= 1000 samples.
MIN_ROUNDS = 2
#: ``open()`` + ``compact()`` cycles (each on a freshly restored tree) per
#: round; the reads go to the last one.
OPENS_PER_ROUND = 4
#: The load checkpoints (``flush_all``) this many write batches before its
#: end, so every seed crashes with the same amount of unflushed data: the
#: same WAL to replay, and the same share of devices whose reads also sort
#: a live memtable chunk.
CHECKPOINT_BATCHES = 10


@dataclass(frozen=True)
class Workload:
    """One named workload at one scale."""

    name: str
    #: Delay parameters of the LogNormal dataset.
    dataset_params: dict
    n_devices: int
    total_points: int
    #: Fraction of the load stream's operations that are writes.
    write_percentage: float
    #: ``"random"``: uniformly random old-range windows; ``"tail"``:
    #: windows ending at the device's latest timestamp.
    read_pattern: str
    #: Reads of each kind (query and aggregate) per round.
    reads_per_round: int

    def system_config(self, seed: int) -> SystemWorkloadConfig:
        return SystemWorkloadConfig(
            dataset="lognormal",
            dataset_params=dict(self.dataset_params),
            total_points=self.total_points,
            batch_size=BATCH_SIZE,
            write_percentage=self.write_percentage,
            query_window=TAIL_QUERY_WINDOW,
            device="root.bench.d",
            sensor=SENSOR,
            n_devices=self.n_devices,
            seed=seed,
        )


def _workloads(scale: str) -> dict[str, Workload]:
    """The three workloads; ``perfbench/README.md`` says why each exists."""
    full = scale == "full"
    mild = {"mu": 1.0, "sigma": 1.0}
    heavy = {"mu": 6.0, "sigma": 1.5}
    common = dict(
        total_points=256_000 if full else 24_000,
        reads_per_round=512 if full else 8,
    )
    return {
        # Write-only, mildly disordered: the write path does the work.
        "ingest": Workload(
            name="ingest", dataset_params=mild, n_devices=32 if full else 4,
            write_percentage=1.0, read_pattern="random", **common,
        ),
        # Paper §VI-D mix: tail queries sort the working memtable.
        "tail_query": Workload(
            name="tail_query", dataset_params=mild, n_devices=16 if full else 4,
            write_percentage=0.5, read_pattern="tail", **common,
        ),
        # Heavily disordered: reads decode and merge overlapping files.
        "history": Workload(
            name="history", dataset_params=heavy, n_devices=32 if full else 4,
            write_percentage=1.0, read_pattern="random", **common,
        ),
    }


def get_workload(name: str, scale: str = "full") -> Workload:
    return _workloads(scale)[name]


# -- the oracle --------------------------------------------------------------


class WrongAnswer(Exception):
    """An engine answer disagrees with the model."""


class Model:
    """What the engine must answer: per device, timestamp -> value, the last
    arrival of a timestamp winning; plus each device's sorted key list."""

    def __init__(self) -> None:
        self.points: dict[str, dict[int, float]] = {}
        self._keys: dict[str, list[int]] = {}
        self.latest: dict[str, int] = {}
        self.written = 0

    def apply(self, op: WriteOp) -> None:
        column = self.points.setdefault(op.device, {})
        keys = self._keys.setdefault(op.device, [])
        for t, v in zip(op.timestamps, op.values):
            if t not in column:
                insort(keys, t)
            column[t] = v
        self.written += len(op.timestamps)
        top = max(op.timestamps)
        if top > self.latest.get(op.device, top - 1):
            self.latest[op.device] = top

    def expected(self, device: str, start: int, end: int) -> tuple[list[int], list]:
        keys = self._keys.get(device, [])
        ts = keys[bisect_left(keys, start) : bisect_left(keys, end)]
        column = self.points.get(device, {})
        return ts, [column[t] for t in ts]

    def check_query(self, device: str, start: int, end: int, result) -> int:
        """Raise :class:`WrongAnswer` unless ``result`` is exactly the model's
        answer; returns the number of points returned."""
        ts, vs = self.expected(device, start, end)
        if list(result.timestamps) != ts or list(result.values) != vs:
            raise WrongAnswer(
                f"query {device} [{start}, {end}): got {len(result.timestamps)} "
                f"points, expected {len(ts)}"
            )
        return len(ts)

    def check_aggregate(self, device: str, start: int, end: int, agg) -> None:
        ts, vs = self.expected(device, start, end)
        if agg.count != len(ts):
            raise WrongAnswer(
                f"aggregate {device} [{start}, {end}): count {agg.count}, "
                f"expected {len(ts)}"
            )
        if not ts:
            return
        total = math.fsum(vs)
        if (
            not math.isclose(agg.sum, total, rel_tol=1e-9, abs_tol=1e-6)
            or agg.min_value != min(vs)
            or agg.max_value != max(vs)
            or agg.first != vs[0]
            or agg.last != vs[-1]
        ):
            raise WrongAnswer(f"aggregate {device} [{start}, {end}): wrong values")

    def span(self, device: str) -> tuple[int, int]:
        keys = self._keys[device]
        return keys[0], keys[-1]

    def devices(self) -> list[str]:
        return sorted(self.points)


# -- inputs ------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run needs, generated before any timing starts."""

    ops: list
    #: The model after the whole load stream (what recovery must surface).
    final: Model
    #: Per round: a list of ``("query"|"aggregate", device, start, end)``.
    reads: list
    points: int
    #: Whether the load stream interleaves queries with the writes.
    mixed: bool
    #: Index into ``ops`` of the write before which the load checkpoints.
    checkpoint_at: int


def read_plan(workload: Workload, model: Model, seed: int, round_index: int) -> list:
    """The reads of one round; the same seed and round give the same reads."""
    rng = random.Random(seed * 1_000_003 + round_index)
    devices = model.devices()
    plan = []
    for i in range(workload.reads_per_round):
        device = devices[i % len(devices)]
        lo, hi = model.span(device)
        for kind, width in (("query", QUERY_WINDOW), ("aggregate", AGG_WINDOW)):
            if workload.read_pattern == "tail":
                if kind == "query":
                    width = TAIL_QUERY_WINDOW
                start, end = hi - width, hi + 1
            else:
                # Old range: keep clear of the newest tenth of the series.
                top = lo + int((hi - lo) * 0.9) - width
                start = rng.randint(lo, max(lo, top))
                end = start + width
            plan.append((kind, device, start, end))
    return plan


def build_inputs(workload: Workload, seed: int, max_rounds: int) -> Inputs:
    ops = build_operations(workload.system_config(seed))
    final = Model()
    for op in ops:
        if isinstance(op, WriteOp):
            final.apply(op)
    reads = [read_plan(workload, final, seed, r) for r in range(max_rounds)]
    mixed = any(isinstance(op, QueryOp) for op in ops)
    writes = [i for i, op in enumerate(ops) if isinstance(op, WriteOp)]
    return Inputs(
        ops=ops, final=final, reads=reads, points=final.written, mixed=mixed,
        checkpoint_at=writes[-CHECKPOINT_BATCHES],
    )


__all__ = [
    "MIN_ROUNDS",
    "OPENS_PER_ROUND",
    "Inputs",
    "Model",
    "QueryOp",
    "SENSOR",
    "Workload",
    "WriteOp",
    "WrongAnswer",
    "build_inputs",
    "get_workload",
    "read_plan",
]
