"""Self-tests of the benchmark at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench import tracing  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0", "--scale", "tiny"]


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _printed(stdout: str) -> tuple[dict, dict]:
    """``(name -> "value unit" line, final JSON object)``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            table[parts[0]] = parts
    return table, result


def _in_process(argv, capsys):
    try:
        code = bench.main(argv)
    finally:
        gc.unfreeze()
    return code, capsys.readouterr()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "tail_query", "history"]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", ["ingest", "tail_query", "history"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _run_cli("--workload", workload, "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    table, result = _printed(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert table[name][2] == unit, table[name]
    assert table["write_p99_ms"][3].startswith("(n=")
    assert "env" in table and json.loads(proc.stdout.splitlines()[0][4:])["seed"] == 3


def test_traced_run_prints_the_layer_table_and_every_per_layer_metric():
    proc = _run_cli("--workload", "ingest", "--trace", "1", *TINY)
    assert proc.returncode == 0, proc.stderr
    table, result = _printed(proc.stdout)
    assert "per-layer self time" in proc.stdout
    assert "(unattributed)" in proc.stdout
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    for name, unit in bench.PER_LAYER.items():
        assert table[name][2] == unit, name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Two traced passes over the same seed did identical work.
    assert metrics["trace.nondeterministic_counts"] == 0, proc.stderr
    assert metrics["wal.frames"] > 0 and metrics["core.sort_flush_ms"] > 0
    assert metrics["compaction.points_rewritten"] > 0
    assert metrics["trace.overhead"] > 0


def test_wrappers_are_removed_after_a_traced_pass():
    from repro.iotdb.shard import StorageShard

    original = StorageShard.__dict__["write_batch"]
    tracer = tracing.Tracer()
    tracer.install()
    assert StorageShard.__dict__["write_batch"] is not original
    tracer.uninstall()
    assert StorageShard.__dict__["write_batch"] is original


def test_oracle_catches_an_injected_wrong_answer(monkeypatch, capsys):
    from repro.iotdb.engine import StorageEngine

    real_query = StorageEngine.query

    def lossy_query(self, *args):
        result = real_query(self, *args)
        if result.timestamps:
            result.timestamps.pop()
            result.values.pop()
        return result

    monkeypatch.setattr(StorageEngine, "query", lossy_query)
    code, out = _in_process(["--workload", "history", "--trace", "0", *TINY], capsys)
    assert code == 1
    result = json.loads(out.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "wrong answer" in out.err


def test_missing_wrapper_target_fails_the_traced_run(monkeypatch, capsys):
    real_targets = tracing._targets
    monkeypatch.setattr(
        tracing,
        "_targets",
        lambda: real_targets() + [("repro.iotdb.shard:StorageShard", "no_such_method", "x")],
    )
    code, out = _in_process(["--workload", "ingest", "--trace", "1", *TINY], capsys)
    assert code == 2
    assert "StorageShard.no_such_method" in out.err
    assert '"correct"' not in out.out
    # Nothing stays patched after the failure.
    from repro.iotdb.shard import StorageShard

    assert not hasattr(StorageShard.__dict__["write_batch"], "__wrapped__")


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "ingest", "--trace", "0", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_come_from_the_seed():
    from perfbench.workloads import build_inputs, get_workload

    workload = get_workload("history", "tiny")
    a = build_inputs(workload, 5, max_rounds=2)
    b = build_inputs(workload, 5, max_rounds=2)
    c = build_inputs(workload, 6, max_rounds=2)
    assert a.ops == b.ops and a.reads == b.reads
    assert a.ops != c.ops
