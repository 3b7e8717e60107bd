"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload at a small size, traced and untraced, and checks that
every metric is emitted, that planted faults count as failed operations,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen_ml100k  # noqa: E402
import spans  # noqa: E402
from spans import PER_LAYER, Tracer, hook_errors, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETAIL = {
    "synth-desk": ["synth_s"],
    "ml100k-cli": ["train_s", "shadow_s", "explain_cli_item_s", "explain_cli_user_s",
                   "pipeline_s"],
    "explain-tree": ["explain_item_p50_ms", "explain_item_p90_ms", "explain_set_p50_ms"],
}


def bench(workload, *extra, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    stdout, result = result_of(bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    for name in DETAIL[workload] + ["error_rate"]:
        assert f"  {name} " in stdout
    assert "env " in stdout and '"OPENBLAS_NUM_THREADS"' in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, result = result_of(bench(workload, trace=1))
    assert result["correct"]
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names) == sorted(PER_LAYER)
    assert result["metrics"]["trace.coverage"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("plant", ["influence", "exit"])
def test_planted_fault_raises_error_rate(workload, plant):
    stdout, result = result_of(bench(workload, "--plant", plant))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED" in stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_seeded_and_byte_deterministic(tmp_path):
    size = gen_ml100k.SIZES["full"]
    a = gen_ml100k.write(tmp_path / "a", size, 3)
    gen_ml100k.write(tmp_path / "b", size, 3)
    gen_ml100k.write(tmp_path / "c", size, 4)
    for name in ("ratings.csv", "movies.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    assert (a["users"], a["items"], a["nnz"]) == (943, 1682, 100_000)
    assert a["min_ratings_per_user"] >= 20
    assert 280 <= a["features_after_filter"] <= 340
    lines = (tmp_path / "a" / "ratings.csv").read_text().splitlines()[1:]
    assert {line.split(",")[2] for line in lines} == {"1", "2", "3", "4", "5"}


def test_self_time_subtracts_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 1.5, "end": 2.0},
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}


def test_install_refuses_a_missing_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setitem(spans.LAYERS, "influence", ("explain", "no_such_function"))
    with pytest.raises(AttributeError, match="no_such_function"):
        Tracer().install()


def test_failing_hook_is_reported(monkeypatch):
    def broken(attrs, args, kwargs, result):
        raise KeyError("shape")

    monkeypatch.setitem(spans.HOOKS, "demo.f", (None, broken))
    tracer = Tracer()
    assert tracer.wrap("demo.f", lambda: 3)() == 3
    assert hook_errors(tracer.spans) == ["demo.f hook: KeyError('shape')"]


def test_child_peak_rss_excludes_the_parent(tmp_path):
    """A child's wait4 peak RSS includes the parent's; the benchmark must
    report the child's own."""
    import workloads

    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    ctx = workloads.Context(src=ROOT / "src", work=tmp_path, seed=0, seconds=0,
                            traced=False)
    run = workloads.run_cli(["--help"], ctx, "help")
    del ballast
    assert run.code == 0, run.stderr
    assert 0 < run.rss_mb < 150
