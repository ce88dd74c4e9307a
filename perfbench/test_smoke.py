"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import hostspeed  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(*extra, cwd=ROOT, trace=0, workload="sweep-default"):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(workload=workload, trace=trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert "failed_frac   0 " in proc.stdout


def test_hostspeed_scale():
    assert hostspeed.scale(hostspeed.REF_S, hostspeed.REF_S) == 1.0
    assert hostspeed.scale(1.5 * hostspeed.REF_S, 2.5 * hostspeed.REF_S) == 0.5
    assert 0 < hostspeed.calibrate() < 1.0


def copy_bench(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_corrupted_reference_fails(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = tmp_path / "perfbench" / "reference" / "sweep-default" / "report.csv.gz"
    rows = list(csv.reader(io.StringIO(gzip.decompress(path.read_bytes()).decode())))
    col = rows[0].index("map_entropy")
    rows[5][col] = repr(float(rows[5][col]) * (1 + 1e-9) + 1e-9)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_bytes(gzip.compress(buf.getvalue().encode()))

    proc = run_bench(cwd=tmp_path)
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "failed_frac   0 " not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert '"metrics"' not in proc.stdout
