"""Smoke test of the benchmark itself, at tiny sizes of every workload.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "sample-thermal": {"modes": 3, "shots": 8192},
    "psd-permanent": {"n": 2, "shots": 20_000},
    "exact-kernels": {"perm_n": 6, "haf_n": 6, "cross_n": 2},
    "cli-batch": {"modes": 4, "n_max": 2, "mixed_modes": 4, "mat_n": 4},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(name: str, trace: bool, workdir: Path) -> dict:
    return run.measure(name, seed=3, seconds=0.01, trace=trace, sizes=TINY, workdir=workdir)


def _units(res: dict) -> dict:
    return {k: v["unit"] for k, v in res["metrics"].items()}


def _printed(res: dict, capsys) -> list[str]:
    run.print_result(res)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    return lines


@pytest.mark.parametrize("name", run.NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(name, tmp_path, capsys):
    res = _measure(name, False, tmp_path)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    lines = _printed(res, capsys)
    for m in SPEC["end_to_end"]:
        assert any(ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"]) for ln in lines), m["name"]


def test_every_per_layer_metric_is_printed_with_its_unit(tmp_path, capsys):
    res = _measure("exact-kernels", True, tmp_path)
    assert res["correct"], res
    assert _units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    lines = _printed(res, capsys)
    for m in SPEC["per_layer"]:
        assert any(ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"]) for ln in lines), m["name"]


def test_wrong_reference_is_a_failed_op_not_a_slow_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(W, "double_factorial", lambda k: math.prod(range(k, 0, -2)) + 1)
    res = _measure("exact-kernels", False, tmp_path)
    assert not res["correct"]
    assert res["failed"] == 1 and res["attempted"] == run.SETUP_REPEATS + 8
    assert "FAILED hafnian_ones" in capsys.readouterr().err
    # the op still completed and was timed like the others
    assert res["metrics"]["op_s.p90"]["value"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sample-thermal", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
