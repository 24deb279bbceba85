"""Smoke test of the benchmark: every workload at tiny size, every metric
present with its unit, and the output checks catching corrupted output.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibrate import REFERENCE_S, speed_factor  # noqa: E402
from checks import check_item  # noqa: E402
from child import run_item  # noqa: E402
from workloads import CAL_WEIGHTS, WORKLOADS, generate  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, seconds: float = 0.3) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(workload, trace):
    spec = _spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if m["name"].endswith((".calls", ".self_ms")):
            # every traced function runs in every traced run
            assert got["value"] > 0, m["name"]


def test_counts_depend_on_the_seed_only():
    """attempted and failed count distinct items, so the run length does not
    change them."""
    short, longer = _run("device_validation", 0, 0.3), _run("device_validation", 0, 3.0)
    assert (short["attempted"], short["failed"]) == (longer["attempted"], longer["failed"])


def test_calibration_at_reference_speed_is_identity():
    samples = [REFERENCE_S] * 3
    for weights in CAL_WEIGHTS.values():
        assert speed_factor(samples, weights) == pytest.approx(1.0)
    slow = [tuple(2.0 * t for t in REFERENCE_S)] * 3
    assert speed_factor(slow, (0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.5)


def test_calibration_weights_are_shares():
    for weights in CAL_WEIGHTS.values():
        assert len(weights) == len(REFERENCE_S)
        assert sum(weights) == pytest.approx(1.0)


def _first_ok(workload: str, kind: str, tmp_path):
    """The first item of a tiny workload that runs and passes its check."""
    wl = generate(workload, 5, str(tmp_path), "tiny")
    for item in wl.items:
        if item.kind != kind:
            continue
        code, _, out = run_item(item.argv)
        if check_item(item, code, out).ok:
            return item, out
    raise AssertionError(f"no passing {kind} item in {workload}")


def test_check_catches_a_missing_pole(tmp_path):
    item, out = _first_ok("device_validation", "poles", tmp_path)
    doc = json.loads(out)
    doc["siegert"] = doc["siegert"][1:]
    verdict = check_item(item, 0, json.dumps(doc))
    assert not verdict.ok and verdict.category == "check"


def test_check_catches_a_perturbed_pole(tmp_path):
    item, out = _first_ok("device_validation", "poles", tmp_path)
    doc = json.loads(out)
    doc["siegert"][0]["z_re"] += 1e-3
    verdict = check_item(item, 0, json.dumps(doc))
    assert not verdict.ok and not verdict.visible


def test_check_catches_a_perturbed_sweep_row(tmp_path):
    item, out = _first_ok("tdot_sweep", "sweep", tmp_path)
    lines = out.splitlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    lines[5] = ",".join(fields)
    verdict = check_item(item, 0, "\n".join(lines) + "\n")
    assert not verdict.ok and not verdict.visible


def test_check_catches_broken_unitarity(tmp_path):
    item, out = _first_ok("transmission_spectrum", "transmission", tmp_path)
    lines = out.splitlines()
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[3] = ",".join(fields)
    assert not check_item(item, 0, "\n".join(lines) + "\n").ok


def test_check_catches_a_large_oracle_residual(tmp_path):
    item, out = _first_ok("oracle_audit", "oracle", tmp_path)
    doc = json.loads(out)
    doc["poles"][0]["residual"] = 1e-6
    assert not check_item(item, 0, json.dumps(doc)).ok


def test_exit_codes_count_as_failures(tmp_path):
    item, _ = _first_ok("oracle_audit", "oracle", tmp_path)
    assert check_item(item, 2, "").category == "exit2"
    assert check_item(item, 3, "").category == "exit3"


def test_no_sources_means_no_result(tmp_path):
    """Outside a source checkout the runner fails without printing a result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH_DIR, name)).read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tdot_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
