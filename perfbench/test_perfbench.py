"""The benchmark's own tests: every workload runs briefly, traced and untraced.

Run from the root of a checkout (takes about three minutes):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# train-tiny is not in BENCHMARK.json, but it still runs and is tested here.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["train-tiny"]
COMMAND = [sys.executable, *SPEC["command"][1:]]
TIMEOUT_S = 180
# Runs run.main in a child with every output check made to fail.
FAILING_CHECKS = ("import sys; sys.path.insert(0, 'perfbench'); import run, workloads; "
                  "workloads.TOL = -1.0; run.main(sys.argv[1:])")


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run([*COMMAND, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name
    if trace:
        spans = json.loads((ROOT / ".bench_out" / f"spans-{workload}-seed7.json").read_text())
        assert spans["workload"] == workload and spans["host"]["MASA_KIT_THREADS"] == "2"
        assert all(s["end"] >= s["start"] for s in spans["spans"])


def test_a_failed_check_still_prints_a_result_and_exits_1():
    done = subprocess.run([sys.executable, "-c", FAILING_CHECKS, "--workload", "masa-full-sweep",
                           "--seed", "7", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and 1 <= result["failed"] <= result["attempted"]
    assert "CheckFailed" in done.stderr
    assert {"setup_s", "peak_rss_mb", "ok_ops_ratio"} <= set(result["metrics"])
    assert "fwd_ms.p50" not in result["metrics"]


def test_the_masa_oracle_stays_far_below_the_programs_peak_memory():
    # masa_full alone peaks near 470 MB at side 48; the oracle must not hide a cut in peak_rss_mb.
    code = ("import sys, resource; sys.path.insert(0, 'perfbench'); import run, workloads; "
            "workloads.MasaFullSweep(7).prepare_checks(); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[-1]) < 150


def test_callers_thread_settings_do_not_leak_in(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("MASA_KIT_THREADS", "1")
    done = run("masa-full-sweep", 0)
    assert done.returncode == 0, done.stderr
    host = json.loads(done.stdout.splitlines()[0].removeprefix("host "))
    assert host["MASA_KIT_THREADS"] == "2"


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
