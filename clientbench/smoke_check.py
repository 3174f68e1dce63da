"""Smoke check of the benchmark itself, at small scale (~1 minute).

Run from the repository root, either way::

    python3 clientbench/smoke_check.py
    python3 -m pytest -q clientbench/smoke_check.py

It checks that

* ``BENCHMARK.json`` declares the workloads and metrics the benchmark
  defines, with the same units;
* every workload emits every declared metric, with its unit, with
  tracing off and on;
* the oracle catches a value written behind its back, and the command
  then exits non-zero;
* the simulated and counted metrics repeat exactly for a fixed seed and
  op count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: 5000 keys still make the faults workload's tree ~2x its pool; 7500
#: timed ops reach the first crash/restart cycle after warm-up (op 9000)
SMALL = ("--keys", "5000", "--ops", "7500", "--seed", "3")


def bench(workload: str, *args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         *SMALL, *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue() -> None:
    spec = declared()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: info["unit"] for name, info in END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: info["unit"] for name, info in PER_LAYER.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_emits_every_metric_with_its_unit() -> None:
    spec = declared()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            code, result = bench(workload, "--trace", trace)
            assert code == 0, (workload, trace, result)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] > 7500
            assert {k: v["unit"] for k, v in result["metrics"].items()} \
                == units, (workload, trace)
            if section == "end_to_end":
                assert all(v["value"] > 0
                           for v in result["metrics"].values()), workload


def test_oracle_catches_a_planted_wrong_value() -> None:
    code, result = bench("embedded-hot", "--trace", "0",
                         "--plant-wrong-value")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_a_window_without_repairs_fails_the_run() -> None:
    saved = workloads.FAULT_BUDGET
    workloads.FAULT_BUDGET = 10  # spent during the warm-up
    try:
        result = workloads.measure(WORKLOADS["embedded-faults"], seed=3,
                                   seconds=0, ops=7500, keys=5000)
    finally:
        workloads.FAULT_BUDGET = saved
    assert result["correct"] is False
    assert any("saw no single-page repair" in e for e in result["errors"])


def test_sim_and_count_metrics_repeat_for_a_fixed_seed() -> None:
    repeatable = [name for name, info in PER_LAYER.items()
                  if info["kind"] in ("sim", "count")]
    runs = [bench("embedded-faults", "--trace", "1")[1] for _ in range(2)]
    first, second = ({name: run["metrics"][name]["value"]
                      for name in repeatable} for run in runs)
    assert first == second
    for name in ("repair_io_sim_ms_p50", "restart_sim_ms",
                 "storage.device.sim_ms_per_op"):
        assert first[name] > 0, name


if __name__ == "__main__":
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            check()
            print(f"ok  {name}")
