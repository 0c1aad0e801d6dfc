"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload on one input cycle.  Checks that each run prints every
metric of ``BENCHMARK.json`` with its unit, that the digests do not depend on
``PYTHONHASHSEED``, and that traced call counts repeat exactly.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, hashseed="0"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--cycles", "1",
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = dict(re.fullmatch(r"metric (\S+) = \S+ (\S+)", line).groups()
                   for line in lines if line.startswith("metric "))
    digests = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), printed, digests


def expect(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_digests(workload):
    result, printed, digests = bench(workload, 0, hashseed="1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert printed == dict(expect("end_to_end"), fail_ratio="ratio",
                           **{"item_ms.n": "count"})
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        expect("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    _, _, digests_again = bench(workload, 0, hashseed="2")
    assert digests_again.split(" recorded=")[0] == digests.split(" recorded=")[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, printed, _ = bench(workload, 1)
    assert result["correct"]
    assert printed == expect("per_layer")
    calls = result["metrics"]["analysis.impedance.calls_per_item"]["value"]
    if workload == "verify_corpus":
        assert calls > 1
    if workload == "ladder_impedance":
        assert calls == 1
    if workload == "cli_batch":
        again, _, _ = bench(workload, 1, hashseed="5")
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".calls") or k.startswith("cli.exit.")}
        assert counts == {k: again["metrics"][k]["value"] for k in counts}

