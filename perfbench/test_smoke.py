"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced, every metric named in
BENCHMARK.json appears with its unit, no solve fails, every layer metric
reads non-zero on the workloads where layers.py says its layer runs, and
the traced run leaves no wrapper behind.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


def test_benchmark_json_matches_harness():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ]


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end(workload):
    metrics = run(workload, 0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert metrics["pass_rate"]["value"] == 1.0  # error_rate 0
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced(workload):
    metrics = run(workload, 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for m in layers.PER_LAYER:
        if workload in m.on and m.name != "trace.overhead_s":
            assert metrics[m.name]["value"] > 0, m.name


@pytest.mark.parametrize("workload", NAMES)
def test_wrappers_removed_after_trace(workload):
    before = [getattr(mod, attr) for mod, attr in tracer.targets()]
    tr = tracer.Tracer()
    case = workloads.build(workload, 0, tiny=True)
    with tr.installed():
        assert all(getattr(mod, attr) is not f for (mod, attr), f in zip(tracer.targets(), before))
        with tr.solve("par"):
            case.par()
    assert all(getattr(mod, attr) is f for (mod, attr), f in zip(tracer.targets(), before))
    seen = tr.summary("par")[0]
    assert set(workloads.EXPECTED_SPANS[workload]["par"]) <= set(seen)


def test_renamed_target_fails_and_restores():
    from tempo_dp import lqt

    def wrap(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs)

    original = lqt.parallel_backward
    with pytest.raises(AttributeError):
        with tracer.patched({(lqt, "parallel_backward"): wrap, (lqt, "no_such_function"): wrap}):
            pass
    assert lqt.parallel_backward is original
