"""Import footprint: tempo_dp loads numpy alone until a scipy user runs.

Only ``lqt.kkt_oracle`` (dense KKT solve) needs scipy, and it imports it
when first called; the mass_spring builder's matrix exponential is numpy's.
The pytest process has scipy loaded already, so each check runs in a fresh
interpreter and reports ``sys.modules`` back as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys, tempfile
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
"""

CLI_RUNS = [
    ["tracking2d", "--T", "100", "--traj-method", "1"],
    ["tracking2d", "--T", "128", "--block-size", "8"],
    ["routing", "--T", "64", "--Dx", "5", "--traj-method", "2"],
    ["unicycle", "--T", "50", "--iters", "3"],
    ["mass_spring", "--T", "50", "--N", "4", "--traj-method", "2"],
]

CLI_THEN_ORACLE = PRELUDE + """
from tempo_dp import cli, lqt, scenarios
report["import"] = scipy_modules()
with tempfile.TemporaryDirectory() as out:
    report["exit_codes"] = [
        cli.main(args + ["--backend", "both", "--out", f"{out}/{i}"])
        for i, args in enumerate(json.loads(sys.argv[1]))
    ]
report["cli"] = scipy_modules()
p = scenarios.build_tracking2d(20)
cost, us, xs = lqt.kkt_oracle(p)
xs_ref, us_ref, _ = lqt.solve(p, "sequential")
report["kkt_dev"] = float(max(np.abs(xs - xs_ref).max(), np.abs(us - us_ref).max()))
report["kkt_oracle"] = scipy_modules()
print(json.dumps(report))
"""

MASS_SPRING = PRELUDE + """
from tempo_dp import lqt, scenarios
report["import"] = scipy_modules()
p = scenarios.build_mass_spring(4, 50)
xs_seq, us_seq, _ = lqt.solve(p, "sequential")
xs_par, us_par, _ = lqt.solve(p, "parallel", 2)
report["solves"] = scipy_modules()
report["dev"] = float(max(np.abs(xs_par - xs_seq).max(), np.abs(us_par - us_seq).max()))
report["F_shape"] = list(p.F.shape)
print(json.dumps(report))
"""


def run_child(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_runs_on_numpy_alone_and_kkt_oracle_loads_scipy():
    report = run_child(CLI_THEN_ORACLE, json.dumps(CLI_RUNS))
    assert report["import"] == []
    assert report["exit_codes"] == [0] * len(CLI_RUNS)
    assert report["cli"] == []
    assert report["kkt_dev"] <= 1e-7
    assert "scipy.linalg" in report["kkt_oracle"]


def test_mass_spring_build_and_solves_run_on_numpy_alone():
    report = run_child(MASS_SPRING)
    assert report["import"] == []
    assert report["solves"] == []
    assert report["dev"] <= 1e-9
    assert report["F_shape"] == [50, 8, 8]
