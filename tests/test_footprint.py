"""Dependency footprint: tempo_dp runs on numpy alone and declares nothing else.

scipy is a test-only extra (the reference matrix exponential in
test_scenarios.py). The pytest process has scipy loaded already, so each
runtime check runs in a fresh interpreter whose import system refuses
scipy and records every attempt, and reports back as JSON: the CLI runs,
the mass_spring builder, both solve backends and the dense KKT oracle all
run there. The declared dependencies are checked against the package's
imports, read from its source.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CLI_RUNS = [
    ["tracking2d", "--T", "100", "--traj-method", "1"],
    ["tracking2d", "--T", "128", "--block-size", "8"],
    ["routing", "--T", "64", "--Dx", "5", "--traj-method", "2"],
    ["unicycle", "--T", "50", "--iters", "3"],
    ["mass_spring", "--T", "50", "--N", "4", "--traj-method", "2"],
]

PRELUDE = """
import json, sys, tempfile

attempts = []

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
            raise ImportError(f"{name} is blocked: tempo_dp must run on numpy alone")
        return None

sys.meta_path.insert(0, NoScipy())

import numpy as np

def scipy_report():
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return {"attempts": attempts, "loaded": loaded}

report = {}
"""

CLI_AND_ORACLE = PRELUDE + """
from tempo_dp import cli, lqt, scenarios
with tempfile.TemporaryDirectory() as out:
    report["exit_codes"] = [
        cli.main(args + ["--backend", "both", "--out", f"{out}/{i}"])
        for i, args in enumerate(json.loads(sys.argv[1]))
    ]
p = scenarios.build_tracking2d(20)
cost, us, xs = lqt.kkt_oracle(p)
xs_ref, us_ref, _ = lqt.solve(p, "sequential")
report["kkt_dev"] = float(max(np.abs(xs - xs_ref).max(), np.abs(us - us_ref).max()))
report["scipy"] = scipy_report()
print(json.dumps(report))
"""

MASS_SPRING = PRELUDE + """
from tempo_dp import lqt, scenarios
p = scenarios.build_mass_spring(4, 50)
xs_seq, us_seq, _ = lqt.solve(p, "sequential")
xs_par, us_par, _ = lqt.solve(p, "parallel", 2)
report["dev"] = float(max(np.abs(xs_par - xs_seq).max(), np.abs(us_par - us_seq).max()))
report["F_shape"] = list(p.F.shape)
report["scipy"] = scipy_report()
print(json.dumps(report))
"""

NO_SCIPY = {"attempts": [], "loaded": []}


def run_child(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_runs_and_kkt_oracle_with_scipy_blocked():
    report = run_child(CLI_AND_ORACLE, json.dumps(CLI_RUNS))
    assert report["exit_codes"] == [0] * len(CLI_RUNS)
    assert report["kkt_dev"] <= 1e-7
    assert report["scipy"] == NO_SCIPY


def test_mass_spring_build_and_solves_run_on_numpy_alone():
    report = run_child(MASS_SPRING)
    assert report["dev"] <= 1e-9
    assert report["F_shape"] == [50, 8, 8]
    assert report["scipy"] == NO_SCIPY


def imported_top_level_modules(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    third_party = (
        imported_top_level_modules(sorted((SRC / "tempo_dp").glob("*.py")))
        - set(sys.stdlib_module_names)
        - {"tempo_dp"}
    )
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
    assert third_party == {"numpy"}
    assert declared == {"numpy"}
