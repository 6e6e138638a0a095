"""Memory guards: large LQT solves (a time-invariant, a time-varying and a
periodic model) and a large finite-DP solve stay below fixed memory bounds
and still match their oracles.

Each guard runs in a fresh interpreter, so that its peak is its own and not
that of the test process: ``tracemalloc`` traces only the child's
allocations, and ``ru_maxrss`` is the child's peak resident set.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

LQT_GUARD = """
import sys, tracemalloc
import numpy as np
from dataclasses import replace
from helpers import max_value_dev
from tempo_dp import lqt, scenarios
# n_x = 32, T = 4000: the backward pass's traced memory grows with the
# element stacks and up-sweep nodes it holds at once, so a copied stack,
# a node kept twice or a dense C beside a thin factor shows here first.
p = scenarios.build_mass_spring(16, 4000)
{problem}
tracemalloc.start()
values, _ = lqt.parallel_backward(p)
peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.reset_peak()
xs = lqt.traj_method2(p, values)
m2_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
ref_values, ref_gains = lqt.riccati_backward(p)
dev = max_value_dev(values, ref_values)
if not dev <= 1e-9:  # also catches NaN
    sys.exit(f"parallel_backward: S, v differ from riccati_backward by {{dev:.3e}} > 1e-9")
if not peak_mb < {peak}:
    sys.exit(f"parallel_backward traced peak {{peak_mb:.1f}} MiB >= {peak} MiB")
xs_dev = float(abs(xs - lqt.closed_loop_rollout(p, ref_values, ref_gains)[0]).max())
if not xs_dev <= 1e-9:
    sys.exit(f"traj_method2: states differ from the Riccati rollout by {{xs_dev:.3e}} > 1e-9")
if not m2_peak_mb < {m2_peak}:
    sys.exit(f"traj_method2 traced peak {{m2_peak_mb:.1f}} MiB >= {m2_peak} MiB")
print(f"LQT n_x=32 T=4000: S, v within {{dev:.1e}} of Riccati, traced peak {{peak_mb:.1f}} MiB < {peak} MiB; "
      f"Method-2 states within {{xs_dev:.1e}} of the rollout, traced peak {{m2_peak_mb:.1f}} MiB < {m2_peak} MiB")
"""

# The model is the same at every step, so the stage elements' A, C and J
# are stride-0 stacks of one row, and so are the nodes of every up-sweep
# level: parallel_backward peaks near 90 MiB and Method 2 near 83 MiB. A
# stride-0 stack materialized along the way (a 4000-step J alone is
# 31 MiB) crosses these bounds.
LQT_TIME_INVARIANT = LQT_GUARD.format(problem="", peak=100, m2_peak=92)

# X and U scaled per step, so that C and J are full per-step stacks (A is
# still shared): parallel_backward peaks near 159 MiB (levels 0-3 hold G'
# in C's slot) and Method 2 over the values and carried nodes near 119 MiB
# (its scan forms the prefixes of the even steps alone, and each odd state
# is one step of the control law, which reads no stage element)
LQT_TIME_VARYING = LQT_GUARD.format(
    problem="w = 1 + 0.5 * np.sin(np.arange(p.N))[:, None, None]\np = replace(p, X=p.X * w, U=p.U * (2 - w))",
    peak=190,
    m2_peak=144,
)

# X weighted with period 10, so that every J is one of 10 rows (A and C are
# shared): the stage elements and the nodes of each level are per-step
# stacks gathered from their classes' rows, and the combines run their
# matrix arithmetic once per class. parallel_backward peaks near 157 MiB and
# Method 2 near 119 MiB; a class path that kept a second copy of a per-step
# stack (a 4000-step J is 31 MiB) crosses these bounds.
LQT_PERIODIC = LQT_GUARD.format(
    problem="w = (1 + 0.5 * np.sin(np.arange(10)))[np.arange(p.N) % 10, None, None]\np = replace(p, X=p.X * w)",
    peak=175,
    m2_peak=132,
)

FINITE_DP_GUARD = """
import resource, sys
import numpy as np
from tempo_dp import finite_dp, scenarios
# D_x = 63, T = 1024: a min-plus kernel that materializes (batch, D, D, D)
# sums peaks above 1 GB here; the blocked kernel and pinned outputs stay near 130 MB
p = scenarios.build_routing(63, 1024, seed=1)
if not np.array_equal(finite_dp.solve_backward(p).V, finite_dp.seq_bellman(p).V):
    sys.exit("solve_backward: V differs from seq_bellman")
xs_ref, us_ref, _ = finite_dp.solve(p, "sequential")
cost_ref = finite_dp.trajectory_cost(p, xs_ref, us_ref)
for method in (2, 1):
    xs, us, _ = finite_dp.solve(p, "parallel", method)
    if not np.array_equal(xs, xs_ref):
        sys.exit(f"Method-{method} states differ from the Bellman rollout")
    cost = finite_dp.trajectory_cost(p, xs, us)
    if cost != cost_ref:
        sys.exit(f"Method-{method} cost {cost} differs from the Bellman rollout's {cost_ref}")
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
if not peak_mb < 400:
    sys.exit(f"finite-DP peak RSS {peak_mb:.0f} MB >= 400 MB")
print(f"finite-DP D_x=63 T=1024: V, Method-1 and Method-2 states and costs equal Bellman's, "
      f"peak RSS {peak_mb:.0f} MB < 400 MB")
"""


@pytest.mark.parametrize(
    "script",
    [LQT_TIME_INVARIANT, LQT_TIME_VARYING, LQT_PERIODIC, FINITE_DP_GUARD],
    ids=["lqt", "lqt_time_varying", "lqt_periodic", "finite_dp"],
)
def test_memory_guard(script):
    path = os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr or run.stdout
