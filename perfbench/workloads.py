"""The four benchmark workloads: problem builders, the two solve paths, and
the output checks that compare the parallel path against the oracle.

Every workload builds its problem through a ``tempo_dp.scenarios`` builder
and calls the library only through module attributes (``lqt.riccati_backward``
rather than an imported name), so the traced run can replace those
attributes from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from tempo_dp import cli, finite_dp, lqt, nonlinear, scenarios

# Tolerances of the acceptance criteria: 3 (LQT trajectories) and 8
# (nonlinear backend equivalence). Routing is compared exactly.
LQT_TOL = 1e-7
ILQT_TOL = 1e-6
ILQT_ITERS = 5

# name -> (why, full size, tiny size); the tiny sizes serve the smoke test.
WORKLOADS = {
    "tracking_long": (
        "n_x=4, T=1e4, Method 1: small combines, so tree bookkeeping, padding and list packaging dominate",
        {"T": 10_000},
        {"T": 50},
    ),
    "spring_wide": (
        "n_x=32, T=500, Method 2: the batched 32x32 interval combine dominates; the oracle is 16x faster",
        {"N": 16, "T": 500},
        {"N": 2, "T": 20},
    ),
    "routing_grid": (
        "D_x=31, T=500, Method 2: the only finite_dp user; min-plus kernel and the per-object forward scan",
        {"D_x": 31, "T": 500},
        {"D_x": 5, "T": 16},
    ),
    "unicycle_ilqt": (
        "T=1000, 5 fixed iterations: the only nonlinear user; per-step Python loops in linearize and cost",
        {"T": 1000, "iters": ILQT_ITERS},
        {"T": 20, "iters": 2},
    ),
}

# Spans the traced run must see per request kind; a rename in the library
# makes the run fail instead of reporting zeros.
_LQT_SEQ = ("lqt.riccati_backward", "lqt.closed_loop_rollout")
_WRITE = ("lqt.write_trajectory_csv", "cli.write_runs_csv")
EXPECTED_SPANS = {
    "tracking_long": {
        "build": ("scenarios.build_tracking2d",),
        "par": ("lqt.parallel_backward", "scan.stacked", "lqt.combine", "lqt.traj_method1",
                "lqt.controls_along"),
        "seq": _LQT_SEQ,
        "write": _WRITE,
    },
    "spring_wide": {
        "build": ("scenarios.build_mass_spring",),
        "par": ("lqt.parallel_backward", "scan.stacked", "lqt.combine", "lqt.traj_method2",
                "lqt.controls_along"),
        "seq": _LQT_SEQ,
        "write": _WRITE,
    },
    "routing_grid": {
        "build": ("scenarios.build_routing",),
        "par": ("finite_dp.solve_backward", "finite_dp.build_elements", "scan.stacked",
                "scan.object", "finite_dp.combine", "finite_dp.forward_conditional",
                "finite_dp.recover_traj_m2"),
        "seq": ("finite_dp.seq_bellman", "finite_dp.rollout_policy"),
        "write": _WRITE,
    },
    "unicycle_ilqt": {
        "build": ("scenarios.build_unicycle",),
        "par": ("nonlinear.ilqt", "nonlinear.linearize", "nonlinear.nonlinear_cost",
                "lqt.transform_general_cost", "lqt.parallel_backward", "scan.stacked",
                "lqt.combine", "lqt.traj_method1", "lqt.controls_along"),
        "seq": ("nonlinear.ilqt", "nonlinear.linearize", "nonlinear.nonlinear_cost") + _LQT_SEQ,
        "write": _WRITE,
    },
}


@dataclass
class Case:
    """One built workload: its problem and the two ways to solve it.

    ``par`` returns (states, controls, scan stats or None); ``seq`` returns
    (states, controls); ``check`` returns None when the parallel result
    matches the oracle and a reason otherwise.
    """

    scenario: str
    T: int
    problem: object
    par: Callable[[], tuple]
    seq: Callable[[], tuple]
    check: Callable[[tuple, tuple], str | None]


def _max_dev(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _close(tol: float):
    def check(par_out, seq_out):
        for what, x, y in (("states", par_out[0], seq_out[0]), ("controls", par_out[1], seq_out[1])):
            dev = _max_dev(x, y)
            if not dev <= tol:  # also catches NaN
                return f"{what} differ from the oracle by {dev:.3e} > {tol:g}"
        return None

    return check


def _lqt_case(scenario: str, p: lqt.LqtProblem, traj_method: int) -> Case:
    def par():
        values, gains, stats = lqt.parallel_backward(p, return_stats=True)
        if traj_method == 1:
            xs = lqt.traj_method1(p, gains, values)
        else:
            xs = lqt.traj_method2(p, values)
        return xs, lqt.controls_along(p, values, gains, xs), stats

    def seq():
        values, gains = lqt.riccati_backward(p)
        return lqt.closed_loop_rollout(p, values, gains)

    return Case(scenario, p.N, p, par, seq, _close(LQT_TOL))


def _routing_case(p: finite_dp.FiniteProblem) -> Case:
    def par():
        pol, stats = finite_dp.solve_backward(p, return_stats=True)
        fw = finite_dp.forward_conditional(p)
        xs = finite_dp.recover_traj_m2(p, fw, pol)
        return xs, pol.u[np.arange(p.N), xs[:-1]], stats

    def seq():
        return finite_dp.rollout_policy(p, finite_dp.seq_bellman(p))

    def check(par_out, seq_out):
        if not np.array_equal(par_out[0], seq_out[0]):
            return "states differ from the Bellman rollout"
        cost_par = finite_dp.trajectory_cost(p, par_out[0], par_out[1])
        cost_seq = finite_dp.trajectory_cost(p, seq_out[0], seq_out[1])
        if cost_par != cost_seq:
            return f"total cost {cost_par} differs from the oracle's {cost_seq}"
        return None

    return Case("routing", p.N, p, par, seq, check)


def _unicycle_case(p: nonlinear.NonlinearProblem, iters: int) -> Case:
    def par():
        xs, us, _ = nonlinear.ilqt(p, iters=iters, backend="parallel", traj_method=1)
        return xs, us, None

    def seq():
        xs, us, _ = nonlinear.ilqt(p, iters=iters, backend="sequential")
        return xs, us

    return Case("unicycle", p.N, p, par, seq, _close(ILQT_TOL))


def build(name: str, seed: int, tiny: bool = False) -> Case:
    """Build a workload's problem from its seed (``mass_spring`` has none)."""
    size = WORKLOADS[name][2 if tiny else 1]
    if name == "tracking_long":
        return _lqt_case("tracking2d", scenarios.build_tracking2d(size["T"], seed=seed), 1)
    if name == "spring_wide":
        return _lqt_case("mass_spring", scenarios.build_mass_spring(size["N"], size["T"]), 2)
    if name == "routing_grid":
        return _routing_case(scenarios.build_routing(size["D_x"], size["T"], seed=seed))
    if name == "unicycle_ilqt":
        return _unicycle_case(scenarios.build_unicycle(size["T"], seed=seed), size["iters"])
    raise ValueError(f"unknown workload {name!r}")


def write_outputs(case: Case, out_dir, par_out, wall_ms: dict) -> None:
    """The CLI's output step for the parallel result: trajectory.csv and runs.csv."""
    xs = np.asarray(par_out[0], dtype=np.float64)
    us = np.asarray(par_out[1], dtype=np.float64)
    stats = par_out[2]
    records = [
        cli.RunRecord(case.scenario, "sequential", case.T, wall_ms["seq"], case.T, case.T),
        cli.RunRecord(case.scenario, "parallel", case.T, wall_ms["par"],
                      stats.combine_count if stats else 0, stats.combine_depth if stats else 0),
    ]
    lqt.write_trajectory_csv(out_dir / "trajectory.csv", xs, us)
    cli.write_runs_csv(out_dir / "runs.csv", records)


def check_outputs(out_dir, par_out) -> str | None:
    """Read the written trajectory back; repr() floats must round-trip exactly."""
    xs = np.asarray(par_out[0], dtype=np.float64)
    us = np.asarray(par_out[1], dtype=np.float64)
    if xs.ndim == 1:
        xs, us = xs[:, None], us[:, None]
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    if len(lines) != len(xs) + 1:
        return f"trajectory.csv has {len(lines) - 1} rows, expected {len(xs)}"
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        got = np.array([float(c) for c in cells[1:] if c])
        want = np.concatenate([xs[k], us[k] if k < len(us) else []])
        if int(cells[0]) != k or not np.array_equal(got, want):
            return f"trajectory.csv row {k} does not match the solve"
    if len((out_dir / "runs.csv").read_text().splitlines()) != 3:
        return "runs.csv does not hold a header and two records"
    return None
