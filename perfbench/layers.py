"""Layer -> metric -> workload map of the traced run.

Each per-layer metric is named ``<module>.<metric>`` after the tempo_dp
module whose public functions the traced run wraps. ``moves`` names the
end-to-end metrics it should move and ``on`` the workloads where it does;
on the other workloads the layer does not run and the metric reads 0.
Later changes cite these names when they claim a gain on one layer.

Times are per solve (or per build, per write), scaled to reference seconds
like the end-to-end times (see reference.py), and are medians over the
traced repetitions of one run. Self time is a span's duration minus the
time covered by its child spans. Counts must repeat exactly.
"""

from __future__ import annotations

from typing import NamedTuple

ALL = ("tracking_long", "spring_wide", "routing_grid", "unicycle_ilqt")
LQT = ("tracking_long", "spring_wide", "unicycle_ilqt")
PAR = ("par_solve_s", "par_over_seq")


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    on: tuple[str, ...]


PER_LAYER = (
    # scan: the combine tree; its self time excludes the combines it calls.
    LayerMetric("scan.stacked_self_s", "s", "lower", PAR, ALL),
    LayerMetric("scan.object_self_s", "s", "lower", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("scan.pairs", "count", "lower", PAR, ALL),
    LayerMetric("scan.pairs_per_element", "ratio", "lower", PAR, ALL),
    LayerMetric("scan.depth_max", "count", "lower", PAR, ALL),
    # lqt: interval combines, the backward pass around them, and recovery.
    LayerMetric("lqt.combine_s", "s", "lower", PAR + ("peak_rss_mb",), LQT),
    LayerMetric("lqt.combine_us_per_pair", "us", "lower", PAR, LQT),
    LayerMetric("lqt.par_backward_s", "s", "lower", PAR, LQT),
    LayerMetric("lqt.par_backward_self_s", "s", "lower", PAR, LQT),
    LayerMetric("lqt.par_backward_peak_mb", "MB", "lower", ("peak_rss_mb",), LQT),
    LayerMetric("lqt.traj_s", "s", "lower", PAR, LQT),
    LayerMetric("lqt.controls_s", "s", "lower", PAR, LQT),
    LayerMetric("lqt.transform_s", "s", "lower", ("par_solve_s", "seq_solve_s"), ("unicycle_ilqt",)),
    LayerMetric("lqt.riccati_s", "s", "lower", ("seq_solve_s",), LQT),
    LayerMetric("lqt.rollout_s", "s", "lower", ("seq_solve_s",), LQT),
    LayerMetric("lqt.write_trajectory_s", "s", "lower", ("write_s",), ALL),
    # finite_dp: min-plus elements, combines and both trajectory passes.
    LayerMetric("finite_dp.build_elements_s", "s", "lower", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.solve_backward_s", "s", "lower", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.solve_backward_peak_mb", "MB", "lower", ("peak_rss_mb",), ("routing_grid",)),
    LayerMetric("finite_dp.combine_s", "s", "lower", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.minplus_gops", "Gop/s", "higher", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.forward_conditional_s", "s", "lower", ("par_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.bellman_s", "s", "lower", ("seq_solve_s",), ("routing_grid",)),
    LayerMetric("finite_dp.rollout_s", "s", "lower", ("seq_solve_s",), ("routing_grid",)),
    # nonlinear: the same loops run under both backends, so par_over_seq barely moves.
    LayerMetric("nonlinear.linearize_s", "s", "lower", ("par_solve_s", "seq_solve_s"), ("unicycle_ilqt",)),
    LayerMetric("nonlinear.cost_s", "s", "lower", ("par_solve_s", "seq_solve_s"), ("unicycle_ilqt",)),
    LayerMetric("nonlinear.lqt_s", "s", "lower", ("par_solve_s",), ("unicycle_ilqt",)),
    LayerMetric("nonlinear.iterations", "count", "lower", ("par_solve_s", "seq_solve_s"), ("unicycle_ilqt",)),
    # scenarios and cli: set-up and the output step.
    LayerMetric("scenarios.build_s", "s", "lower", ("setup_s",), ALL),
    LayerMetric("cli.write_runs_s", "s", "lower", ("write_s",), ALL),
    # the tracer itself: traced minus untraced par_solve_s in the same run.
    LayerMetric("trace.overhead_s", "s", "lower", (), ALL),
)

# Counts that must repeat exactly between repetitions and between runs.
EXACT = ("scan.pairs", "scan.depth_max", "nonlinear.iterations")


def rep_values(tracer, par: str, seq: str, build: str, write: str, minplus_dim: int) -> dict:
    """Per-layer values of one traced repetition, from the spans of its parallel
    solve, oracle solve, scenario build and output step (request ids)."""
    p, p_spans = tracer.summary(par)
    s, _ = tracer.summary(seq)
    b, _ = tracer.summary(build)
    w, _ = tracer.summary(write)

    def total(summary, *names):
        return sum(summary[n]["total"] for n in names if n in summary)

    def self_time(summary, name):
        return summary[name]["self"] if name in summary else 0.0

    def pairs(name):
        return sum(sp[5]["pairs"] for sp in p_spans if sp[0] == name)

    scans = [sp for sp in p_spans if sp[0].startswith("scan.")]
    all_pairs = pairs("lqt.combine") + pairs("finite_dp.combine")
    elements = sum(sp[5]["elements"] for sp in scans)
    lqt_combine = total(p, "lqt.combine")
    fd_combine = total(p, "finite_dp.combine")
    return {
        "scan.stacked_self_s": self_time(p, "scan.stacked"),
        "scan.object_self_s": self_time(p, "scan.object"),
        "scan.pairs": all_pairs,
        "scan.pairs_per_element": all_pairs / elements if elements else 0.0,
        "scan.depth_max": max((sp[5]["depth"] for sp in scans), default=0),
        "lqt.combine_s": lqt_combine,
        "lqt.combine_us_per_pair": 1e6 * lqt_combine / pairs("lqt.combine") if lqt_combine else 0.0,
        "lqt.par_backward_s": total(p, "lqt.parallel_backward"),
        "lqt.par_backward_self_s": self_time(p, "lqt.parallel_backward"),
        "lqt.traj_s": total(p, "lqt.traj_method1", "lqt.traj_method2"),
        "lqt.controls_s": total(p, "lqt.controls_along"),
        "lqt.transform_s": total(p, "lqt.transform_general_cost"),
        "lqt.riccati_s": total(s, "lqt.riccati_backward"),
        "lqt.rollout_s": total(s, "lqt.closed_loop_rollout"),
        "lqt.write_trajectory_s": total(w, "lqt.write_trajectory_csv"),
        "finite_dp.build_elements_s": total(p, "finite_dp.build_elements"),
        "finite_dp.solve_backward_s": total(p, "finite_dp.solve_backward"),
        "finite_dp.combine_s": fd_combine,
        "finite_dp.minplus_gops": (
            pairs("finite_dp.combine") * minplus_dim**3 / fd_combine / 1e9 if fd_combine else 0.0
        ),
        "finite_dp.forward_conditional_s": total(p, "finite_dp.forward_conditional"),
        "finite_dp.bellman_s": total(s, "finite_dp.seq_bellman"),
        "finite_dp.rollout_s": total(s, "finite_dp.rollout_policy"),
        "nonlinear.linearize_s": total(p, "nonlinear.linearize"),
        "nonlinear.cost_s": total(p, "nonlinear.nonlinear_cost"),
        "nonlinear.lqt_s": sum(
            sp[2] - sp[1] for sp in p_spans
            if sp[0].startswith("lqt.") and tracer.parent_name(sp) == "nonlinear.ilqt"
        ),
        "nonlinear.iterations": p.get("nonlinear.linearize", {}).get("calls", 0),
        "scenarios.build_s": sum(v["total"] for k, v in b.items() if k.startswith("scenarios.")),
        "cli.write_runs_s": total(w, "cli.write_runs_csv"),
    }


def scaled(values: dict, scale: float) -> dict:
    """Times of one repetition scaled to reference seconds (see reference.py)."""
    factor = {m.name: {"s": scale, "us": scale, "Gop/s": 1 / scale}.get(m.unit, 1) for m in PER_LAYER}
    return {k: v * factor[k] for k, v in values.items()}


def depth_violations(spans: list[list]) -> list[str]:
    """Scans whose combine depth exceeds 2*ceil(log2 n) + 1."""
    out = []
    for sp in spans:
        if sp[0].startswith("scan."):
            n, depth = sp[5]["elements"], sp[5]["depth"]
            bound = 2 * (n - 1).bit_length() + 1
            if depth > bound:
                out.append(f"{sp[0]} over {n} elements has depth {depth} > {bound}")
    return out
