"""Outside-in tracing of tempo_dp's public functions.

``Tracer.installed()`` replaces the functions listed in ``TRACED`` and the
scan entry points listed in ``SCANS`` on their module objects with timing
wrappers, and restores the originals on exit. A scan wrapper also wraps the
``combine`` callable the scan receives, so every combine call is a span and
its batch size is counted. Nothing inside the library changes: spans exist
only at the boundaries a caller can reach.

A span is (name, start, end, parent, request, attrs). Spans of one solve
share a request identifier. They stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, public functions) whose calls become spans named "<module>.<function>"
TRACED = (
    ("scenarios", ("build_tracking2d", "build_mass_spring", "build_routing", "build_unicycle")),
    ("lqt", ("parallel_backward", "traj_method1", "traj_method2", "controls_along",
             "riccati_backward", "closed_loop_rollout", "transform_general_cost",
             "write_trajectory_csv")),
    ("finite_dp", ("build_elements", "solve_backward", "forward_conditional", "recover_traj_m2",
                   "seq_bellman", "rollout_policy")),
    ("nonlinear", ("ilqt", "linearize", "nonlinear_cost")),
    ("cli", ("write_runs_csv",)),
)
# (calling module, scan entry point it imported, span name); combines that the
# scan calls become spans named "<calling module>.combine"
SCANS = (
    ("lqt", "par_scan_stacked", "scan.stacked"),
    ("lqt", "par_scan", "scan.object"),
    ("finite_dp", "par_scan_stacked", "scan.stacked"),
    ("finite_dp", "par_scan", "scan.object"),
)


def _module(name: str):
    return importlib.import_module(f"tempo_dp.{name}")


def targets() -> list[tuple[object, str]]:
    """Every (module object, attribute) the tracer replaces."""
    out = [(_module(m), f) for m, funcs in TRACED for f in funcs]
    out += [(_module(m), f) for m, f, _ in SCANS]
    return out


@contextlib.contextmanager
def patched(wrappers: dict):
    """Set ``module.attr = wrapper`` for each ((module, attr), wrapper); undo on exit.

    A missing attribute raises, so a rename in the library fails the run
    instead of silently tracing nothing.
    """
    saved = []
    try:
        for (mod, attr), wrapper in wrappers.items():
            original = getattr(mod, attr)  # AttributeError on a rename
            saved.append((mod, attr, original))
            setattr(mod, attr, wrapper(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

            return wrapper

        return wrap

    def _scan(self, name: str, combine_name: str):
        stacked = name == "scan.stacked"

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(elements, combine, *args, **kwargs):
                @functools.wraps(combine)
                def traced_combine(a, b):
                    idx = self._open(combine_name)
                    try:
                        return combine(a, b)
                    finally:
                        self._close(idx)
                        self.spans[idx][5]["pairs"] = int(a[0].shape[0]) if stacked else 1

                idx = self._open(name)
                try:
                    out, stats = fn(elements, traced_combine, *args, **kwargs)
                finally:
                    self._close(idx)
                n = int(elements[0].shape[0]) if stacked else len(elements)
                self.spans[idx][5].update(elements=n, depth=stats.combine_depth)
                return out, stats

            return wrapper

        return wrap

    @contextlib.contextmanager
    def installed(self):
        wrappers = {(_module(m), f): self._timed(f"{m}.{f}") for m, funcs in TRACED for f in funcs}
        for m, f, name in SCANS:
            wrappers[(_module(m), f)] = self._scan(name, f"{m}.combine")
        with patched(wrappers):
            yield self

    @contextlib.contextmanager
    def solve(self, request: str):
        """Tag the spans opened inside with one request identifier."""
        self.request = request
        try:
            yield
        finally:
            self.request = ""

    def summary(self, request: str) -> tuple[dict, list[list]]:
        """Calls, total and self seconds per span name within one request,
        and that request's spans."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == request]
        covered: dict[int, float] = {}
        for _, s in mine:
            if s[3] is not None:
                covered[s[3]] = covered.get(s[3], 0.0) + (s[2] - s[1])
        by_name: dict[str, dict] = {}
        for i, s in mine:
            dur = s[2] - s[1]
            entry = by_name.setdefault(s[0], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += dur
            entry["self"] += dur - covered.get(i, 0.0)
        return by_name, [s for _, s in mine]

    def parent_name(self, span: list) -> str | None:
        return None if span[3] is None else self.spans[span[3]][0]

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
