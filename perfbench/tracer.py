"""Per-layer tracing by wrapping velobs' public functions from outside.

Each traced function is replaced in every velobs module that binds it by
name (simulator imports `step_logic`, cli imports `simulate`, ...), and each
traced method is replaced on its class, so every call site goes through the
wrapper.  A wrapper counts calls and self time: its span's duration minus
the time of the traced calls it made.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (key, module, attribute): module-level functions, wrapped wherever bound.
FUNCTIONS = (
    ("dynamics.inertia_solver", "dynamics", "inertia_solver"),
    ("dynamics.grid_tables", "dynamics", "grid_tables"),
    ("observers.compute_k0", "observers", "compute_k0"),
    ("hybrid_logic.initialize_logic", "hybrid_logic", "initialize_logic"),
    ("hybrid_logic.step_logic", "hybrid_logic", "step_logic"),
    ("hybrid_logic.velocity_sandwich", "hybrid_logic", "velocity_sandwich"),
    ("simulator.simulate", "simulator", "simulate"),
    ("simulator.builtin_scenarios", "simulator", "builtin_scenarios"),
    ("cli.load_scenario_file", "cli", "load_scenario_file"),
    ("cli.resolve_scenario", "cli", "resolve_scenario"),
    ("cli.apply_overrides", "cli", "apply_overrides"),
    ("analysis.report_lines", "analysis", "report_lines"),
    ("analysis.scenario_checks", "analysis", "scenario_checks"),
    ("analysis.check_lyapunov_decrease", "analysis", "check_lyapunov_decrease"),
)

# (key, module, class, method): methods, wrapped on the class.
METHODS = (
    ("dynamics.inertia", "dynamics", "TwoLinkArm", "inertia"),
    ("dynamics.coriolis", "dynamics", "TwoLinkArm", "coriolis"),
    ("dynamics.gravity", "dynamics", "TwoLinkArm", "gravity"),
    ("controllers.torque", "controllers", "OpenLoopBounded", "torque"),
    ("controllers.torque", "controllers", "OpenLoopUnbounded", "torque"),
    ("controllers.torque", "controllers", "PdGravity", "torque"),
    ("controllers.torque", "controllers", "ConstantTorque", "torque"),
    ("hybrid_logic.gain_schedule", "hybrid_logic", "GainSchedule", "__init__"),
    ("simulator.to_csv", "simulator", "Trajectory", "to_csv"),
    ("simulator.from_csv", "simulator", "Trajectory", "from_csv"),
)


class Tracer:
    """Call counts and self times of the traced velobs functions."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.steps = 0
        self.jumps = 0
        self.csv_bytes = 0
        self._stack = [0.0]

    def _wrap(self, key, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                calls[key] += 1
                self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_simulate(self, args, traj):
        self.steps += len(traj.t) - 1
        self.jumps += sum(1 for ev in traj.jump_events if ev.step > 0)

    def _after_to_csv(self, args, result):
        self.csv_bytes += os.path.getsize(args[1])

    def install(self) -> None:
        """Wrap every traced function and method of the imported velobs."""
        modules = [m for name, m in sys.modules.items()
                   if name == "velobs" or name.startswith("velobs.")]
        after = {"simulator.simulate": self._after_simulate,
                 "simulator.to_csv": self._after_to_csv}
        originals = []
        for key, mod, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"velobs.{mod}"], attr)
            wrapped = self._wrap(key, orig, after.get(key))
            originals.append(orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
        for key, mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"velobs.{mod}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__, after.get(key)))
            else:
                wrapped = self._wrap(key, raw, after.get(key))
            setattr(cls, meth, wrapped)
        # a binding left unwrapped would silently count zero
        for m in modules:
            for name, value in vars(m).items():
                if any(value is orig for orig in originals):
                    raise RuntimeError(f"{m.__name__}.{name} escaped tracing")

    def metrics(self, scenarios: int, untraced_simulate_s: float,
                traced_simulate_s: float) -> dict:
        """Per-layer metrics of one traced round: name -> (value, unit)."""
        c, s = self.calls, self.self_s
        m = {}
        for key in ("dynamics.inertia", "dynamics.coriolis", "dynamics.gravity",
                    "dynamics.inertia_solver", "controllers.torque"):
            m[f"{key}_calls"] = (c[key], "count")
            m[f"{key}_s"] = (s[key], "s")
        m["simulator.simulate_self_s"] = (s["simulator.simulate"], "s")
        m["simulator.steps"] = (self.steps, "count")
        m["hybrid_logic.step_logic_calls"] = (c["hybrid_logic.step_logic"], "count")
        m["hybrid_logic.step_logic_s"] = (s["hybrid_logic.step_logic"], "s")
        m["hybrid_logic.jumps"] = (self.jumps, "count")
        m["hybrid_logic.jumps_per_step"] = (
            self.jumps / max(c["hybrid_logic.step_logic"], 1), "1/step")
        m["hybrid_logic.velocity_sandwich_s"] = (s["hybrid_logic.velocity_sandwich"], "s")
        m["dynamics.grid_tables_calls"] = (c["dynamics.grid_tables"], "count")
        m["dynamics.grid_tables_s"] = (s["dynamics.grid_tables"], "s")
        m["dynamics.grid_tables_per_scenario"] = (
            c["dynamics.grid_tables"] / scenarios, "1/scenario")
        m["observers.compute_k0_calls"] = (c["observers.compute_k0"], "count")
        m["observers.compute_k0_s"] = (s["observers.compute_k0"], "s")
        m["hybrid_logic.gain_schedule_builds"] = (c["hybrid_logic.gain_schedule"], "count")
        m["hybrid_logic.gain_schedule_s"] = (s["hybrid_logic.gain_schedule"], "s")
        m["hybrid_logic.initialize_logic_s"] = (s["hybrid_logic.initialize_logic"], "s")
        m["cli.load_scenario_file_calls"] = (c["cli.load_scenario_file"], "count")
        m["cli.scenario_build_s"] = (s["cli.load_scenario_file"] + s["cli.resolve_scenario"]
                                     + s["simulator.builtin_scenarios"], "s")
        m["cli.apply_overrides_s"] = (s["cli.apply_overrides"], "s")
        m["simulator.to_csv_s"] = (s["simulator.to_csv"], "s")
        m["simulator.csv_bytes"] = (self.csv_bytes, "B")
        m["simulator.from_csv_s"] = (s["simulator.from_csv"], "s")
        m["analysis.report_lines_s"] = (s["analysis.report_lines"], "s")
        m["analysis.scenario_checks_calls"] = (c["analysis.scenario_checks"], "count")
        m["analysis.scenario_checks_s"] = (s["analysis.scenario_checks"], "s")
        m["analysis.lyapunov_scans"] = (c["analysis.check_lyapunov_decrease"], "count")
        m["analysis.lyapunov_scans_per_report"] = (
            c["analysis.check_lyapunov_decrease"] / max(c["analysis.report_lines"], 1),
            "1/report")
        m["analysis.lyapunov_scan_s"] = (s["analysis.check_lyapunov_decrease"], "s")
        m["trace.simulate_untraced_s"] = (untraced_simulate_s, "s")
        m["trace.simulate_traced_s"] = (traced_simulate_s, "s")
        m["trace.overhead_s"] = (traced_simulate_s - untraced_simulate_s, "s")
        return m
