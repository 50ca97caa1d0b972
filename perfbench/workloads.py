"""Inputs of the three workloads, made from the seed without velobs.

A spec is a plain dict describing one scenario; the same dict drives the
scenario file (or builtin name and overrides) that velobs receives and the
reference computations in checks.py.
"""
from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import DEFAULT_ARM, Arm

# The builtin scenarios as the paper states them: two-link arm, q(0) =
# (-2pi/3, pi/10), dq(0) = (-0.5, 1), zero estimate, eta = 1, dt = 1e-3 s,
# 20 s horizon, band width 1.5 with floor mode 1.
_PAPER_COMMON = {
    "arm": DEFAULT_ARM, "q0": [-2.0 * math.pi / 3.0, math.pi / 10.0],
    "dq0": [-0.5, 1.0], "xhat0": [0.0, 0.0], "dt": 1e-3, "t_final": 20.0,
}
_PAPER_HYBRID = {"v_bar": 1.5, "r_min": 1, "r_guess": 1, "semantics": "paper"}
PAPER_SPECS = {
    "example1": dict(_PAPER_COMMON, name="example1",
                     controller={"type": "open_loop_1"},
                     observer={"mode": "both", "gain": "constant", "eta": 1.0,
                               "v_max": 1.5},
                     hybrid=None),
    "example2": dict(_PAPER_COMMON, name="example2",
                     controller={"type": "open_loop_2"},
                     observer={"mode": "reduced", "gain": "scheduled", "eta": 1.0},
                     hybrid=_PAPER_HYBRID),
    "example3": dict(_PAPER_COMMON, name="example3",
                     controller={"type": "pd", "kp": [40.0, 20.0], "kd": [60.0, 30.0],
                                 "setpoint": [math.pi / 4.0, -math.pi / 3.0]},
                     observer={"mode": "reduced", "gain": "scheduled", "eta": 1.0},
                     hybrid=_PAPER_HYBRID),
}

HYSTERESIS_T_FINAL = 40.0

# ensemble_short: one round is ENSEMBLE_SIZE scenarios.  Category counts and
# the multiset of horizons are fixed, so every seed asks for the same number
# of steps, designs and files; the seed only decides which scenario gets
# which and draws the continuous values.
ENSEMBLE_SIZE = 16
ENSEMBLE_HORIZONS = (0.75, 1.0, 1.25, 1.5)
ENSEMBLE_CONTROLLERS = ("open_loop_1", "open_loop_2", "pd", "constant")
# per gain mode: observer modes, in slot order before shuffling
ENSEMBLE_OBSERVERS = {"constant": ("reduced",) * 5 + ("both",) * 3,
                      "scheduled": ("reduced",) * 6 + ("both",) * 2}
ENSEMBLE_DISTINCT_ARMS = 2  # per gain mode, so 4 of 16 scenarios


@dataclass
class Item:
    """One scenario of a workload: its spec, how velobs gets it, where it goes."""

    spec: dict
    token: str                # builtin name or scenario-file path
    overrides: dict = field(default_factory=dict)
    csv: Path | None = None

    def check_argv(self) -> list[str]:
        argv = ["check", str(self.csv), "--scenario", self.token]
        if "t_final" in self.overrides:
            argv += ["--t-final", repr(self.overrides["t_final"])]
        if "jump_semantics" in self.overrides:
            argv += ["--jump-semantics", self.overrides["jump_semantics"]]
        return argv


def _fmt(vec) -> str:
    return " ".join(repr(float(x)) for x in vec)


def write_ini(spec: dict, path: Path) -> None:
    """Write a spec in velobs' scenario-file format."""
    arm, ctl, obs = spec["arm"], spec["controller"], spec["observer"]
    lines = ["[model]"] + [f"{k} = {float(v)!r}" for k, v in arm.items()]
    lines += ["", "[initial]", f"q0 = {_fmt(spec['q0'])}",
              f"dq0 = {_fmt(spec['dq0'])}", f"dq0_hat = {_fmt(spec['xhat0'])}",
              "", "[controller]", f"type = {ctl['type']}"]
    if ctl["type"] == "pd":
        lines += [f"kp = {_fmt(ctl['kp'])}", f"kd = {_fmt(ctl['kd'])}",
                  f"setpoint = {_fmt(ctl['setpoint'])}"]
    elif ctl["type"] == "constant":
        lines.append(f"tau = {_fmt(ctl['tau'])}")
    lines += ["", "[observer]", f"eta = {obs['eta']!r}", f"mode = {obs['mode']}",
              f"gain = {obs['gain']}"]
    if "v_max" in obs:
        lines.append(f"v_max = {obs['v_max']!r}")
    hyb = spec["hybrid"]
    if hyb is not None:
        lines += ["", "[hybrid]", f"v_bar = {hyb['v_bar']!r}", f"r_min = {hyb['r_min']}",
                  f"r_guess = {hyb['r_guess']}", f"semantics = {hyb['semantics']}"]
    lines += ["", "[simulation]", f"dt = {spec['dt']!r}", f"t_final = {spec['t_final']!r}"]
    path.write_text("\n".join(lines) + "\n")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), stream])


def ensemble_specs(seed: int) -> list[dict]:
    """The seeded batch of short random scenarios."""
    rng = _rng(seed, 1)
    horizons = rng.permutation(np.repeat(ENSEMBLE_HORIZONS,
                                         ENSEMBLE_SIZE // len(ENSEMBLE_HORIZONS)))
    specs = []
    for gain in ("constant", "scheduled"):
        half = ENSEMBLE_SIZE // 2
        controllers = rng.permutation(np.repeat(ENSEMBLE_CONTROLLERS,
                                                half // len(ENSEMBLE_CONTROLLERS)))
        observers = rng.permutation(ENSEMBLE_OBSERVERS[gain])
        distinct = rng.permutation([True] * ENSEMBLE_DISTINCT_ARMS
                                   + [False] * (half - ENSEMBLE_DISTINCT_ARMS))
        semantics = rng.permutation(["paper", "hysteresis"] * (half // 2))
        for j in range(half):
            idx = len(specs)
            arm = dict(DEFAULT_ARM)
            if distinct[j]:
                arm.update(m1=rng.uniform(8.0, 12.0), m2=rng.uniform(15.0, 25.0),
                           l1=rng.uniform(0.8, 1.2), l2=rng.uniform(1.2, 1.8),
                           f1=rng.uniform(0.05, 0.2), f2=rng.uniform(0.2, 0.4))
            ctype = str(controllers[j])
            if ctype == "constant":
                # near the hanging rest position, held by the constant torque
                q0 = np.array([-math.pi / 2.0, 0.0]) + rng.uniform(-0.5, 0.5, 2)
            else:
                q0 = rng.uniform(-math.pi, math.pi, 2)
            dq0 = rng.uniform(-1.0, 1.0, 2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            err = rng.uniform(0.05, 0.25) * np.array([math.cos(phi), math.sin(phi)])
            eta = rng.uniform(0.6, 1.2)
            ctl = {"type": ctype}
            if ctype == "pd":
                ctl.update(kp=rng.uniform(20.0, 60.0, 2), kd=rng.uniform(20.0, 60.0, 2),
                           setpoint=rng.uniform(-math.pi / 2.0, math.pi / 2.0, 2))
            elif ctype == "constant":
                # gravity at q0 plus a small offset: the arm swings gently
                g = Arm(**arm).gravity(q0[0], q0[1])
                ctl["tau"] = np.array(g) + rng.uniform(-2.0, 2.0, 2)
            obs = {"mode": str(observers[j]), "gain": gain, "eta": eta}
            hybrid = None
            if gain == "constant":
                obs["v_max"] = rng.uniform(1.2, 2.5)
            else:
                r_min = int(rng.integers(0, 2))
                hybrid = {"v_bar": rng.uniform(1.0, 2.5), "r_min": r_min,
                          "r_guess": r_min + int(rng.integers(0, 3)),
                          "semantics": str(semantics[j])}
            specs.append({"name": f"ens{idx:02d}", "arm": arm, "q0": q0, "dq0": dq0,
                          "xhat0": dq0 + err, "controller": ctl, "observer": obs,
                          "hybrid": hybrid, "dt": 1e-3,
                          "t_final": float(horizons[idx])})
    return specs


class Workload:
    """A named set of scenarios; `build` is the timed part of set-up."""

    name = ""
    export_reps = 4
    check_reps = 4
    check_settling = True  # the paper's settling and setpoint claims apply

    def items(self, seed: int, out: Path) -> list[Item]:
        raise NotImplementedError

    def build(self, velobs, items: list[Item]) -> list:
        raise NotImplementedError


def _seeded_order(names, seed: int) -> list:
    """Fixed inputs still take the seed: it sets the order they run in."""
    return [names[i] for i in _rng(seed, 0).permutation(len(names))]


class PaperFigures(Workload):
    name = "paper_figures"
    export_reps = 5
    check_reps = 5

    def items(self, seed, out):
        return [Item(PAPER_SPECS[n], n, csv=out / f"{n}.csv")
                for n in _seeded_order(sorted(PAPER_SPECS), seed)]

    def build(self, velobs, items):
        builtins = velobs.simulator.builtin_scenarios()
        return [builtins[it.token] for it in items]


class EnsembleShort(Workload):
    name = "ensemble_short"
    export_reps = 1
    check_reps = 1
    # short horizons: `velobs check` gates settling itself, per scenario
    check_settling = False

    def items(self, seed, out):
        items = []
        for spec in ensemble_specs(seed):
            ini = out / f"{spec['name']}.ini"
            write_ini(spec, ini)
            items.append(Item(spec, str(ini), csv=out / f"{spec['name']}.csv"))
        return items

    def build(self, velobs, items):
        return [velobs.cli.load_scenario_file(it.token) for it in items]


class HysteresisLong(Workload):
    name = "hysteresis_long"

    def items(self, seed, out):
        items = []
        for n in _seeded_order(["example2", "example3"], seed):
            spec = dict(PAPER_SPECS[n], t_final=HYSTERESIS_T_FINAL,
                        hybrid=dict(_PAPER_HYBRID, semantics="hysteresis"))
            items.append(Item(spec, n, {"t_final": HYSTERESIS_T_FINAL,
                                        "jump_semantics": "hysteresis"},
                              csv=out / f"{n}_hysteresis.csv"))
        return items

    def build(self, velobs, items):
        cli = velobs.cli
        scenarios = []
        for it in items:
            ns = argparse.Namespace(dt=None, observer=None, gain=None, **it.overrides)
            scenarios.append(cli.apply_overrides(cli.resolve_scenario(it.token), ns))
        return scenarios


WORKLOADS = {w.name: w for w in (PaperFigures(), EnsembleShort(), HysteresisLong())}
