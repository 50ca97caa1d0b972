"""Fixed-step integration of the coupled plant / observer / switching system.

The plant and the enabled observers are integrated jointly with classical
RK4 on Python floats.  A block of steps with their sample rows is one call
of a loop compiled for the scenario's shape (model class, law class,
observer mode) from the equation text of the model, the law and the
observers: the text that also compiles into the per-equation functions
(`kernel`, `accel`, `float_torque`, `reduced_rate`, `full_rate`).  The
switching logic is evaluated at step boundaries only; when a jump changes
the scheduled gain, the observer's internal state z is re-based so that the
velocity estimate xhat2 = z + k y stays continuous across the jump.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable

import numpy as np

from .dynamics import INJECT, RobotModel
from .equations import define, joints, names, rename, source
from .hybrid_logic import (MAX_INIT_JUMPS, GainSchedule, HybridConfig, JumpEvent,
                           initialize_logic, step_logic, velocity_sandwich)
from .observers import ESTIMATE, FULL, REBASE, REDUCED, GainDesign, check_gain, compute_k0

OBSERVER_MODES = ("reduced", "full", "both")
GAIN_MODES = ("constant", "scheduled")
# The keys of builtin_scenarios(), sorted, known without building the scenarios.
BUILTIN_NAMES = ("example1", "example2", "example3")

# Abort threshold for any integrated state component.
BLOWUP_LIMIT = 1e6

# Most samples one run may record: at most 18 float64 columns for a
# two-link arm with both observers, so under 300 MB of sample arrays.
MAX_SAMPLES = 2_000_000

CSV_COLUMNS = ("t", "q1", "q2", "dq1", "dq2", "dq1_hat", "dq2_hat",
               "eps_norm", "V", "r", "k_r", "tau1", "tau2",
               "lower_bound", "upper_bound")
# One CSV row: the mode index r as an integer, every other value with 17
# significant digits, enough for every float to read back bit for bit.
_CSV_ROW = ",".join("%d" if c == "r" else "%.17g" for c in CSV_COLUMNS) + "\n"
# Rows formatted per write by Trajectory.to_csv, and samples one call of the
# compiled run records in its flat list before simulate packs them into its
# sample array.  Larger blocks write and pack no faster, and a block's list
# holds about 32 bytes a value: 0.5 MB at 1024 of example2's 15-value rows.
CSV_BLOCK_ROWS = 1024


class ScenarioError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class SimulationBlowUp(RuntimeError):
    """State left the numerically meaningful range during integration."""


@dataclass(eq=False)
class Scenario:
    """Everything needed to reproduce one simulation run."""

    name: str
    model: RobotModel
    q0: np.ndarray
    v0: np.ndarray
    xhat2_0: np.ndarray
    controller: object
    observer_mode: str = "reduced"
    gain_mode: str = "constant"
    eta: float = 1.0
    v_max: float | None = None
    hybrid: HybridConfig | None = None
    r_guess: int = 0
    dt: float = 1e-3
    t_final: float = 10.0
    k0_override: float | None = None

    def __post_init__(self):
        self.q0 = np.asarray(self.q0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        self.xhat2_0 = np.asarray(self.xhat2_0, dtype=float)

    def validate(self) -> None:
        n = self.model.n
        for name, vec in (("q0", self.q0), ("v0", self.v0), ("xhat2_0", self.xhat2_0)):
            if vec.shape != (n,):
                raise ScenarioError(f"{name} must have shape ({n},)")
            if not np.all(np.isfinite(vec)):
                raise ScenarioError(f"{name} must be finite")
        if self.observer_mode not in OBSERVER_MODES:
            raise ScenarioError(f"observer_mode must be one of {OBSERVER_MODES}")
        if self.gain_mode not in GAIN_MODES:
            raise ScenarioError(f"gain_mode must be one of {GAIN_MODES}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ScenarioError("dt must be positive and finite")
        if not (math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ScenarioError("t_final must be finite and at least one step")
        # the float ratio first: it may be too large for sample_count's int
        if self.t_final / self.dt > MAX_SAMPLES or self.sample_count() > MAX_SAMPLES:
            raise ScenarioError(
                f"t_final / dt asks for more than the {MAX_SAMPLES} samples a run may hold")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ScenarioError("eta must be positive and finite")
        if self.gain_mode == "scheduled":
            if self.hybrid is None:
                raise ScenarioError("scheduled gain mode requires a hybrid config")
            if self.observer_mode == "full":
                raise ScenarioError(
                    "scheduled gain applies to the reduced observer; "
                    "use observer_mode 'reduced' or 'both'")
            if self.hybrid.eta != self.eta:
                raise ScenarioError("hybrid config eta must match scenario eta")
            if self.k0_override is not None:
                raise ScenarioError("k0_override applies to the constant gain mode only")
        # the starting band where the run or the design speed reads it, else the
        # floor mode, whose band the report reads: every mode a run or its report
        # can reach stays a whole float in the r column
        top = 2**53 - MAX_INIT_JUMPS - MAX_SAMPLES
        if self.hybrid is not None and (self.gain_mode == "scheduled" or self.v_max is None):
            if not self.hybrid.r_min <= self.r_guess <= top:
                raise ScenarioError(f"r_guess must lie between r_min and {top}")
        elif self.hybrid is not None and self.hybrid.r_min > top:
            raise ScenarioError(f"r_min must be at most {top}")
        elif self.v_max is None:    # a constant gain with no band to design for
            raise ScenarioError("constant gain mode requires v_max")
        if self.gain_mode == "constant" and not 0.0 <= self.design_speed() < math.inf:
            raise ScenarioError("v_max must be nonnegative and finite")
        if self.k0_override is not None:
            try:
                check_gain(self.k0_override, "k0_override")
            except ValueError as exc:
                raise ScenarioError(str(exc)) from None
        # the integration loop calls the float law unchecked
        try:
            tau = self.controller.torque(self.model, self.q0, self.xhat2_0, 0.0)
        except ValueError as exc:
            raise ScenarioError(f"controller does not fit the model: {exc}") from exc
        if np.shape(tau) != (n,):
            raise ScenarioError(f"controller torque must have shape ({n},)")
        if not np.all(np.isfinite(tau)):
            raise ScenarioError("controller torque at t = 0 must be finite")

    def design_speed(self) -> float | None:
        """Speed bound of the constant design: v_max, else the top of the starting band."""
        if self.v_max is not None:
            return self.v_max
        if self.hybrid is not None:
            return self.hybrid.band_speed(max(self.r_guess, 1))
        return None

    def design(self) -> GainDesign:
        """The constant design at design_speed(): the spectral constants and
        the constant-mode gain.  In scheduled mode the design speed bound of
        the starting band keeps the record meaningful."""
        return compute_k0(self.model, self.eta, self.design_speed())

    def sample_count(self) -> int:
        # floor(t_final / dt) + 1 samples; the tiny slack avoids losing the
        # final sample to floating-point truncation of exact divisors.
        return int(math.floor(self.t_final / self.dt + 1e-9)) + 1


class Trajectory:
    """Sampled run of one scenario, one row per integrator step: the
    columns, the scenario and its design, from which its jumps follow."""

    def __init__(self, t, x1, x2, eps_norm, v_lyap, r, k_gain, tau, lower, upper,
                 scenario: Scenario, design: GainDesign, xhat2_reduced=None,
                 xhat2_full=None, z=None):
        self.t = t
        self.x1 = x1
        self.x2 = x2
        self.eps_norm = eps_norm
        self.v_lyap = v_lyap
        self.r = r
        self.k_gain = k_gain
        self.tau = tau
        self.lower = lower
        self.upper = upper
        self.scenario = scenario
        self.design = design
        self.xhat2_reduced = xhat2_reduced
        self.xhat2_full = xhat2_full
        self.z = z

    @property
    def active(self) -> str:
        """The observer the scalar columns follow: reduced when present, else full."""
        return "reduced" if self.xhat2_reduced is not None else "full"

    @functools.cached_property
    def speed(self) -> np.ndarray:
        """True speed |x2| at each sample, computed on first use."""
        return np.linalg.norm(self.x2, axis=1)

    @functools.cached_property
    def jump_events(self) -> list[JumpEvent]:
        """The events of jump_fields, built on first read."""
        # tuple.__new__ skips the Python-level __new__ of JumpEvent per event
        return list(map(tuple.__new__, repeat(JumpEvent),
                        zip(*(f.tolist() for f in jump_fields(self)))))

    @property
    def xhat2(self) -> np.ndarray:
        """Estimate of the active observer (reduced when present)."""
        return self.xhat2_reduced if self.xhat2_reduced is not None else self.xhat2_full

    def eps_norm_for(self, which: str) -> np.ndarray:
        """Velocity-error norm history of an observer: the active one's is eps_norm."""
        if which in ("active", self.active):
            return self.eps_norm
        est = {"reduced": self.xhat2_reduced, "full": self.xhat2_full}[which]
        if est is None:
            raise ValueError(f"trajectory has no {which} observer")
        return np.linalg.norm(self.x2 - est, axis=1)

    def to_csv(self, path) -> None:
        """Write the fixed 15-column schema with 17 significant digits.

        Rows are formatted CSV_BLOCK_ROWS at a time and each block is written
        before the next is made, so the text held in memory is one block's.
        """
        if self.x1.shape[1] != 2:
            raise ScenarioError("the CSV schema is defined for two-joint models")
        est = self.xhat2
        columns = (self.t, self.x1[:, 0], self.x1[:, 1], self.x2[:, 0], self.x2[:, 1],
                   est[:, 0], est[:, 1], self.eps_norm, self.v_lyap, self.r,
                   self.k_gain, self.tau[:, 0], self.tau[:, 1], self.lower, self.upper)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for start in range(0, self.t.shape[0], CSV_BLOCK_ROWS):
                block = [col[start:start + CSV_BLOCK_ROWS].tolist() for col in columns]
                fh.write("".join([_CSV_ROW % row for row in zip(*block)]))

    @classmethod
    def from_csv(cls, path, scenario: Scenario) -> "Trajectory":
        """Parse a file written by to_csv back into the record of `scenario`,
        its estimate the active observer's (xhat2_full in a full-mode scenario).

        Raises ValueError for a wrong header or column count, no data row, a
        non-finite value, or an r that is not a whole number in [0, 2**53],
        then ScenarioError where scenario.validate() does, then ValueError
        for a scheduled row 0 more than MAX_INIT_JUMPS bands from r_guess.
        """
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header: {header}")
            start = fh.tell()
            if not any(line.partition("#")[0].strip() for line in fh):  # "#" starts a comment
                raise ValueError("CSV has no data row after its header")
            fh.seek(start)
            # with its leading whitespace gone, a line of whitespace is blank to
            # loadtxt, and one of whitespace then "#" a comment
            data = np.loadtxt(map(str.lstrip, fh), delimiter=",", ndmin=2)
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError("unexpected CSV column count")
        if not np.isfinite(data).all():
            raise ValueError("CSV holds a non-finite value")
        r = data[:, 9]
        if not np.all((r >= 0) & (r <= 2.0 ** 53) & (r == np.floor(r))):
            raise ValueError("CSV column r holds a value that is not a mode index")
        scenario.validate()
        if scenario.gain_mode == "scheduled" and abs(r[0] - scenario.r_guess) > MAX_INIT_JUMPS:
            raise ValueError(f"CSV row 0 lies more than {MAX_INIT_JUMPS} bands from r_guess")
        full = scenario.observer_mode == "full"
        return cls(
            t=data[:, 0], x1=data[:, 1:3], x2=data[:, 3:5],
            xhat2_reduced=None if full else data[:, 5:7],
            xhat2_full=data[:, 5:7] if full else None, eps_norm=data[:, 7], v_lyap=data[:, 8],
            r=r.astype(int), k_gain=data[:, 10], tau=data[:, 11:13],
            lower=data[:, 13], upper=data[:, 14], scenario=scenario, design=scenario.design())


def jump_steps(r: np.ndarray) -> np.ndarray:
    """A run's flow-jump steps: the rows whose mode r is not the row before's (one jump a step)."""
    return np.flatnonzero(np.diff(r)) + 1


def jump_fields(traj: Trajectory) -> list[np.ndarray]:
    """Each JumpEvent field of a run's jumps as an array: a scheduled run's
    time-zero walk, one band a jump from r_guess to r[0] at xhat2_0's norm,
    then one per jump_steps(r) at its row's t and xhat2 norm (math.hypot's)."""
    sc, r = traj.scenario, traj.r
    steps = jump_steps(r)
    norms = np.fromiter(map(math.hypot, *traj.xhat2[steps].T.tolist()), float, steps.size)
    way = 1 if r[0] >= sc.r_guess else -1
    old = np.arange(sc.r_guess, r[0], way) if sc.gain_mode == "scheduled" else steps[:0]
    walk = (np.zeros(old.size), old, old + way,
            np.full(old.size, math.hypot(*sc.xhat2_0.tolist())), np.zeros_like(old))
    return [np.concatenate(pair) for pair in zip(
        walk, (traj.t[steps], r[steps - 1], r[steps], norms, steps))]


# The velocity-estimation error of the fed-back estimate xh.
ERROR = "eps{i} = v{i} - xh{i}"
# The blow-up check of one packed state component x: false for a NaN, which
# max(map(abs, state)) <= limit would pass over anywhere but first.
WITHIN_LIMIT = "-{limit} <= {x} <= {limit}"


@functools.cache
def flat_rhs(model_cls, law_cls, mode: str) -> Callable:
    """factory(*model._constants, *law._constants, kd, kp, dt, schedule,
    step_logic) for one scenario shape, built on first use.  It
    returns pack(x1, x2, xhat2, k), the packed state s (x1, x2, then z and
    (x1_hat, x2_hat) as the mode has them) at the reduced gain k, and
    run(i, stop, s, last, logic), which integrates samples i to stop - 1 from
    s and the logic state (whose k_r and r it runs at; kd and 0 without one),
    evaluating no stage past the sample `last`.  run returns the block's
    samples as one flat list of floats (each sample's state s, then its row
    eps_norm, V, r, k, |xhat2|, tau and the reduced observer's xhat2 when the
    mode has it), then s and the logic state for the next block; s is None
    after a step that left the blow-up limit or raised a math error.  With a
    logic state each step calls step_logic(schedule, logic, |xhat2|); a jump
    re-bases z, and the r column records it.
    Both inline the equation text, bit for bit the composition of the
    per-equation functions."""
    n = model_cls.n
    red, full = mode in ("reduced", "both"), mode in ("full", "both")
    # each packed state with its rate (the rate of q is v)
    pairs = [("q", "v"), ("v", "dv"), *[("z", "dz")] * red,
             *[("ph", "dph"), ("vh", "dvh")] * full]
    packed = joints("\n".join(x + "{i}" for x, _ in pairs), n)
    state = "(%s)" % names(*packed, n=n)
    fed = "est" if red else "vh"

    def text(eq: str, **bases: str) -> list[str]:
        return rename(joints(eq, n), **bases)

    def accel(w: str, acc: str, extra: bool = False) -> list[str]:
        inject = joints(INJECT, n) if extra else []
        return rename([*joints(model_cls.RESIDUAL, n), *inject, *joints(model_cls.SOLVE, n)],
                      w=w, acc=acc)

    def indent(lines: list[str]) -> list[str]:
        return [f"    {line}" for line in lines]

    # one RHS evaluation: the rates of `pairs` at (t, the state)
    body = [*joints(model_cls.KERNEL, n), *(text(ESTIMATE) * red),
            *text(law_cls.LAW, xh=fed), *accel("v", "dv")]
    if red:
        body += accel("est", "ar") + text(REDUCED, acc="ar")
    if full:
        body += text(FULL) + accel("vh", "dvh", extra=True)

    def stage(suffix: str, h: str, prev: str) -> list[str]:
        """The RHS at t + h and s + h d (d the rates named with suffix prev),
        with t and every state and rate named with `suffix`."""
        at = [f"{x}{suffix}{{i}} = {x}{{i}} + {h} * {d}{prev}{{i}}" for x, d in pairs]
        bases = {b: b + suffix for pair in [("t",), *pairs] for b in pair}
        return [f"t{suffix} = t + {h}", *text("\n".join(at)), *rename(body, **bases)]

    record = [*text(ERROR, xh=fed), *text(model_cls.ENERGY, w="eps", energy="V"),
              f"nrm = hypot({names(fed + '{i}', n=n)})",
              f"put((hypot({names('eps{i}', n=n)}), V, r, k, nrm, "
              f"{names('tau{i}', n=n)}{names('est{i}', n=n) if red else ''}))"]
    # stages 2, 3 and 4 name their states and rates with _b, _c and _d
    final = [f"{x}{{i}} + sixth * ({d}{{i}} + 2.0 * {d}_b{{i}} + 2.0 * {d}_c{{i}} + {d}_d{{i}})"
             for x, d in pairs]
    steps = stage("_b", "half", "") + stage("_c", "half", "_b") + stage("_d", "dt", "_c")
    within = " and ".join(WITHIN_LIMIT.format(x=x, limit=BLOWUP_LIMIT) for x in packed)
    # the step's sample at t, its RK4 step, the blow-up check, then the logic
    loop = ["t = i * dt", "put(s)", *body, *record, "if i == last:", "    break",
            "try:", *indent([*steps, f"s = ({names(*final, n=n)})"]),
            "except (ValueError, ArithmeticError):", "    return rows, None, logic",
            f"{state} = s",
            f"if not ({within}):",
            "    return rows, None, logic"]
    if red:
        loop += ["if logic is not None:", *indent([
            *text(ESTIMATE), f"nrm = hypot({names('est{i}', n=n)})",
            "stepped = step_logic(schedule, logic, nrm)", "if stepped is not logic:",
            "    k = stepped.k_r", "    r = stepped.r", "    logic = stepped",
            *indent([*text(REBASE), f"s = {state}"])])]
    unpack = [f"({names(v + '{i}', n=n)}) = {v}" for v in ("q", "v", "est")]
    lines = ["half = 0.5 * dt", "sixth = dt / 6.0",
             *source("pack", "q, v, est, k", [*unpack, *(text(REBASE) * red),
                                               *text("ph{i} = q{i}\nvh{i} = est{i}") * full],
                     state),
             *source("run", "i, stop, s, last, logic",
                     ["rows = []", "put = rows.extend",
                      "k, r = (kd, 0) if logic is None else (logic.k_r, logic.r)",
                      f"{state} = s", "for i in range(i, stop):", *indent(loop)],
                     "rows, s, logic")]
    params = names(*model_cls.CONSTANTS, *law_cls.CONSTANTS, "kd", "kp", "dt", "schedule",
                   "step_logic", n=n)
    return define("factory", params, n, {}, lines, "pack, run")


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one scenario and record every sample."""
    scenario.validate()
    model = scenario.model
    n = model.n
    use_red = scenario.observer_mode in ("reduced", "both")
    use_full = scenario.observer_mode in ("full", "both")
    law = scenario.controller
    dt = scenario.dt

    design = scenario.design()
    kd = scenario.k0_override if scenario.k0_override is not None else design.k0
    kp = kd * kd
    schedule = None
    logic = None
    if scenario.gain_mode == "scheduled":
        schedule = GainSchedule(model, scenario.hybrid)
        logic = initialize_logic(schedule, math.hypot(*scenario.xhat2_0.tolist()),
                                 scenario.r_guess)

    factory = flat_rhs(type(model), type(law), scenario.observer_mode)
    pack, run = factory(*model._constants, *law._constants, kd, kp, dt, schedule, step_logic)
    s = pack(scenario.q0.tolist(), scenario.v0.tolist(), scenario.xhat2_0.tolist(),
             kd if logic is None else logic.k_r)

    n_samples = scenario.sample_count()
    packed = len(s)
    # one row per sample: the packed state, then eps_norm, V, r, k_r, the
    # estimate norm, tau and the reduced observer's estimate
    width = packed + 5 + n + n * use_red
    samples = np.empty((n_samples, width))
    # run records a block of samples as one flat list of floats, which one
    # pack_into copies bit for bit into the block's rows of the array
    for start in range(0, n_samples, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n_samples)
        rows, s, logic = run(start, stop, s, n_samples - 1, logic)
        if s is None:
            t = (start + len(rows) // width - 1) * dt
            raise SimulationBlowUp(
                f"state component left |x| <= {BLOWUP_LIMIT:g} at t = {t + dt:.6g}")
        struct.pack_into(f"{len(rows)}d", samples, start * samples.strides[0], *rows)
    states, extra = samples[:, :packed], samples[:, packed:]
    lower, upper = velocity_sandwich(scenario.eta, extra[:, 4])

    return Trajectory(
        t=np.arange(n_samples) * dt, x1=states[:, :n], x2=states[:, n:2 * n],
        eps_norm=extra[:, 0], v_lyap=extra[:, 1], r=extra[:, 2].astype(int),
        k_gain=extra[:, 3], tau=extra[:, 5:5 + n], lower=lower, upper=upper,
        xhat2_reduced=extra[:, 5 + n:] if use_red else None,
        # the full observer's x2_hat is packed last
        xhat2_full=states[:, -n:] if use_full else None,
        z=states[:, 2 * n:3 * n] if use_red else None,
        scenario=scenario, design=design)


def builtin_scenarios() -> dict[str, Scenario]:
    """The three reference scenarios on the default two-link arm: example1 in
    full, each of the others by what it changes in the one before."""
    from .dynamics import TwoLinkArm
    from .controllers import OpenLoopBounded, OpenLoopUnbounded, PdConfig, PdGravity

    example1 = Scenario(
        name="example1", model=TwoLinkArm(), q0=np.array([-2.0 * np.pi / 3.0, np.pi / 10.0]),
        v0=np.array([-0.5, 1.0]), xhat2_0=np.zeros(2), controller=OpenLoopBounded(),
        observer_mode="both", v_max=1.5, t_final=20.0)
    example2 = replace(
        example1, name="example2", controller=OpenLoopUnbounded(), observer_mode="reduced",
        gain_mode="scheduled", v_max=None, hybrid=HybridConfig(v_bar=1.5, eta=1.0, r_min=1),
        r_guess=1)
    example3 = replace(example2, name="example3", controller=PdGravity(PdConfig(
        kp=[40.0, 20.0], kd=[60.0, 30.0], x_ref=[np.pi / 4.0, -np.pi / 3.0])))
    return {sc.name: sc for sc in (example1, example2, example3)}
