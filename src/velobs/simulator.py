"""Fixed-step integration of the coupled plant / observer / switching system.

The plant and the enabled observers are integrated jointly with classical
RK4 on Python floats.  A block of steps with their sample rows is one call
of a loop compiled for the scenario's shape (model class, law class,
observer mode) from the equation text of the model, the law and the
observers: the text that also compiles into the per-equation functions
(`kernel`, `accel`, `float_torque`, `reduced_rate`, `full_rate`).  The
switching logic is evaluated at step boundaries only; when a jump changes
the scheduled gain, the observer's internal state z is re-based so that the
velocity estimate xhat2 = z + k y stays continuous across the jump.  Each
sample is one row of the run's record, in the columns of `record_columns`,
the CSV's first; `Trajectory` is the one reader of a record.
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

# Most samples one run may record: at most 21 float64 columns for a
# two-link arm with both observers, so under 350 MB of sample array.
MAX_SAMPLES = 2_000_000

# The columns of a sample's row, as joint specs (see `equations`), whose
# n = 2 expansion is the CSV's schema; dq_hat is the estimate fed to the law.
ROW = ("t", "q{i}", "dq{i}", "dq{i}_hat", "eps_norm", "V", "r", "k_r", "tau{i}",
       "lower_bound", "upper_bound")
CSV_COLUMNS = tuple(joints("\n".join(ROW), 2))
# One CSV row: the mode index r as an integer, every other value with 17
# significant digits, enough for every float to read back bit for bit.
_CSV_ROW = ",".join("%d" if c == "r" else "%.17g" for c in CSV_COLUMNS) + "\n"
# Rows formatted per write by Trajectory.to_csv, and samples one call of the
# compiled run records in its flat list before simulate packs them into its
# sample array.  Larger blocks write and pack no faster, and a block's list
# holds about 32 bytes a value: 0.6 MB at 1024 of example2's 17-value rows.
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


def record_columns(mode: str, n: int) -> list[str]:
    """The columns of a simulated record: ROW's, then the packed state past q
    and v, from which a block restarts.  A CSV's record holds ROW's alone."""
    state = ["z{i}"] * (mode != "full") + ["ph{i}", "vh{i}"] * (mode != "reduced")
    return joints("\n".join([*ROW, *state]), n)


class Trajectory:
    """A run's record `table` in the columns of record_columns, its scenario
    and design; every field but `r` is a view of `table`, or None."""

    def __init__(self, table: np.ndarray, scenario: Scenario, design: GainDesign):
        n, mode = scenario.model.n, scenario.observer_mode
        # zip stops at the table's width: a CSV's record has no state column
        at = dict(zip(record_columns(mode, n), range(table.shape[1])))

        def field(spec: str):
            """The column of `spec`, the n columns of a joint spec, or None."""
            j = at.get(spec.format(i=1))
            if j is not None:
                return table[:, j:j + n] if "{i}" in spec else table[:, j]

        self.table = table
        self.scenario = scenario
        self.design = design
        # ROW's columns in order, then z where the record has it
        (self.t, self.x1, self.x2, self.xhat2, self.eps_norm, self.v_lyap, r, self.k_gain,
         self.tau, self.lower, self.upper, self.z) = map(field, [*ROW, "z{i}"])
        self.r = r.astype(int)
        # the observer the estimate follows: the reduced one where the mode has it
        self.active = "full" if mode == "full" else "reduced"
        self.xhat2_reduced = None if mode == "full" else self.xhat2
        self.xhat2_full = self.xhat2 if mode == "full" else field("vh{i}")

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
        columns = self.table[:, :len(CSV_COLUMNS)].T
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for start in range(0, self.t.shape[0], CSV_BLOCK_ROWS):
                block = [col[start:start + CSV_BLOCK_ROWS].tolist() for col in columns]
                fh.write("".join([_CSV_ROW % row for row in zip(*block)]))

    @classmethod
    def from_csv(cls, path, scenario: Scenario) -> "Trajectory":
        """Parse a file written by to_csv back into the record of `scenario`.

        Raises ValueError for a wrong header or column count, no data row, a
        non-finite value, or an r that is not a whole number in [0, 2**53],
        then ScenarioError where scenario.validate() does or the model has
        other than two joints, then ValueError for a scheduled row 0 more
        than MAX_INIT_JUMPS bands from r_guess.
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
        r = data[:, CSV_COLUMNS.index("r")]
        if not np.all((r >= 0) & (r <= 2.0 ** 53) & (r == np.floor(r))):
            raise ValueError("CSV column r holds a value that is not a mode index")
        scenario.validate()
        if scenario.model.n != 2:
            raise ScenarioError("the CSV schema is defined for two-joint models")
        if scenario.gain_mode == "scheduled" and abs(r[0] - scenario.r_guess) > MAX_INIT_JUMPS:
            raise ValueError(f"CSV row 0 lies more than {MAX_INIT_JUMPS} bands from r_guess")
        return cls(data, scenario, scenario.design())


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
    step_logic) for one scenario shape, built on first use.  It returns
    pack(x1, x2, xhat2, k), the packed state s (x1, x2, then z and (x1_hat,
    x2_hat) as the mode has them) at the reduced gain k, and run(i, stop, s,
    last, logic), which integrates samples i to stop - 1 from s and the logic
    state (whose k_r and r it runs at; kd and 0 without one), evaluating no
    stage past the sample `last`.  run returns the block's rows of
    record_columns(mode, n) as one flat list, with |xhat2| in both bound
    columns, then s and the logic state for the next block; s is None after
    a step that left the blow-up limit or raised a math error.  With a logic
    state each step calls step_logic(schedule, logic, |xhat2|); a jump
    re-bases z, and the r column records it.  Both inline the equation text,
    bit for bit the composition of the per-equation functions."""
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

    # the sample's row, in the columns of record_columns(mode, n)
    record = [*text(ERROR, xh=fed), *text(model_cls.ENERGY, w="eps", energy="V"),
              f"nrm = hypot({names(fed + '{i}', n=n)})",
              f"put((t, {names('q{i}', 'v{i}', fed + '{i}', n=n)}"
              f"hypot({names('eps{i}', n=n)}), V, r, k, {names('tau{i}', n=n)}nrm, nrm, "
              f"{names(*packed[2 * n:], n=n)}))"]
    # stages 2, 3 and 4 name their states and rates with _b, _c and _d
    final = [f"{x}{{i}} + sixth * ({d}{{i}} + 2.0 * {d}_b{{i}} + 2.0 * {d}_c{{i}} + {d}_d{{i}})"
             for x, d in pairs]
    steps = stage("_b", "half", "") + stage("_c", "half", "_b") + stage("_d", "dt", "_c")
    within = " and ".join(WITHIN_LIMIT.format(x=x, limit=BLOWUP_LIMIT) for x in packed)
    # the step's sample at t, its RK4 step, the blow-up check, then the logic
    loop = ["t = i * dt", *body, *record, "if i == last:", "    break",
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
    width = len(record_columns(scenario.observer_mode, model.n))
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
    traj = Trajectory(samples, scenario, design)
    # run leaves the estimate norm in both bound columns
    traj.lower[:], traj.upper[:] = velocity_sandwich(scenario.eta, traj.lower)
    return traj


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
