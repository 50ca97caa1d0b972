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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import INJECT, RobotModel
from .equations import define, joints, names, rename, source
from .hybrid_logic import (GainSchedule, HybridConfig, JumpEvent, initialize_logic,
                           step_logic, velocity_sandwich)
from .observers import ESTIMATE, FULL, REBASE, REDUCED, GainDesign, check_gain, compute_k0

OBSERVER_MODES = ("reduced", "full", "both")
GAIN_MODES = ("constant", "scheduled")

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
# Rows formatted per write by Trajectory.to_csv, and rows simulate collects
# in lists before it copies them into its sample arrays.  Larger blocks write
# no faster and raise peak RSS more: about 1.5 MB at 1024 rows, 7 MB at 4096.
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
        if self.gain_mode == "constant":
            if self.v_max is None:
                raise ScenarioError("constant gain mode requires v_max")
            if not (self.v_max >= 0.0 and math.isfinite(self.v_max)):
                raise ScenarioError("v_max must be nonnegative and finite")
        else:
            if self.hybrid is None:
                raise ScenarioError("scheduled gain mode requires a hybrid config")
            if self.observer_mode == "full":
                raise ScenarioError(
                    "scheduled gain applies to the reduced observer; "
                    "use observer_mode 'reduced' or 'both'")
            if self.hybrid.eta != self.eta:
                raise ScenarioError("hybrid config eta must match scenario eta")
            if self.r_guess < self.hybrid.r_min:
                raise ScenarioError("r_guess must not be below r_min")
            if self.k0_override is not None:
                raise ScenarioError("k0_override applies to the constant gain mode only")
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

    def sample_count(self) -> int:
        # floor(t_final / dt) + 1 samples; the tiny slack avoids losing the
        # final sample to floating-point truncation of exact divisors.
        return int(math.floor(self.t_final / self.dt + 1e-9)) + 1


@dataclass(eq=False)
class Trajectory:
    """Sampled run of one scenario, one row per integrator step."""

    t: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    eps_norm: np.ndarray
    v_lyap: np.ndarray
    r: np.ndarray
    k_gain: np.ndarray
    tau: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    xhat2_reduced: np.ndarray | None = None
    xhat2_full: np.ndarray | None = None
    z: np.ndarray | None = None
    jump_events: list[JumpEvent] = field(default_factory=list)
    scenario: Scenario | None = None
    design: GainDesign | None = None

    @property
    def active(self) -> str:
        """The observer the scalar columns follow: reduced when present, else full."""
        return "reduced" if self.xhat2_reduced is not None else "full"

    @property
    def xhat2(self) -> np.ndarray:
        """Estimate of the active observer (reduced when present)."""
        est = self.xhat2_reduced if self.xhat2_reduced is not None else self.xhat2_full
        if est is None:
            raise ValueError("active observer estimate is missing")
        return est

    def eps_norm_for(self, which: str) -> np.ndarray:
        """Velocity-error norm history of the requested observer."""
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
    def from_csv(cls, path) -> "Trajectory":
        """Parse a file written by to_csv back into a trajectory.

        Raises ValueError for a wrong header or column count, no data row, a
        non-finite value, or an r that is not a whole number in [0, 2**53].
        """
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header: {header}")
            start = fh.tell()
            if not fh.readline().strip():
                raise ValueError("CSV has no data row after its header")
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError("unexpected CSV column count")
        if not np.isfinite(data).all():
            raise ValueError("CSV holds a non-finite value")
        r = data[:, 9]
        if not np.all((r >= 0) & (r <= 2.0 ** 53) & (r == np.floor(r))):
            raise ValueError("CSV column r holds a value that is not a mode index")
        r = r.astype(int)
        t = data[:, 0]
        est = data[:, 5:7]
        # the logic jumps at most once per step, so changes between rows
        # recover the flow-phase events, with the norm simulate records;
        # time-zero initialization jumps happen before the first sample and
        # are not in the file
        steps = np.flatnonzero(np.diff(r)) + 1
        norms = map(math.hypot, est[steps, 0].tolist(), est[steps, 1].tolist())
        events = list(map(JumpEvent, t[steps].tolist(), r[steps - 1].tolist(),
                          r[steps].tolist(), norms, steps.tolist()))
        return cls(
            t=t, x1=data[:, 1:3], x2=data[:, 3:5],
            xhat2_reduced=est, eps_norm=data[:, 7], v_lyap=data[:, 8],
            r=r, k_gain=data[:, 10], tau=data[:, 11:13],
            lower=data[:, 13], upper=data[:, 14], jump_events=events)


# The velocity-estimation error of the fed-back estimate xh.
ERROR = "eps{i} = v{i} - xh{i}"
# The blow-up check of one packed state component x: false for a NaN, which
# max(map(abs, state)) <= limit would pass over anywhere but first.
WITHIN_LIMIT = "-{limit} <= {x} <= {limit}"


@functools.cache
def flat_rhs(model_cls, law_cls, mode: str) -> Callable:
    """factory(*model._constants, *law._constants, kd, kp, dt) for one scenario
    shape, built on first use.  It returns, for the packed state s (x1, x2,
    then z and (x1_hat, x2_hat) as the mode has them) and the reduced gain k,
    pack(x1, x2, xhat2, k), the packed state, and
    run(i, stop, s, k, r, last, logic, schedule, step_logic, events), which
    integrates samples i to stop - 1 from s, evaluating no stage past the
    sample `last`.  run returns the block's state tuples and sample rows
    (eps_norm, V, r, k, |xhat2|, |xhat2|, tau, then the reduced observer's
    xhat2 when the mode has it), then s, k, r and logic for the next block;
    s is None after a step that left the blow-up limit or raised a math
    error.  With a logic state each step calls step_logic(schedule, logic,
    |xhat2|); a jump appends its JumpEvent to events and re-bases z.  Both
    inline the equation text, bit for bit the composition of the
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
              f"put((hypot({names('eps{i}', n=n)}), V, r, k, nrm, nrm, "
              f"{names('tau{i}', n=n)}{names('est{i}', n=n) if red else ''}))"]
    # stages 2, 3 and 4 name their states and rates with _b, _c and _d
    final = [f"{x}{{i}} + sixth * ({d}{{i}} + 2.0 * {d}_b{{i}} + 2.0 * {d}_c{{i}} + {d}_d{{i}})"
             for x, d in pairs]
    steps = stage("_b", "half", "") + stage("_c", "half", "_b") + stage("_d", "dt", "_c")
    within = " and ".join(WITHIN_LIMIT.format(x=x, limit=BLOWUP_LIMIT) for x in packed)
    # the step's sample at t, its RK4 step, the blow-up check, then the logic
    loop = ["t = i * dt", "keep(s)", *body, *record, "if i == last:", "    break",
            "try:", *indent([*steps, f"s = ({names(*final, n=n)})"]),
            "except (ValueError, ArithmeticError):", "    return srows, erows, None, k, r, logic",
            f"{state} = s",
            f"if not ({within}):",
            "    return srows, erows, None, k, r, logic"]
    if red:
        loop += ["if logic is not None:", *indent([
            *text(ESTIMATE), f"nrm = hypot({names('est{i}', n=n)})",
            "stepped = step_logic(schedule, logic, nrm)", "if stepped is not logic:",
            "    events.append(JumpEvent(t + dt, logic.r, stepped.r, nrm, i + 1))",
            "    k = stepped.k_r", "    r = stepped.r", "    logic = stepped",
            *indent([*text(REBASE), f"s = {state}"])])]
    unpack = [f"({names(v + '{i}', n=n)}) = {v}" for v in ("q", "v", "est")]
    lines = ["half = 0.5 * dt", "sixth = dt / 6.0",
             *source("pack", "q, v, est, k", [*unpack, *(text(REBASE) * red),
                                               *text("ph{i} = q{i}\nvh{i} = est{i}") * full],
                     state),
             *source("run", "i, stop, s, k, r, last, logic, schedule, step_logic, events",
                     ["srows, erows = [], []", "keep, put = srows.append, erows.append",
                      f"{state} = s", "for i in range(i, stop):", *indent(loop)],
                     "srows, erows, s, k, r, logic")]
    params = names(*model_cls.CONSTANTS, *law_cls.CONSTANTS, "kd", "kp", "dt", n=n)
    return define("factory", params, n, {}, lines, "pack, run", JumpEvent=JumpEvent)


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate one scenario and record every sample."""
    scenario.validate()
    model = scenario.model
    n = model.n
    use_red = scenario.observer_mode in ("reduced", "both")
    use_full = scenario.observer_mode in ("full", "both")
    law = scenario.controller
    dt = scenario.dt
    eta = scenario.eta

    # Spectral constants and the constant-mode gain; in scheduled mode the
    # design speed bound of the starting band keeps the record meaningful.
    design = compute_k0(model, eta, scenario.design_speed())

    schedule = None
    logic = None
    events: list[JumpEvent] = []
    if scenario.gain_mode == "scheduled":
        schedule = GainSchedule(model, scenario.hybrid)
        logic = initialize_logic(schedule, math.hypot(*scenario.xhat2_0.tolist()),
                                 scenario.r_guess, events)
        k = logic.k_r
        r_rec = logic.r
        kd = design.k0
    else:
        k = kd = scenario.k0_override if scenario.k0_override is not None else design.k0
        r_rec = 0
    kp = kd * kd

    factory = flat_rhs(type(model), type(law), scenario.observer_mode)
    pack, run = factory(*model._constants, *law._constants, kd, kp, dt)
    s = pack(scenario.q0.tolist(), scenario.v0.tolist(), scenario.xhat2_0.tolist(), k)

    n_samples = scenario.sample_count()
    states = np.empty((n_samples, len(s)))
    # per-sample columns: eps_norm, V, r, k_r, lower, upper, tau, then the
    # reduced observer's estimate
    extra = np.empty((n_samples, 6 + n + n * use_red))
    # run integrates a block of samples and returns its rows, which are
    # copied into the arrays per block.  Both bracket columns record the
    # estimate norm; velocity_sandwich maps them to the bracket after the loop.
    for start in range(0, n_samples, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n_samples)
        srows, erows, s, k, r_rec, logic = run(start, stop, s, k, r_rec, n_samples - 1,
                                               logic, schedule, step_logic, events)
        if s is None:
            t = (start + len(srows) - 1) * dt
            raise SimulationBlowUp(
                f"state component left |x| <= {BLOWUP_LIMIT:g} at t = {t + dt:.6g}")
        states[start:stop] = srows
        extra[start:stop] = erows
    extra[:, 4], extra[:, 5] = velocity_sandwich(eta, extra[:, 4])

    return Trajectory(
        t=np.arange(n_samples) * dt, x1=states[:, :n], x2=states[:, n:2 * n],
        eps_norm=extra[:, 0], v_lyap=extra[:, 1], r=extra[:, 2].astype(int),
        k_gain=extra[:, 3], tau=extra[:, 6:6 + n], lower=extra[:, 4], upper=extra[:, 5],
        xhat2_reduced=extra[:, 6 + n:] if use_red else None,
        # the full observer's x2_hat is packed last
        xhat2_full=states[:, -n:] if use_full else None,
        z=states[:, 2 * n:3 * n] if use_red else None,
        jump_events=events, scenario=scenario, design=design)


def builtin_scenarios() -> dict[str, Scenario]:
    """The three reference scenarios on the default two-link arm."""
    from .dynamics import TwoLinkArm
    from .controllers import OpenLoopBounded, OpenLoopUnbounded, PdConfig, PdGravity

    arm = TwoLinkArm()
    q0 = np.array([-2.0 * np.pi / 3.0, np.pi / 10.0])
    v0 = np.array([-0.5, 1.0])
    est0 = np.zeros(2)
    hybrid = HybridConfig(v_bar=1.5, eta=1.0, semantics="paper_faithful", r_min=1)
    pd = PdConfig(kp=[40.0, 20.0], kd=[60.0, 30.0],
                  x_ref=[np.pi / 4.0, -np.pi / 3.0])
    return {
        "example1": Scenario(
            name="example1", model=arm, q0=q0, v0=v0, xhat2_0=est0,
            controller=OpenLoopBounded(), observer_mode="both",
            gain_mode="constant", eta=1.0, v_max=1.5, dt=1e-3, t_final=20.0),
        "example2": Scenario(
            name="example2", model=arm, q0=q0, v0=v0, xhat2_0=est0,
            controller=OpenLoopUnbounded(), observer_mode="reduced",
            gain_mode="scheduled", eta=1.0, hybrid=hybrid, r_guess=1,
            dt=1e-3, t_final=20.0),
        "example3": Scenario(
            name="example3", model=arm, q0=q0, v0=v0, xhat2_0=est0,
            controller=PdGravity(pd), observer_mode="reduced",
            gain_mode="scheduled", eta=1.0, hybrid=hybrid, r_guess=1,
            dt=1e-3, t_final=20.0),
    }
