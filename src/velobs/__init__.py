"""Simulation toolkit for reduced-order manipulator velocity observers."""

from .dynamics import (PlantState, RobotModel, SingleLinkModel, SingularInertiaError,
                       TwoLinkArm, TwoLinkParams, spectral_bounds, total_energy)
from .observers import (K_MIN, GainDesign, compute_k0, compute_k0_conservative,
                        convergence_rate)
from .hybrid_logic import (GainSchedule, HybridConfig, JumpEvent, LogicState,
                           compute_kr, enter_mode, flow_interval, flow_set,
                           initialize_logic, jump_down_set, jump_up_set, step_logic,
                           velocity_sandwich)
from .controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                          PdConfig, PdGravity)
from .simulator import (Scenario, ScenarioError, SimulationBlowUp, Trajectory,
                        builtin_scenarios, simulate)
from .analysis import (LyapunovCheck, chatter_score, check_lyapunov_decrease,
                       illegal_jumps, report_lines, sandwich_violations,
                       scenario_checks, settling_time, ultimate_r_constant)

__version__ = "0.1.0"
