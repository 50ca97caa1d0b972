"""Command-line front end: run scenarios, list them, sweep, and check exports.

Exit codes: 0 success, 1 configuration or I/O problem, 2 simulation failure,
3 diagnostic checks failed.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import diagnose
from .controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                          PdConfig, PdGravity)
from .dynamics import SingularInertiaError, TwoLinkArm, TwoLinkParams
from .hybrid_logic import HybridConfig
from .observers import compute_k0
from .simulator import (Scenario, ScenarioError, SimulationBlowUp, Trajectory,
                        builtin_scenarios, simulate)

OUT_ENV_VAR = "VELOBS_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_CHECKS = 3

_SEMANTICS_ALIASES = {"paper": "paper_faithful", "paper_faithful": "paper_faithful",
                      "hysteresis": "hysteresis"}


def _parse_vec(text: str, n: int | None = None) -> np.ndarray:
    vals = np.array([float(x) for x in text.replace(",", " ").split()])
    if n is not None and vals.shape != (n,):
        raise ScenarioError(f"expected {n} values, got {vals.shape[0]}")
    return vals


def load_scenario_file(path) -> Scenario:
    """Build a scenario from a flat INI-style config file."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(str(path)):
            raise FileNotFoundError(f"cannot read scenario file {path}")
        # a key the file leaves out keeps the TwoLinkParams default
        msec = parser["model"] if parser.has_section("model") else {}
        model = TwoLinkArm(TwoLinkParams(**{
            "gravity_accel" if key == "gravity" else key: float(msec[key])
            for key in ("m1", "m2", "l1", "l2", "f1", "f2", "gravity") if key in msec}))

        isec = parser["initial"] if parser.has_section("initial") else {}
        q0 = _parse_vec(isec.get("q0", "0 0"), 2)
        v0 = _parse_vec(isec.get("dq0", "0 0"), 2)
        est0 = _parse_vec(isec.get("dq0_hat", "0 0"), 2)

        csec = parser["controller"] if parser.has_section("controller") else {}
        ctype = csec.get("type", "constant")
        if ctype == "open_loop_1":
            controller = OpenLoopBounded()
        elif ctype == "open_loop_2":
            controller = OpenLoopUnbounded()
        elif ctype == "pd":
            controller = PdGravity(PdConfig(
                kp=_parse_vec(csec["kp"], 2), kd=_parse_vec(csec["kd"], 2),
                x_ref=_parse_vec(csec["setpoint"], 2)))
        elif ctype == "constant":
            controller = ConstantTorque(_parse_vec(csec.get("tau", "0 0"), 2))
        else:
            raise ScenarioError(f"unknown controller type {ctype!r}")

        osec = parser["observer"] if parser.has_section("observer") else {}
        eta = float(osec.get("eta", 1.0))
        gain_mode = osec.get("gain", "constant")
        v_max = float(osec["v_max"]) if "v_max" in osec else None

        hybrid = None
        r_guess = 0
        if parser.has_section("hybrid"):
            hsec = parser["hybrid"]
            semantics = _SEMANTICS_ALIASES.get(hsec.get("semantics", "paper"))
            if semantics is None:
                raise ScenarioError("semantics must be 'paper' or 'hysteresis'")
            hybrid = HybridConfig(
                v_bar=float(hsec.get("v_bar", 1.5)), eta=eta,
                semantics=semantics, r_min=int(hsec.get("r_min", 1)))
            r_guess = int(hsec.get("r_guess", max(hybrid.r_min, 1)))

        ssec = parser["simulation"] if parser.has_section("simulation") else {}
        horizon = {key: float(ssec[key]) for key in ("dt", "t_final") if key in ssec}
        return Scenario(
            name=path.stem, model=model, q0=q0, v0=v0, xhat2_0=est0,
            controller=controller,
            observer_mode=osec.get("mode", "reduced"), gain_mode=gain_mode,
            eta=eta, v_max=v_max, hybrid=hybrid, r_guess=r_guess, **horizon)
    except (KeyError, ValueError, SingularInertiaError, configparser.Error) as exc:
        if isinstance(exc, ScenarioError):
            raise
        detail = str(exc).replace("\n", " ")  # a configparser message can span lines
        raise ScenarioError(f"invalid scenario file {path}: {detail}") from exc


def resolve_scenario(token: str) -> Scenario:
    """Accept a builtin scenario name or a path to a scenario file."""
    builtins = builtin_scenarios()
    if token in builtins:
        return builtins[token]
    if os.path.exists(token):
        return load_scenario_file(token)
    raise ScenarioError(
        f"unknown scenario {token!r}; builtins are {sorted(builtins)}")


def apply_overrides(sc: Scenario, args) -> Scenario:
    if getattr(args, "dt", None) is not None:
        sc = replace(sc, dt=args.dt)
    if getattr(args, "t_final", None) is not None:
        sc = replace(sc, t_final=args.t_final)
    if getattr(args, "observer", None) is not None:
        sc = replace(sc, observer_mode=args.observer)
    if getattr(args, "gain", None) is not None and args.gain != sc.gain_mode:
        if args.gain == "constant":
            sc = replace(sc, gain_mode="constant", v_max=sc.design_speed())
        else:
            hybrid = sc.hybrid
            if hybrid is None:
                hybrid = HybridConfig(v_bar=sc.v_max if sc.v_max else 1.5,
                                      eta=sc.eta, r_min=1)
            sc = replace(sc, gain_mode="scheduled", hybrid=hybrid,
                         r_guess=max(sc.r_guess, hybrid.r_min))
    if getattr(args, "jump_semantics", None) is not None:
        if sc.hybrid is None:
            raise ScenarioError("--jump-semantics requires a scheduled scenario")
        sc = replace(sc, hybrid=replace(
            sc.hybrid, semantics=_SEMANTICS_ALIASES[args.jump_semantics]))
    return sc


def _out_dir(args) -> Path:
    out = args.out if getattr(args, "out", None) else os.environ.get(OUT_ENV_VAR, ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_one(sc: Scenario, out_dir: Path, want_report: bool) -> int:
    traj = simulate(sc)
    csv_path = out_dir / f"{sc.name}.csv"
    traj.to_csv(csv_path)
    print(f"wrote {csv_path}")
    if want_report:
        lines, passed = diagnose(traj, traj.design)
        rep_path = out_dir / f"{sc.name}_report.txt"
        rep_path.write_text("\n".join(lines) + "\n")
        print(f"wrote {rep_path}")
        if not passed:
            return EXIT_CHECKS
    return EXIT_OK


def cmd_run(args) -> int:
    sc = apply_overrides(resolve_scenario(args.scenario), args)
    return _run_one(sc, _out_dir(args), args.report)


def cmd_list(args) -> int:
    names = sorted(builtin_scenarios())
    if args.config_dir:
        cfg_dir = Path(args.config_dir)
        if not cfg_dir.is_dir():
            raise FileNotFoundError(f"config dir {cfg_dir} does not exist")
        for p in sorted(cfg_dir.iterdir()):
            if p.suffix in (".ini", ".cfg") and p.is_file():
                names.append(f"{p.stem} ({p})")
    for name in names:
        print(name)
    return EXIT_OK


def _sweep_task(token: str, overrides: dict, out_dir: str) -> int:
    sc = apply_overrides(resolve_scenario(token), argparse.Namespace(**overrides))
    sub = Path(out_dir) / sc.name
    sub.mkdir(parents=True, exist_ok=True)
    return _run_one(sc, sub, True)


def sweep_workers(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: no more than tasks or CPUs."""
    return min(jobs, n_tasks, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError("--jobs must be at least 1")
    tokens = args.scenarios or sorted(builtin_scenarios())
    out_dir = str(_out_dir(args))
    overrides = {"dt": args.dt, "t_final": args.t_final, "observer": args.observer,
                 "gain": args.gain, "jump_semantics": args.jump_semantics}
    # every scenario runs to its own exit code, its error (if any) on stderr
    workers = sweep_workers(args.jobs, len(tokens))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_exit_code, _sweep_task, tok, overrides, out_dir)
                       for tok in tokens]
            codes = [fut.result() for fut in futures]
    else:
        codes = [_exit_code(_sweep_task, tok, overrides, out_dir) for tok in tokens]
    for tok, code in zip(tokens, codes):
        print(f"{tok}: exit {code}")
    return max(codes)


def cmd_check(args) -> int:
    traj = Trajectory.from_csv(args.csv)
    sc = apply_overrides(resolve_scenario(args.scenario), args)
    sc.validate()
    traj.scenario = sc
    if sc.observer_mode == "full":
        # the file's estimate column is the active observer's
        traj.xhat2_full, traj.xhat2_reduced = traj.xhat2_reduced, None
    design = compute_k0(sc.model, sc.eta, sc.design_speed())
    lines, passed = diagnose(traj, design)
    text = "\n".join(lines)
    print(text)
    if args.report_file:
        Path(args.report_file).write_text(text + "\n")
    if not passed:
        return EXIT_CHECKS
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="velobs",
        description="Simulate reduced-order velocity observers on manipulator scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-final", dest="t_final", type=float, default=None)
        p.add_argument("--observer", choices=("reduced", "full", "both"), default=None)
        p.add_argument("--gain", choices=("constant", "scheduled"), default=None)
        p.add_argument("--jump-semantics", dest="jump_semantics",
                       choices=("paper", "hysteresis"), default=None)

    p_run = sub.add_parser("run", help="simulate one scenario and export CSV")
    p_run.add_argument("scenario", help="builtin name or scenario file path")
    p_run.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or .)")
    p_run.add_argument("--report", action="store_true",
                       help="also write the diagnostic report and gate on it")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="list available scenarios")
    p_list.add_argument("--config-dir", default=None,
                        help="directory scanned for *.ini / *.cfg scenario files")
    p_list.set_defaults(func=cmd_list)

    p_sweep = sub.add_parser("sweep", help="run several scenarios with isolated outputs")
    p_sweep.add_argument("scenarios", nargs="*",
                         help="scenario names or files (default: all builtins)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="re-run diagnostics on an exported CSV")
    p_check.add_argument("csv")
    p_check.add_argument("--scenario", required=True,
                         help="scenario the CSV was produced from")
    p_check.add_argument("--report-file", default=None)
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    return _exit_code(args.func, args)


def _exit_code(func, *args) -> int:
    """func(*args), or the exit code of the error it raised, printed to stderr."""
    try:
        return func(*args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def main_entry() -> None:
    sys.exit(main())
