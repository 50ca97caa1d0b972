"""Command-line front end: run scenarios, list them, sweep, and check exports.

Exit codes: 0 success, 1 configuration or I/O problem, 2 simulation failure,
3 diagnostic checks failed.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import report_lines
from .controllers import (ConstantTorque, OpenLoopBounded, OpenLoopUnbounded,
                          PdConfig, PdGravity)
from .dynamics import SingularInertiaError, TwoLinkArm, TwoLinkParams
from .hybrid_logic import SEMANTICS, HybridConfig
from .simulator import (BUILTIN_NAMES, GAIN_MODES, OBSERVER_MODES, Scenario,
                        ScenarioError, SimulationBlowUp, Trajectory, builtin_scenarios,
                        simulate)

OUT_ENV_VAR = "VELOBS_OUT"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_CHECKS = 3
# The exit code of a report (`run --report`, `sweep`, `check`): its last line.
EXIT_OF_VERDICT = {"overall: pass": EXIT_OK, "overall: fail": EXIT_CHECKS}


def _parse_vec(text: str) -> np.ndarray:
    vals = np.array([float(x) for x in text.replace(",", " ").split()])
    if vals.shape != (2,):
        raise ScenarioError(f"expected 2 values, got {vals.shape[0]}")
    return vals


def _parse_semantics(text: str) -> str:
    if text not in ("paper", *SEMANTICS):
        raise ScenarioError("semantics must be 'paper' or 'hysteresis'")
    return "paper_faithful" if text == "paper" else text


# Each controller type's law, and the [controller] keys it is built from.
CONTROLLER_TYPES = {
    "open_loop_1": (OpenLoopBounded, ()), "open_loop_2": (OpenLoopUnbounded, ()),
    "pd": (lambda kp, kd, x_ref: PdGravity(PdConfig(kp, kd, x_ref)), ("kp", "kd", "setpoint")),
    "constant": (ConstantTorque, ("tau",))}
# The keys a scenario file may hold, by section, with parser and default: the
# text read where a file leaves the key out, None if it is optional, or ... if
# it must be given.  [model] lists the TwoLinkParams fields and defaults.
SCENARIO_KEYS = {
    "model": {"m1": (float, "10.0"), "m2": (float, "20.0"), "l1": (float, "1.0"),
              "l2": (float, "1.5"), "f1": (float, "0.1"), "f2": (float, "0.3"),
              "gravity": (float, "9.81")},
    "initial": dict.fromkeys(("q0", "dq0", "dq0_hat"), (_parse_vec, "0 0")),
    "controller": {"type": (str, "constant"), "kp": (_parse_vec, ...), "kd": (_parse_vec, ...),
                   "setpoint": (_parse_vec, ...), "tau": (_parse_vec, "0 0")},
    "observer": {"eta": (float, "1.0"), "mode": (str, "reduced"), "gain": (str, "constant"),
                 "v_max": (float, None)},
    "hybrid": {"v_bar": (float, "1.5"), "r_min": (int, "1"), "r_guess": (int, None),
               "semantics": (_parse_semantics, "paper")},
    "simulation": {"dt": (float, "1e-3"), "t_final": (float, "10.0")},
}


def _read(sections, section: str, key: str):
    """A key's value in a file's sections (its ConfigParser, or {}), or its default."""
    parse, default = SCENARIO_KEYS[section][key]
    values = sections[section] if section in sections else {}
    text = values[key] if default is ... else values.get(key, default)
    return None if text is None else parse(text)


def _band(sections, eta: float, v_bar: float | None = None) -> tuple[HybridConfig, int]:
    """The band of a file's [hybrid] (v_bar wide if that is given) and its first mode."""
    read = functools.partial(_read, sections, "hybrid")
    v_bar = read("v_bar") if v_bar is None else v_bar
    hybrid = HybridConfig(semantics=read("semantics"), v_bar=v_bar, eta=eta, r_min=read("r_min"))
    r_guess = read("r_guess")
    return hybrid, max(hybrid.r_min, 1) if r_guess is None else r_guess


def load_scenario_file(path) -> Scenario:
    """Build a scenario from a flat INI-style config file, named by its stem."""
    path = Path(path)
    # scenario_checks holds a builtin's name to that builtin's claims
    if path.stem in BUILTIN_NAMES:
        raise ScenarioError(f"scenario file {path} has the name of a builtin; rename it")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(str(path)):
            raise FileNotFoundError(f"cannot read scenario file {path}")
        for section in parser.sections():
            if section not in SCENARIO_KEYS:
                raise ValueError(f"unknown section [{section}]")
            # a [DEFAULT] key is read in every section, so each must know it
            for key in parser[section]:
                if key not in SCENARIO_KEYS[section]:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
        # with no other section, a [DEFAULT] key is read by none
        for key in parser.defaults() if not parser.sections() else ():
            raise ValueError(f"unknown key {key!r} in section [{parser.default_section}]")
        read = functools.partial(_read, parser)
        model = TwoLinkArm(TwoLinkParams(*(read("model", key) for key in SCENARIO_KEYS["model"])))
        q0, v0, est0 = (read("initial", key) for key in SCENARIO_KEYS["initial"])
        ctype = read("controller", "type")
        if ctype not in CONTROLLER_TYPES:
            raise ScenarioError(f"unknown controller type {ctype!r}")
        law, law_keys = CONTROLLER_TYPES[ctype]
        controller = law(*[read("controller", key) for key in law_keys])
        eta, gain_mode, v_max = (read("observer", key) for key in ("eta", "gain", "v_max"))
        hybrid, r_guess = _band(parser, eta) if parser.has_section("hybrid") else (None, 0)
        return Scenario(
            path.stem, model, q0, v0, est0, controller, gain_mode=gain_mode, eta=eta,
            v_max=v_max, hybrid=hybrid, r_guess=r_guess, dt=read("simulation", "dt"),
            t_final=read("simulation", "t_final"), observer_mode=read("observer", "mode"))
    except (KeyError, ValueError, SingularInertiaError, configparser.Error) as exc:
        if isinstance(exc, ScenarioError):
            raise
        detail = str(exc).replace("\n", " ")  # a configparser message can span lines
        raise ScenarioError(f"invalid scenario file {path}: {detail}") from exc


def resolve_scenario(token: str) -> Scenario:
    """Accept a builtin scenario name or a path to a scenario file."""
    if token in BUILTIN_NAMES:
        return builtin_scenarios()[token]
    if os.path.exists(token):
        return load_scenario_file(token)
    raise ScenarioError(
        f"unknown scenario {token!r}; builtins are {list(BUILTIN_NAMES)}")


def apply_overrides(sc: Scenario, args) -> Scenario:
    """sc with the dt, t_final, observer, gain and jump_semantics of args
    that are not None.  A constant gain is designed at sc.design_speed()."""
    if args.dt is not None:
        sc = replace(sc, dt=args.dt)
    if args.t_final is not None:
        sc = replace(sc, t_final=args.t_final)
    if args.observer is not None:
        sc = replace(sc, observer_mode=args.observer)
    if args.gain == "constant":
        sc = replace(sc, gain_mode="constant")
    elif args.gain == "scheduled" and sc.gain_mode != "scheduled":
        hybrid, r_guess = (sc.hybrid, sc.r_guess) if sc.hybrid else _band({}, sc.eta, sc.v_max)
        sc = replace(sc, gain_mode="scheduled", hybrid=hybrid, r_guess=r_guess)
    if args.jump_semantics is not None:
        if sc.hybrid is None:
            raise ScenarioError("--jump-semantics requires a scheduled scenario")
        sc = replace(sc, hybrid=replace(
            sc.hybrid, semantics=_parse_semantics(args.jump_semantics)))
    return sc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR, ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_one(sc: Scenario, out_dir: Path, want_report: bool) -> int:
    traj = simulate(sc)
    csv_path = out_dir / f"{sc.name}.csv"
    traj.to_csv(csv_path)
    print(f"wrote {csv_path}")
    if not want_report:
        return EXIT_OK
    lines = report_lines(traj, traj.design)
    rep_path = out_dir / f"{sc.name}_report.txt"
    rep_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {rep_path}")
    return EXIT_OF_VERDICT[lines[-1]]


def cmd_run(args) -> int:
    sc = apply_overrides(resolve_scenario(args.scenario), args)
    return _run_one(sc, _out_dir(args), args.report)


def cmd_list(args) -> int:
    names = list(BUILTIN_NAMES)
    if args.config_dir:
        if not os.path.isdir(args.config_dir):
            raise NotADirectoryError(f"config dir {args.config_dir} is not a directory")
        for p in sorted(Path(args.config_dir).iterdir()):
            # a file named as a builtin is refused by run, so it is not listed
            if p.suffix in (".ini", ".cfg") and p.is_file() and p.stem not in BUILTIN_NAMES:
                names.append(f"{p.stem} ({p})")
    for name in names:
        print(name)
    return EXIT_OK


def _sweep_task(token: str, args: argparse.Namespace, out_dir: str) -> int:
    sc = apply_overrides(resolve_scenario(token), args)
    sub = Path(out_dir) / sc.name
    sub.mkdir(parents=True, exist_ok=True)
    return _run_one(sc, sub, True)


def sweep_workers(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: no more than tasks or CPUs."""
    return min(jobs, n_tasks, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError("--jobs must be at least 1")
    tokens = args.scenarios or list(BUILTIN_NAMES)
    # each run writes to the subdirectory of its name: a builtin's token, a file's stem
    names = [Path(tok).stem for tok in tokens]
    for name in names:
        if names.count(name) > 1:
            raise ScenarioError(f"two scenarios are named {name!r}, with one output directory")
    out_dir = str(_out_dir(args))
    # every scenario runs to its own exit code, its error (if any) on stderr
    workers = sweep_workers(args.jobs, len(tokens))
    if workers > 1:
        # here, so that no other command pays for their import
        import concurrent.futures
        import multiprocessing
        # spawned, not forked: numpy's import leaves this process a second thread
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                    mp_context=spawn) as pool:
            futures = [pool.submit(_exit_code, _sweep_task, tok, args, out_dir)
                       for tok in tokens]
            codes = [fut.result() for fut in futures]
    else:
        codes = [_exit_code(_sweep_task, tok, args, out_dir) for tok in tokens]
    for tok, code in zip(tokens, codes):
        print(f"{tok}: exit {code}")
    return max(codes)


def cmd_check(args) -> int:
    sc = apply_overrides(resolve_scenario(args.scenario), args)
    traj = Trajectory.from_csv(args.csv, sc)
    lines = report_lines(traj, traj.design)
    text = "\n".join(lines)
    print(text)
    if args.report_file:
        Path(args.report_file).write_text(text + "\n")
    return EXIT_OF_VERDICT[lines[-1]]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, as every refused input gets
        raise ScenarioError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="velobs",
        description="Simulate reduced-order velocity observers on manipulator scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-final", dest="t_final", type=float, default=None)
        p.add_argument("--observer", choices=OBSERVER_MODES, default=None)
        p.add_argument("--gain", choices=GAIN_MODES, default=None)
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
    def command() -> int:
        args = build_parser().parse_args(argv)
        return args.func(args)
    return _exit_code(command)


def _exit_code(func, *args) -> int:
    """func(*args), or the exit code of the error it raised, printed to stderr."""
    try:
        return func(*args)
    except (ValueError, OSError) as exc:    # a ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except SystemExit as exc:  # argparse exits after --help
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
