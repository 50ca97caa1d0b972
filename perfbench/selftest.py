"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Each check is run on real velobs output, where it must pass, and on a
sabotaged copy of one of its inputs, where it must fail.  The tracer is
then installed on a short run to show that every wrapped function is
reached.  Exits 0 when all of that holds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402
from workloads import PAPER_SPECS  # noqa: E402

SHORT = 2.0  # seconds of simulated time for the open-loop cases


def _run(name: str, t_final: float):
    from velobs import simulator
    sc = dataclasses.replace(simulator.builtin_scenarios()[name], t_final=t_final)
    return dict(PAPER_SPECS[name], t_final=t_final), simulator.simulate(sc)


def _expect(label: str, real: list, sabotaged: list, results: list) -> None:
    ok = not real and bool(sabotaged)
    results.append(ok)
    detail = sabotaged[0] if sabotaged else "sabotage not detected"
    if real:
        detail = f"real output rejected: {real[0]}"
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def main() -> int:
    results: list[bool] = []
    spec1, tr1 = _run("example1", SHORT)
    spec2, tr2 = _run("example2", SHORT)
    spec3, tr3 = _run("example3", 20.0)

    moved = dict(spec1, q0=[spec1["q0"][0] + 1e-6, spec1["q0"][1]])
    _expect("plant vs thin-rod reference (q0 moved by 1e-6)",
            checks.check_plant(spec1, tr1.t, tr1.x1, tr1.x2),
            checks.check_plant(moved, tr1.t, tr1.x1, tr1.x2), results)

    d = tr2.design
    k_bad = tr2.k_gain.copy()
    k_bad[len(k_bad) // 2] *= 1.0 + 1e-7
    _expect("k_r vs grid formula (one k_r off by 1e-7)",
            checks.check_gains(spec2, d.k0, d.lambda1, d.lambda2, tr2.r, tr2.k_gain),
            checks.check_gains(spec2, d.k0, d.lambda1, d.lambda2, tr2.r, k_bad), results)
    _expect("k0 vs grid formula (k0 off by 1e-7)",
            checks.check_gains(spec1, tr1.design.k0, tr1.design.lambda1,
                               tr1.design.lambda2, tr1.r, tr1.k_gain),
            checks.check_gains(spec1, tr1.design.k0 * (1.0 + 1e-7), tr1.design.lambda1,
                               tr1.design.lambda2, tr1.r, tr1.k_gain), results)

    r_bad = tr2.r.copy()
    i = len(r_bad) // 2
    r_bad[i:] = r_bad[i:] + 1
    _expect("jumps in their jump sets (mode column raised from mid-run)",
            checks.check_jumps(spec2, tr2.xhat2, tr2.r, tr2.jump_events),
            checks.check_jumps(spec2, tr2.xhat2, r_bad, tr2.jump_events), results)
    ev_bad = list(tr2.jump_events)
    j = next(k for k, ev in enumerate(ev_bad) if ev.step > 0 and ev.new_r > ev.old_r)
    ev_bad[j] = ev_bad[j]._replace(est_norm=ev_bad[j].est_norm - 0.5)
    _expect("jump norms (one up-jump recorded 0.5 below its threshold)",
            [], checks.check_jumps(spec2, tr2.xhat2, tr2.r, ev_bad), results)

    x2_bad = tr1.x2.copy()
    x2_bad[-1, 0] += 2.0 * spec1["observer"]["eta"]
    _expect("speed sandwich after entry (last speed moved by 2 eta)",
            checks.check_sandwich(1.0, tr1.x2, tr1.xhat2, tr1.lower, tr1.upper),
            checks.check_sandwich(1.0, x2_bad, tr1.xhat2, tr1.lower, tr1.upper), results)

    eps_bad = tr1.eps_norm.copy()
    eps_bad[10] += 1e-6
    _expect("eps_norm and V columns (one eps_norm off by 1e-6)",
            checks.check_columns(spec1, tr1.x1, tr1.x2, tr1.xhat2, tr1.eps_norm, tr1.v_lyap),
            checks.check_columns(spec1, tr1.x1, tr1.x2, tr1.xhat2, eps_bad, tr1.v_lyap),
            results)

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path = Path(tmp) / "example2.csv"
        tr2.to_csv(path)
        real = checks.check_csv(path, checks.csv_columns(tr2))
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[3] = repr(float(np.nextafter(float(fields[3]), np.inf)))
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        _expect("CSV round trip bit-exact (one value moved by one ulp)",
                real, checks.check_csv(path, checks.csv_columns(tr2)), results)

    eps3 = {"reduced": np.linalg.norm(tr3.x2 - tr3.xhat2, axis=1)}
    late = {"reduced": eps3["reduced"].copy()}
    late["reduced"][-1] = 0.05
    _expect("observer error settles (final error set to 0.05)",
            checks.check_settles(spec3, tr3.t, eps3, tr3.x1),
            checks.check_settles(spec3, tr3.t, late, tr3.x1), results)
    ctl = dict(spec3["controller"], setpoint=[spec3["controller"]["setpoint"][0] + 0.05,
                                              spec3["controller"]["setpoint"][1]])
    _expect("PD arm reaches its setpoint (setpoint moved by 0.05 rad)",
            [], checks.check_settles(dict(spec3, controller=ctl), tr3.t, eps3, tr3.x1),
            results)

    from velobs import analysis
    report = "\n".join(analysis.report_lines(tr3, tr3.design))
    _expect("velobs check report (k0_design replaced)",
            checks.check_report(spec3, report),
            checks.check_report(spec3, report.replace("k0_design: ", "k0_design: 1")),
            results)

    results.append(_tracer_reaches_everything())
    print(f"{sum(results)}/{len(results)} self-checks behaved")
    return 0 if all(results) else 1


def _tracer_reaches_everything() -> bool:
    """A traced simulate/export/check of a short scheduled PD run, plus the
    other torque laws, calls every wrapped function."""
    for name in [n for n in sys.modules if n == "velobs" or n.startswith("velobs.")]:
        del sys.modules[name]
    import velobs.cli
    tracer = Tracer()
    tracer.install()
    from velobs import cli, simulator
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        ini = Path(tmp) / "scheduled.ini"
        ini.write_text("[controller]\ntype = pd\nkp = 40 20\nkd = 60 30\n"
                       "setpoint = 0.5 -0.5\n[observer]\ngain = scheduled\n"
                       "[hybrid]\n[simulation]\nt_final = 0.05\n")
        sc = cli.load_scenario_file(ini)
        tr = simulator.simulate(sc)
        tr.to_csv(Path(tmp) / "scheduled.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check", str(Path(tmp) / "scheduled.csv"), "--scenario", str(ini)])
        # the constant and open-loop torque laws
        for ctl in (velobs.controllers.ConstantTorque([0.0, 0.0]),
                    velobs.controllers.OpenLoopBounded(),
                    velobs.controllers.OpenLoopUnbounded()):
            simulator.simulate(dataclasses.replace(sc, controller=ctl))
    keys = {k for k, *_ in FUNCTIONS} | {k for k, *_ in METHODS}
    missing = sorted(k for k in keys if tracer.calls[k] == 0)
    ok = not missing and tracer.calls["controllers.torque"] > 0
    print(f"{'PASS' if ok else 'FAIL'} tracer reaches every wrapped function"
          + (f" (never called: {missing})" if missing else
             f" ({len(keys)} keys, {tracer.steps} steps)"))
    return ok


if __name__ == "__main__":
    sys.exit(main())
