"""Benchmark for velobs: simulate, export and check the workloads' scenarios.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one process each

A run imports velobs from the checkout's src/, sets up its workload several
times (timed), then runs as many whole rounds -- simulate, `to_csv` and
`velobs check` on every scenario -- as fit in --seconds (at least one), and checks
each output against references computed apart from velobs.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of one traced round with --trace 1.  See README.md.
"""
from __future__ import annotations

import os

# one thread per workload process: the benchmark measures the Python code
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5


def import_velobs():
    """Import velobs afresh from the checkout (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "velobs" or n.startswith("velobs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("velobs")
    cli = importlib.import_module("velobs.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "velobs":
        raise RuntimeError(f"velobs imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, simulator=pkg.simulator)


def set_up(workload, items, tracer=None):
    """Import velobs and build the workload's scenarios; the timed set-up.

    Returns the (start, end) of the timing, velobs and the scenarios.
    """
    t0 = time.perf_counter()
    velobs = import_velobs()
    if tracer is not None:
        tracer.install()
    scenarios = workload.build(velobs, items)
    for sc in scenarios:
        sc.validate()
    return (t0, time.perf_counter()), velobs, scenarios


def _export_and_check(velobs, done, n_export: int, n_check: int, rnd) -> None:
    """Time `n_export` exports and `n_check` checks of a simulated scenario."""
    clock = time.perf_counter
    item = done.item
    for _ in range(n_export):
        t0 = clock()
        try:
            done.traj.to_csv(item.csv)
        except Exception:
            rnd.failed += 1
            done.exported = False
            print(f"{item.spec['name']}: {traceback.format_exc()}", file=sys.stderr)
            continue
        done.exports.append((t0, clock()))
    for _ in range(n_check):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = velobs.cli.main(item.check_argv())
        except Exception:
            code = traceback.format_exc()
        done.checks.append((t0, clock()))
        if code == 0:
            done.report = out.getvalue()
        else:
            rnd.failed += 1
            done.report_ok = False
            print(f"{item.spec['name']}: velobs check exited {code}: "
                  f"{err.getvalue().strip()}", file=sys.stderr)


def run_round(workload, velobs, items, scenarios, plant_cache):
    """Simulate, export and check every scenario once.

    Returns the (start, end) of every timed call, the operation counts and
    the check failures.  The export and check repetitions of a scenario come
    in two passes, the first right after its `simulate`, the second after
    the last scenario's, so that each median samples two moments of the round.
    """
    rnd = SimpleNamespace(simulate=[], exports=[], checks=[],
                          attempted=0, failed=0, errors=[])
    first_e, first_c = (workload.export_reps + 1) // 2, (workload.check_reps + 1) // 2
    simulated = []
    for item, sc in zip(items, scenarios):
        rnd.attempted += 1 + workload.export_reps + workload.check_reps
        try:
            t0 = time.perf_counter()
            traj = velobs.simulator.simulate(sc)
            rnd.simulate.append((t0, time.perf_counter()))
        except Exception:
            rnd.failed += 1 + workload.export_reps + workload.check_reps
            print(f"{item.spec['name']}: {traceback.format_exc()}", file=sys.stderr)
            continue
        done = SimpleNamespace(item=item, traj=traj, exports=[], checks=[],
                               exported=True, report=None, report_ok=True)
        _export_and_check(velobs, done, first_e, first_c, rnd)
        simulated.append(done)
    for done in simulated:
        _export_and_check(velobs, done, workload.export_reps - first_e,
                          workload.check_reps - first_c, rnd)
        rnd.exports.append(done.exports)
        rnd.checks.append(done.checks)
        # outside the timed region: compare with the references
        if done.exported:
            report = done.report if done.report_ok else None
            rnd.errors += checks.verify(done.item.spec, done.traj, done.item.csv, report,
                                        plant_cache, workload.check_settling)
    return rnd


def round_times(rnd, host) -> dict:
    """A round's end-to-end times, each call scaled to the reference host speed."""
    def median_sum(calls_per_scenario):
        return sum(statistics.median(host.scaled(*c) for c in calls)
                   for calls in calls_per_scenario if calls)

    return {"simulate_s": sum(host.scaled(*c) for c in rnd.simulate),
            "export_s": median_sum(rnd.exports),
            "check_s": median_sum(rnd.checks)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    out_dir = ROOT / ".perfbench_out" / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_times = []

    def fresh_setup():
        # each round starts from a fresh import, like a new process would;
        # set-up is timed SETUP_REPS times before each round and after the
        # last one, so its median samples more than one moment of the run
        for _ in range(SETUP_REPS):
            span, velobs, scenarios = set_up(workload, items)
            setup_times.append(span)
        return velobs, scenarios

    host = HostSpeed()
    try:
        items = workload.items(seed, out_dir)
        plant_cache = {}
        rounds = []
        if not trace:  # the probe would land in the traced self times
            host.__enter__()
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            velobs, scenarios = fresh_setup()
            rounds.append(run_round(workload, velobs, items, scenarios, plant_cache))
            # another round only if it should still end within --seconds
            now = time.perf_counter()
            if trace or now - start + (now - t0) > seconds:
                break
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            _, velobs, scenarios = set_up(workload, items, tracer)
            rounds.append(run_round(workload, velobs, items, scenarios, plant_cache))
        else:
            fresh_setup()
    finally:
        host.__exit__()
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    times = [round_times(r, host) for r in rounds]
    if trace:
        metrics = tracer.metrics(len(items), times[0]["simulate_s"], times[1]["simulate_s"])
    else:
        med = {k: statistics.median(t[k] for t in times)
               for k in ("simulate_s", "export_s", "check_s")}
        setup_s = statistics.median(host.scaled(*span) for span in setup_times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), **{k: (v, "s") for k, v in med.items()},
                   "peak_rss_mb": (rss_mb, "MB")}
        wall = [statistics.median(b - a for a, b in setup_times),
                statistics.median(sum(b - a for a, b in r.simulate) for r in rounds)]
        print(f"{name}: {len(host.samples)} probe timings, mean "
              f"{host.mean_probe_s() * 1e3:.4f} ms; unscaled setup_s {wall[0]:.6g} s, "
              f"simulate_s {wall[1]:.6g} s")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key}: {value:.6g} {unit}")
    print(f"{name}: {len(rounds)} round(s) of {len(items)} scenarios, "
          f"{len(errors)} check failure(s)")
    return {"correct": not errors,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = val
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "velobs" / "__init__.py").is_file():
        print(f"error: no velobs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
