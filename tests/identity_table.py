"""The identity table: a fixed set of CLI commands, run by a parent checkout
and by this one, compared byte for byte.

Each side runs every command in its own process, through `velobs.cli.main`
with that checkout's `src/` first on the path, and records each command's exit
code, stdout and stderr, and the md5 of every file the commands wrote.  The
script prints each difference and a summary, and exits 1 on any difference.

    python tests/identity_table.py <parent-checkout>

The commands: `run --report` and `check --report-file` of example1|2|3, and of
example2|3 at `--t-final 40 --jump-semantics hysteresis`; `run --report` and
`check` of the 48 `ensemble_short` files of seeds 1-3 (written by
perfbench/workloads.py, imported read-only) and of the `r_guess = 1099990`
walk file; `run --report --gain scheduled` and `--gain constant` of
example1|2|3; and two files whose answers changed on purpose: a constant-gain
file whose [hybrid] band starts below its floor, run with `--gain scheduled`
(exit 0 -> 1), and `[model] f1 = 1e308` (exit 1 -> 2).

The name does not match pytest's test-file pattern, so tier-1 does not
collect this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILTINS = ("example1", "example2", "example3")
HYSTERESIS = ("--t-final", "40", "--jump-semantics", "hysteresis")
ENSEMBLE_SEEDS = (1, 2, 3)
# scenario files beside the ensemble's, by stem: ROADMAP item 2's walk of
# 1,099,989 bands, and the two files whose answers changed on purpose
FILES = {
    "far": "[initial]\ndq0 = 9.999895 0\ndq0_hat = 1 0\n[observer]\ngain = scheduled\n"
           "[hybrid]\nv_bar = 1e-5\nr_guess = 1099990\n",
    "band": "[observer]\nv_max = 1.5\n[hybrid]\nr_min = 3\nr_guess = 2\n",
    "sticky": "[model]\nf1 = 1e308\n[observer]\nv_max = 1.5\n",
}


def write_inputs(inputs: Path) -> list[list[str]]:
    """Write the scenario files under inputs; return the commands, each of
    which writes under a path relative to its side's working directory."""
    sys.dont_write_bytecode = True     # perfbench/ is read, not written
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    commands = []
    for name in BUILTINS:
        commands += [["run", name, "--out", "builtin", "--report"],
                     ["check", f"builtin/{name}.csv", "--scenario", name,
                      "--report-file", f"builtin/{name}_check.txt"]]
    for name in BUILTINS[1:]:
        commands += [["run", name, "--out", "hysteresis", "--report", *HYSTERESIS],
                     ["check", f"hysteresis/{name}.csv", "--scenario", name, *HYSTERESIS,
                      "--report-file", f"hysteresis/{name}_check.txt"]]
    files = []
    for seed in ENSEMBLE_SEEDS:
        (inputs / f"seed{seed}").mkdir(parents=True)
        for spec in workloads.ensemble_specs(seed):
            path = inputs / f"seed{seed}" / f"{spec['name']}.ini"
            workloads.write_ini(spec, path)
            files.append((path, f"ensemble{seed}"))
    for stem, text in FILES.items():
        path = inputs / f"{stem}.ini"
        path.write_text(text)
        if stem == "far":
            files.append((path, "walk"))
    for path, out in files:
        commands += [["run", str(path), "--out", out, "--report"],
                     ["check", f"{out}/{path.stem}.csv", "--scenario", str(path)]]
    for gain in ("scheduled", "constant"):
        commands += [["run", name, "--out", f"gain_{gain}", "--report", "--gain", gain]
                     for name in BUILTINS]
    return commands + [["run", str(inputs / "band.ini"), "--out", "band", "--report",
                        "--gain", "scheduled"],
                       ["run", str(inputs / "sticky.ini"), "--out", "sticky", "--report"]]


def run_side(commands_path: str, results_path: str) -> None:
    """Run every command in this process, in the working directory; write
    each one's exit code, stdout and stderr, and every file's md5."""
    from velobs.cli import main

    results = []
    for argv in json.loads(Path(commands_path).read_text()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    files = {str(p.relative_to(Path.cwd())): hashlib.md5(p.read_bytes()).hexdigest()
             for p in sorted(Path.cwd().rglob("*")) if p.is_file()}
    Path(results_path).write_text(json.dumps({"commands": results, "files": files}))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": ROOT}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="identity_") as tmp:
        tmp = Path(tmp)
        commands = write_inputs(tmp / "inputs")
        (tmp / "commands.json").write_text(json.dumps(commands))
        procs = {}
        for side, root in sides.items():
            (tmp / side).mkdir()
            env = {**os.environ, "PYTHONPATH": str(root / "src"),
                   "PYTHONDONTWRITEBYTECODE": "1"}
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--side", str(tmp / "commands.json"),
                 str(tmp / f"{side}.json")], cwd=tmp / side, env=env)
        if any(proc.wait() for proc in procs.values()):
            print("a side ended with an error", file=sys.stderr)
            return 2
        parent, change = (json.loads((tmp / f"{side}.json").read_text()) for side in sides)
        shown = str(tmp / "inputs")
    differ = 0
    for argv, old, new in zip(commands, parent["commands"], change["commands"]):
        if old != new:
            differ += 1
            print(" ".join(argv).replace(shown, "<inputs>"))
            for field, a, b in zip(("exit", "stdout", "stderr"), old, new):
                if a != b:
                    print(f"  {field}: {a!r} -> {b!r}")
    names = sorted(set(parent["files"]) | set(change["files"]))
    changed = [name for name in names
               if parent["files"].get(name) != change["files"].get(name)]
    for name in changed:
        print(f"file {name}: {parent['files'].get(name)} -> {change['files'].get(name)}")
    print(f"{len(commands) - differ} of {len(commands)} commands identical, "
          f"{len(names) - len(changed)} of {len(names)} files md5-identical, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if differ or changed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        run_side(*sys.argv[2:])
    else:
        sys.exit(main(sys.argv[1:]))
