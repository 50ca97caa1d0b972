"""The mutation table: one-line mutants that tier-1 must kill.

Each row is a file, an old string and a new string.  The script applies each
row to its own temporary copy of the repository, runs tier-1 there with
`-x`, at most JOBS rows at a time, and prints every row with its outcome,
then the survivors.  Row 0, the unmutated copy, runs alongside and must
pass.  It exits 1 when a row survives that EQUIVALENT does not list, and 2
when row 0 fails (printing the last TAIL lines of its output) or a row's old
string is not in its file exactly once.

    python tests/mutation_table.py            # every row
    python tests/mutation_table.py 3 17       # rows 3 and 17 only

The name does not match pytest's test-file pattern, so tier-1 does not
collect this file.
"""
from __future__ import annotations

import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what tier-1 reads: the package, the tests, perfbench's checks, the README's
# key table and the pytest settings
COPY = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
JOBS = 3
# seconds one row's tier-1 may take before it counts as killed (a hang)
TIMEOUT = 600
# lines of tier-1's output that a failing row 0 prints, the failing test's among them
TAIL = 20

A, O, H = "src/velobs/analysis.py", "src/velobs/observers.py", "src/velobs/hybrid_logic.py"
S, D, C = "src/velobs/simulator.py", "src/velobs/dynamics.py", "src/velobs/controllers.py"
E, L, K = "src/velobs/equations.py", "src/velobs/cli.py", "src/velobs/csvtext.py"

ROWS = (
    # the claim layer's constants and comparison edges
    (A, "0.8 * (len(traj.r) - 1)", "0.85 * (len(traj.r) - 1)"),
    (A, "traj.eps_norm <= eta", "traj.eps_norm < eta"),
    (A, "max(end, 3)", "max(end, 4)"),
    (A, "slack = 1e-12", "slack = 1e-9"),
    (O, "K_MIN = 0.01", "K_MIN = 0.011"),
    (A, "np.linalg.norm(traj.x1[-1] - ref) < 0.01", "np.linalg.norm(traj.x1[-1] - ref) < 0.02"),
    (A, "(traj.eps_norm < radius)", "(traj.eps_norm <= radius)"),
    (O, "dph{i} = kd * e{i} + vh{i}", "dph{i} = kp * e{i} + vh{i}"),
    (D, "(w1 * b + w2 * c) * w2)", "(w1 * b + w2 * b) * w2)"),
    (H, "margin = -self.eta if", "margin = -0.5 * self.eta if"),
    (C, "- kd{i} * xh{i}", "- 1.001 * kd{i} * xh{i}"),
    (H, "maximum(0.0, nrm - eta), nrm + eta", "maximum(0.0, nrm - eta), nrm + 1.01 * eta"),
    (A, "<= CHATTER_WINDOW", "< CHATTER_WINDOW"),
    (A, "LYAPUNOV_TOL = 1e-8", "LYAPUNOV_TOL = 1e-7"),
    (S, "BLOWUP_LIMIT = 1e6", "BLOWUP_LIMIT = 2e6"),
    # the jump derivation and its audit
    (S, "r[steps - 1], r[steps]", "r[steps], r[steps]"),
    (S, "map(math.hypot, *traj.xhat2[steps]", "map(max, *traj.xhat2[steps]"),
    (S, "np.flatnonzero(np.diff(r)) + 1", "np.flatnonzero(np.diff(r))"),
    (A, "(nrm >= up)", "(nrm > up)"),
    (A, "(nrm <= down)", "(nrm < down)"),
    (A, "(new_r == old_r + 1)", "(new_r >= old_r + 1)"),
    (A, "above = old_r >= sc.hybrid.r_min", "above = old_r > sc.hybrid.r_min"),
    # the floor mode's down threshold, in the form that takes an array of modes
    (H, "np.where(r > self.r_min", "np.where(r >= self.r_min"),
    # the time-zero mode: each bisection's predicate, the bound on its
    # distance from r_guess, and the direction of the walk derived from it
    (H, "nrm < config.thresholds(r)[0]", "nrm <= config.thresholds(r)[0]"),
    (H, "nrm <= config.thresholds(r)[1]", "nrm < config.thresholds(r)[1]"),
    (H, "r_guess + MAX_INIT_JUMPS + 1", "r_guess + MAX_INIT_JUMPS"),
    (S, "abs(r[0] - scenario.r_guess) > MAX_INIT_JUMPS",
     "abs(r[0] - scenario.r_guess) >= MAX_INIT_JUMPS"),
    (S, "way = 1 if r[0] >= sc.r_guess else -1", "way = 1 if r[0] <= sc.r_guess else -1"),
    # a line of whitespace in a CSV is blank, and whitespace then "#" a comment
    (S, "map(str.lstrip, fh)", "fh"),
    # a CSV's estimate goes to its scenario's active observer
    (S, 'None if mode == "full" else self.xhat2', 'None if mode != "full" else self.xhat2'),
    # the gain schedule enters the next mode up, designed at its own band
    (H, "return schedule[state.r + 1]", "return schedule[state.r]"),
    (H, "compute_kr(self.model, self.config, r)", "compute_kr(self.model, self.config, r + 1)"),
    # the design grid's array pass: the eigenvalue column of lam_min, the abs
    # of c0, the pick order of M's entries (eigenvalues kept), the array trig
    (D, "GridTables(w[:, 0].copy()", "GridTables(w[:, -1].copy()"),
    (D, 'abs(ns["sin"](q[1]))', 'ns["sin"](q[1])'),
    (D, 'INERTIA = ("a", "b", "b", "c")', 'INERTIA = ("c", "b", "b", "a")'),
    (E, '"cos": np.vectorize(math.cos', '"cos": np.vectorize(math.sin'),
    # the packed sample array: each block's byte offset, the sample a blow-up
    # reports, the width of a record with both observers (its z columns), the
    # bound columns velocity_sandwich overwrites and the norm column it reads
    (S, "start * samples.strides[0]", "(start + 1) * samples.strides[0]"),
    (S, "len(rows) // width - 1", "len(rows) // width"),
    (S, '["z{i}"] * (mode != "full")', '["z{i}"] * (mode == "reduced")'),
    (S, "traj.lower[:], traj.upper[:] =", "traj.lower[:], traj.eps_norm[:] ="),
    (S, "velocity_sandwich(scenario.eta, traj.lower)",
     "velocity_sandwich(scenario.eta, traj.eps_norm)"),
    # the records and laws built by a plain __init__: PdConfig's kd checks,
    # ConstantTorque's float values and PlantState's shape check
    (C, 'self.kd = _as_gain_vector(kd, n, "kd")', "self.kd = np.asarray(kd, dtype=float)"),
    (C, "np.asarray(tau, dtype=float)", "np.asarray(tau)"),
    (D, "self.x1.ndim != 1 or self.x1.shape != self.x2.shape", "self.x1.ndim != 1"),
    (D, "self.x1.ndim != 1 or self.x1.shape", "self.x1.shape"),
    # the one rule that decides whether a law fits its model, the estimate
    # check of every law, and the gain shape check that refuses a matrix
    (C, "if self.n != model.n:", "if self.n > model.n:"),
    (C, 'model._check_joint_vector(xhat2, "xhat2").tolist()', "list(xhat2)"),
    (C, "if k.shape != (n,):", "if k.shape[:1] != (n,):"),
    # define skips only an empty unpack, and a constant gain's Lyapunov scan
    # admits speeds up to v_max
    (E, "unpack.items() if spec]", "unpack.items()]"),
    (A, "else design.v_max", "else 2.0 * design.v_max"),
    # a scheduled override's band is v_max wide, a zero v_max too
    (L, 'read("v_bar") if v_bar is None else v_bar', 'v_bar or read("v_bar")'),
    # ... and its first mode is the band's own, as a file's [hybrid] gives it
    (L, "hybrid=hybrid, r_guess=r_guess)", "hybrid=hybrid, r_guess=max(r_guess, hybrid.r_min))"),
    # F's symmetric part, with no F + F^T to overflow
    (D, "f + 0.5 * (f.T - f)", "0.5 * (f + f.T)"),
    # the design record's constants: lambda1 half the least eigenvalue,
    # lambda2 half the greatest, and the floor that the gain formula reads
    (D, "0.5 * float(w[:, 0].min())", "0.5 * float(w[:, 0].max())"),
    (D, "0.5 * float(w[:, -1].max())", "0.5 * float(w[:, -1].min())"),
    (O, "- tables.floor)", "- 0.0)"),
    # an open-loop profile's constant, scaled by 1 + 1e-7
    (C, "tau2 = g2 + (1.0 + sin(2.0 * t))", "tau2 = g2 + (1.0000001 + sin(2.0 * t))"),
    # the CSV writer: r as an integer, and blocks that neither overlap nor skip
    (K, "np.trunc(v[:, whole]) + 0.0", "v[:, whole] + 0.0"),
    (S, "start:start + CSV_BLOCK_ROWS,", "start + 1:start + CSV_BLOCK_ROWS,"),
    # the block formatter's kernel: r's -0.0 made a 0 and r as an integer
    # where % formats it, the half-even tie, the range edges, the 3-digit
    # exponent and the low part of 10**p
    (K, "np.trunc(v[:, whole]) + 0.0", "np.trunc(v[:, whole])"),
    (K, 'b"%d" % y if', 'b"%.17g" % y if'),
    (K, "rounded = np.rint(low)", "rounded = np.floor(low + 0.5)"),
    (K, "LOW, HIGH = 1e-280, 1e16", "LOW, HIGH = 1e-280, 1e18"),
    (K, "LOW, HIGH = 1e-280, 1e16", "LOW, HIGH = 1e-290, 1e16"),
    (K, "np.abs(x) >= 100", "np.abs(x) > 100"),
    (K, "float(10 ** p - int(hi))", "float(0 * p)"),
)

# row number -> why tier-1 cannot tell the mutant from the program
EQUIVALENT: dict[int, str] = {}


def run_row(number: int, path: str, old: str, new: str) -> tuple[int, bool, float, str]:
    """(number, survived, seconds, the last TAIL lines of tier-1's output) of
    one row, run on a temporary copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant{number}_") as tmp:
        for name in COPY:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / path
        target.write_text(target.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        try:
            done = subprocess.run(TIER1, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, timeout=TIMEOUT)
            survived, output = done.returncode == 0, done.stdout
        except subprocess.TimeoutExpired:
            survived, output = False, f"timed out after {TIMEOUT} s"
    tail = "".join(output.splitlines(keepends=True)[-TAIL:])
    return number, survived, time.perf_counter() - start, tail


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(1, len(ROWS) + 1)
    # row 0 replaces nothing
    rows = {0: (S, "", ""), **{i: ROWS[i - 1] for i in chosen}}
    for i, (path, old, _) in rows.items():
        count = (ROOT / path).read_text().count(old)
        if i and count != 1:
            print(f"row {i}: {old!r} occurs {count} times in {path}", file=sys.stderr)
            return 2
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        (_, passed, _, tail), *results = sorted(
            pool.map(lambda item: run_row(item[0], *item[1]), rows.items()))
    if not passed:
        print(f"row 0: tier-1 fails on the unmutated copy; its last lines:\n{tail}",
              end="", file=sys.stderr)
        return 2
    survivors = []
    for i, survived, seconds, _ in results:
        path, old, new = rows[i]
        outcome = "SURVIVED" if survived else "killed"
        print(f"{i:2d} {outcome:8s} {seconds:5.0f} s  {Path(path).name}: {old!r} -> {new!r}")
        if survived:
            survivors.append(i)
    unexplained = [i for i in survivors if i not in EQUIVALENT]
    for i in survivors:
        print(f"survivor {i}: {EQUIVALENT.get(i, 'not listed as equivalent')}")
    print(f"{len(results) - len(survivors)} of {len(results)} rows killed")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
