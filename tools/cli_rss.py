"""Wall time and peak RSS of CLI commands at a base commit and in the working tree.

    python3 tools/cli_rss.py BASE OUTDIR COMMAND [COMMAND ...]

Each COMMAND is one quoted `rblab` command line with paths relative to the
repository root, e.g. "gen-group --dim 4" or "rb --config
configs/ztilt_d4.json".  BASE is exported with `git archive` into
OUTDIR/base, as `tools/refactor_gate.sh` does, and the working tree's `src/`
and `configs/` are copied into OUTDIR/work, so nothing is written into the
repository.  Both copies' `src/` are byte-compiled with `compileall` before
any timing, as `perfbench/run.py` does, so no run compiles `rblab` from
source; tables made before this step included that cost (20-25 ms of a
`python3 -c "import rblab.cli"`).  Each command runs RUNS times per side as
`python3 -m rblab.cli` in that side's copy, the sides alternating which runs
first, BLAS on one thread.  It prints the median wall time and the median
peak RSS that `os.wait4` reports for the child, and the change over the
base.  Exits 1 if any run exits non-zero.
"""

from __future__ import annotations

import compileall
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def timed_run(tree: Path, args: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one `python3 -m rblab.cli ARGS` run in `tree`."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rblab.cli", *args], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    if proc.returncode != 0:
        sys.exit(f"{shlex.join(args)} in {tree} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in kB on Linux


def main() -> None:
    if len(sys.argv) < 4:
        sys.exit(__doc__.split("\n\n")[1])
    base, out, commands = sys.argv[1], Path(sys.argv[2]).resolve(), sys.argv[3:]
    trees = {"base": out / "base", "work": out / "work"}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
    trees["base"].mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(trees["base"])], input=archive.stdout, check=True)
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, trees["work"] / part, ignore=shutil.ignore_patterns("__pycache__"))
    for tree in trees.values():
        compileall.compile_dir(tree / "src", quiet=1)  # the children read bytecode and write none

    print(f"base {base} vs working tree, {RUNS} alternating runs per side, medians")
    print(f"{'command':<40} {'base s':>8} {'work s':>8} {'ratio':>6} {'base MB':>8} {'work MB':>8} {'ratio':>6}")
    for command in commands:
        runs = {"base": [], "work": []}
        for i in range(RUNS):
            for side in ("base", "work") if i % 2 == 0 else ("work", "base"):
                runs[side].append(timed_run(trees[side], shlex.split(command)))
        wall = {side: statistics.median(r[0] for r in rs) for side, rs in runs.items()}
        rss = {side: statistics.median(r[1] for r in rs) for side, rs in runs.items()}
        print(f"{command:<40} {wall['base']:8.3f} {wall['work']:8.3f} {wall['work'] / wall['base']:6.3f}"
              f" {rss['base']:8.1f} {rss['work']:8.1f} {rss['work'] / rss['base']:6.3f}")


if __name__ == "__main__":
    main()
