"""Line coverage of `src/rblab` under the tier-1 suite, from the standard library.

    python3 tools/linecov.py

Runs tier-1 (`python -m pytest -q --continue-on-collection-errors` with
`PYTHONPATH=src`) in a child that loads the plugin PLUGIN first.  The plugin
installs `sys.settrace` and `threading.settrace` before any test module is
imported and records every line run in a file under `src/rblab`; frames of
other files are not traced line by line.  A line is executable when a code
object compiled from its file lists it in `co_lines()`.  Lines run only in a
test's own subprocess are not seen.

Exits with pytest's status when the suite fails.  Otherwise it exits 1 when
an executable line never ran and no ALLOWED entry names its file and its
stripped text, or when an ALLOWED entry matches no line that never ran, so
the list cannot go stale; 0 when neither happens.  Tier-1 took about 25 s
under the plugin, against 15 s without it, on a shared 2-vCPU machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rblab"

PLUGIN = """
import json, os, sys, threading

_SRC = os.environ["RBLAB_LINECOV_SRC"]
_hits = set()

def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line

def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None

sys.settrace(_call)
threading.settrace(_call)

def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    with open(os.environ["RBLAB_LINECOV_OUT"], "w") as fh:
        json.dump(sorted(_hits), fh)
"""

# (file under src/rblab, stripped line text, why no tier-1 test runs it)
ALLOWED = [
    ("cli.py", "sys.exit(main())",
     "the `__main__` guard: tests call `main` in process, the refactor gate runs it"),
    ("noise.py", "from .cliffords import CliffordGroup",
     "under `if TYPE_CHECKING:`, read by type checkers only"),
]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from `path` lists in `co_lines()`."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "rblab_linecov.py").write_text(PLUGIN)
        out = Path(tmp, "hits.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), tmp]),
                   RBLAB_LINECOV_SRC=str(SRC), RBLAB_LINECOV_OUT=str(out))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                                 "-p", "rblab_linecov"], cwd=ROOT, env=env).returncode
        if status != 0:
            print(f"tier-1 exited {status}; no coverage verdict", file=sys.stderr)
            return status
        hits = {(Path(f).resolve(), line) for f, line in json.loads(out.read_text())}

    allowed = {(f, text) for f, text, _ in ALLOWED}
    used, missed, total = set(), [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            key = (path.name, source[line - 1].strip())
            if (path.resolve(), line) in hits:
                continue
            if key in allowed:
                used.add(key)
            else:
                missed.append(f"src/rblab/{path.name}:{line}: {key[1]}")
    stale = [f"{f}: {text}" for f, text in allowed if (f, text) not in used]
    print(f"{total} executable lines in src/rblab; {len(missed)} never ran unlisted, "
          f"{len(used)} allowed entries matched")
    for line in missed:
        print(f"never ran: {line}")
    for entry in stale:
        print(f"allow-list entry matches no line that never ran: {entry}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
