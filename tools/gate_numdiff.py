"""Explain the differences the refactor gate found as numeric ones.

    python3 tools/gate_numdiff.py A B        # e.g. OUTDIR/base OUTDIR/work

A and B are the two output trees of `tools/refactor_gate.sh` (or of two
`tools/cli_outputs.sh` runs).  For each file that differs between them, the
script masks every number in both texts and checks that what is left is
identical, and that both hold the same count of numbers.  It then prints, per
file, how many numbers differ and the largest absolute and relative
difference `|a - b| / max(|a|, |b|)`, each with its line and both values.
`nan` and `inf` are words, not numbers, so a value turning into NaN counts as
a non-numeric difference.  So does a file present on one side only, or one
that is not UTF-8 text.  Exits 1 naming every non-numeric difference, 0 when
all differences are numeric; it says nothing about their size.
"""

from __future__ import annotations

import filecmp
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ or exist on one side only."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(
        str(name) for name in names
        if not ((a / name).is_file() and (b / name).is_file()
                and filecmp.cmp(a / name, b / name, shallow=False))
    )


def numbers(text: str) -> tuple[str, list[tuple[int, str]]]:
    """The text with each number replaced by `#`, and each number with its 1-based line."""
    found = []
    for lineno, line in enumerate(text.splitlines(), 1):
        found += [(lineno, m.group()) for m in NUMBER.finditer(line)]
    return NUMBER.sub("#", text), found


def compare(path_a: Path, path_b: Path) -> str | None:
    """A report line for two files that differ only in numbers; None otherwise."""
    try:
        masked_a, nums_a = numbers(path_a.read_text())
        masked_b, nums_b = numbers(path_b.read_text())
    except (OSError, UnicodeDecodeError):
        return None
    if masked_a != masked_b or len(nums_a) != len(nums_b):
        return None
    worst_abs = worst_rel = (0.0, 0, "", "")
    changed = 0
    for (lineno, x), (_, y) in zip(nums_a, nums_b):
        if x == y:
            continue
        changed += 1
        u, v = float(x), float(y)
        diff = abs(u - v)
        rel = diff / max(abs(u), abs(v)) if diff else 0.0
        worst_abs = max(worst_abs, (diff, lineno, x, y))
        worst_rel = max(worst_rel, (rel, lineno, x, y))
    return (
        f"{changed} numbers; max abs {worst_abs[0]:.2e} (line {worst_abs[1]}: {worst_abs[2]} vs {worst_abs[3]}); "
        f"max rel {worst_rel[0]:.2e} (line {worst_rel[1]}: {worst_rel[2]} vs {worst_rel[3]})"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: gate_numdiff.py A B", file=sys.stderr)
        return 2
    a, b = Path(argv[0]), Path(argv[1])
    non_numeric = []
    names = differing(a, b)
    for name in names:
        report = compare(a / name, b / name)
        if report is None:
            non_numeric.append(name)
            print(f"{name}: NON-NUMERIC difference")
        else:
            print(f"{name}: {report}")
    if non_numeric:
        print(f"{len(non_numeric)} of {len(names)} differing files differ in more than numbers: "
              + ", ".join(non_numeric), file=sys.stderr)
        return 1
    print(f"all {len(names)} differing files differ in numbers only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
