#!/bin/sh
# Refactor gate: the CLI outputs of a base commit and of the working tree
# must be byte-identical, and the line counts of src/rblab are shown side by
# side.
#
#   tools/refactor_gate.sh BASE OUTDIR
#
# Exports BASE with `git archive` into OUTDIR/base-src (no worktree, nothing
# written into the repository), runs this tree's tools/cli_outputs.sh against
# both sources into OUTDIR/base and OUTDIR/work, prints `wc -l src/rblab/*.py`
# for both and ends with `diff -r OUTDIR/base OUTDIR/work`, group caches,
# stdout, stderr and exit codes included.  If they differ, it then runs
# `tools/gate_numdiff.py OUTDIR/base OUTDIR/work` to say whether each
# difference is in numbers only, and how large, and exits 1.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 BASE OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -rf "$out/base-src" "$out/base" "$out/work"
mkdir -p "$out/base-src"
git -C "$root" archive "$1" | tar -x -C "$out/base-src"
# the same runs on both sides, even where BASE predates the script
mkdir -p "$out/base-src/tools"
cp "$root/tools/cli_outputs.sh" "$out/base-src/tools/cli_outputs.sh"

sh "$out/base-src/tools/cli_outputs.sh" "$out/base"
sh "$root/tools/cli_outputs.sh" "$out/work"

echo "src/rblab at $1:"
(cd "$out/base-src" && wc -l src/rblab/*.py)
echo "src/rblab in the working tree:"
(cd "$root" && wc -l src/rblab/*.py)
echo "diff -r $out/base $out/work:"
if diff -r "$out/base" "$out/work"; then
    echo "no differences"
    exit 0
fi
echo "python3 tools/gate_numdiff.py $out/base $out/work:"
python3 "$root/tools/gate_numdiff.py" "$out/base" "$out/work" || true
exit 1
