#!/bin/sh
# Run every shipped config and figure command through the CLI and keep what
# each run wrote, printed and returned, so two source trees can be compared:
#
#   tools/cli_outputs.sh OUTDIR_A            # in the first tree
#   tools/cli_outputs.sh OUTDIR_B            # in the second tree
#   diff -r OUTDIR_A OUTDIR_B
#
# Starts with gen-group --dim 2 and --dim 4, which build the group caches in
# OUTDIR/cache/ that every later run loads.  Then runs every configs/*.json
# with spectrum, curve, correct and rb, then fig-delta, fig-pbloch and
# fig-basis at --dim 2 and at --dim 4 (fig-basis --dim 4, about 1 s on a
# shared 2-vCPU machine, is the slowest run), all with --seed 7.  Last, rb on configs/ztilt_d2.json with the
# seed 2^64 + 5, whose three uint32 words all feed the sequence draw: 37 runs.
# Each run gets OUTDIR/<name>/ holding its output files and stdout.txt,
# stderr.txt and exit_code.txt.  The runs start in OUTDIR and pass --out and
# --group-cache as relative paths, so no absolute path reaches what they
# print.  Nothing is written into the repository.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1/cache"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONDONTWRITEBYTECODE=1

run() {  # run NAME DIM COMMAND ARGS...
    name=$1 dim=$2
    shift 2
    mkdir -p "$name"
    code=0
    python3 -m rblab.cli "$@" --out "$name" --seed "$seed" --group-cache "cache/g$dim.npz" \
        >"$name/stdout.txt" 2>"$name/stderr.txt" || code=$?
    echo "$code" >"$name/exit_code.txt"
}

seed=7
run gen-group-d2 2 gen-group --dim 2
run gen-group-d4 4 gen-group --dim 4

for config in "$root"/configs/*.json; do
    stem=$(basename "$config" .json)
    dim=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1])).get("dim", 2))' "$config")
    for command in spectrum curve correct rb; do
        run "$stem-$command" "$dim" "$command" --config "$config"
    done
done
for command in fig-delta fig-pbloch fig-basis; do
    run "$command-d2" 2 "$command" --dim 2
done
for command in fig-delta fig-pbloch fig-basis; do
    run "$command-d4" 4 "$command" --dim 4
done
seed=18446744073709551621
run ztilt_d2-rb-seed-2p64+5 2 rb --config "$root/configs/ztilt_d2.json"
