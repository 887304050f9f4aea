#!/bin/sh
# Run the 8 shipped commands from the source of one checkout, each as CSV
# and as JSON, serial (--threads 0) and pooled (--threads 2 and 3), and
# write every run's stdout, stderr and exit code to OUTDIR (144 files).
# Three workers spread the 25- and 49-chunk calls of consistency_small_T
# over the pool differently from two.  Two checkouts give the same bytes
# when `diff -r` of their OUTDIRs is empty:
#
#   scripts/shipped_outputs.sh OLD_CHECKOUT /tmp/old
#   scripts/shipped_outputs.sh NEW_CHECKOUT /tmp/new
#   diff -r /tmp/old /tmp/new
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
outdir=$(cd "$2" && pwd)
cd "$checkout"
while read -r name command; do
    for format in csv json; do
        for threads in 0 2 3; do
            stem="$outdir/$name.$format.threads$threads"
            status=0
            # $command is split into its words on purpose
            PYTHONPATH=src python3 -m bdlab.cli $command --format "$format" --threads "$threads" \
                >"$stem.stdout" 2>"$stem.stderr" || status=$?
            echo "$status" >"$stem.exit"
        done
    done
done <<'COMMANDS'
simulate_xi simulate --config configs/simulate.json --process xi
simulate_zeta simulate --config configs/simulate.json --process zeta
poisson_check poisson-check --config configs/poisson_check.json
marginal_exp marginal-scan --config configs/marginal_exp.json
marginal_superexp marginal-scan --config configs/marginal_superexp.json
consistency_small_T consistency-check --config configs/consistency_small_T.json
level_cross level-cross-scan --config configs/level_cross.json
rate_eval_exp rate-eval --config configs/rate_eval_exp.json --profile configs/ramp_profile.json
COMMANDS
