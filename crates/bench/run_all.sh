#!/usr/bin/env bash
# Regenerate every paper table and figure (and the ablations) into results/.
# Usage: crates/bench/run_all.sh [extra harness flags, e.g. --quick]
set -u
cd "$(dirname "$0")/../.."
mkdir -p results
B=./target/release
FLAGS="$*"

run() {
    name=$1; shift
    echo "=== $name $* $FLAGS ($(date +%H:%M:%S))"
    "$B/figure" "$name" "$@" $FLAGS > "results/$name.txt" 2> "results/$name.log" || echo "$name FAILED"
}

run table1
run table2
run table3
run table4
run fig2
run fig3
run fig7
run fig8
run fig9
run fig10
run fig11
run fig12
run fig13
run threshold_sweep
run ablation
run fig14 --warmup 1000000 --measure 4000000
echo "all done"
