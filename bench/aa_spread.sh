#!/usr/bin/env bash
# Measure the A/A spread afresh: ten runs of every workload, one workload
# per run and each run with another seed, then "mpjbench spread" over
# the result files, written to cmd/mpjbench/aa_spread.json (the next
# build embeds it). Run it on an otherwise idle host, on unchanged code;
# it takes about a quarter of an hour. An argument changes the first seed:
#
#   bash bench/aa_spread.sh 101
set -euo pipefail
cd "$(dirname "$0")"
first=${1:-1}
rm -rf results/aa_spread
for seed in $(seq "$first" $((first + 9))); do
	for workload in pingpong_eager_8B pingpong_rndv_1MiB_double msgrate_mt_512B coll_step_hybrid_np4 fanin_anysource_smp_np4; do
		bash run.sh --workload "$workload" --seed "$seed" --out "results/aa_spread/${workload}_$seed.json" | tail -n 1
	done
done
.build/mpjbench spread results/aa_spread/*.json > results/aa_spread/table.json
cp results/aa_spread/table.json cmd/mpjbench/aa_spread.json
cat cmd/mpjbench/aa_spread.json
