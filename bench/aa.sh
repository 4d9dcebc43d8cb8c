#!/usr/bin/env bash
# A/A acceptance: two full sets of runs of the same code, back to back,
# then compare. The same code must agree with itself within the
# benchmark's own bounds: compare prints no "worse" (exit 1) and should
# print no "unresolved". Arguments are passed to both sets, e.g.
#
#   bash bench/aa.sh --seed 7
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
bash run.sh "$@" --out results/AA_first.json
bash run.sh "$@" --out results/AA_second.json
bash run.sh compare results/AA_first.json results/AA_second.json
