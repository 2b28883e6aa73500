#!/usr/bin/env bash
# The olfui benchmark's one command. Builds olfui_bench (Release, under
# .bench_build/ at the repository root), then either
#
#   benchmark/run.sh --workload NAME [--seed S] [--trace 0|1]
#     runs one workload in this process tree and ends with its JSON line, or
#
#   benchmark/run.sh [--seed S] [--trace 0|1]
#     runs every workload, each in its own process, prints their
#     `workload metric value unit` lines, writes benchmark/out/results.json
#     and exits nonzero if any check failed.
#
# Every workload runs a fixed number of operations. `--seconds T`, which the
# generic benchmark calling convention passes (BENCHMARK.json's
# run_seconds), is accepted and does not change the run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/benchmark"
out="$here/out"

workload="" seed=1 trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) ;;
    --trace) trace="$2" ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done

# The compiler's scratch files stay inside the checkout too.
mkdir -p "$root/.bench_build/tmp" "$out"
export TMPDIR="$root/.bench_build/tmp"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target olfui_bench -j "$(nproc 2>/dev/null || echo 2)" >&2

bench=("$build/olfui_bench" --seed "$seed" --trace "$trace" --out "$out")
if [ -n "$workload" ]; then
  exec "${bench[@]}" --workload "$workload"
fi

status=0
results="{\"seed\": $seed, \"trace\": $trace, \"workloads\": {"
sep=""
for w in sa_full tdf_full olfui_flow regrade_warm; do
  log="$out/$w.log"
  "${bench[@]}" --workload "$w" >"$log" || status=1
  sed '$d' "$log"
  last="$(tail -n 1 "$log")"
  case "$last" in
    "{"*) results="$results$sep\"$w\": $last"; sep=", " ;;
    *) status=1 ;;
  esac
done
echo "$results}}" >"$out/results.json"
echo "wrote $out/results.json"
exit "$status"
