#!/usr/bin/env bash
# Diffs the stdout of the deterministic figure and ablation benches
# (bench_fig*, bench_ablation_*) against the checked-in outputs under
# bench/golden/. Every simulated figure the paper reproduction prints must
# stay byte-identical across refactors of the planner and executor.
#
# Usage: tools/check_fig_outputs.sh [build-dir]   (default: build)
# Exits nonzero when a bench is missing, fails, or prints different bytes.
# bench_table5_reorder_overhead is not covered: it prints host timings.
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-build}" && pwd)" || exit 1
golden="$repo/bench/golden"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

status=0
checked=0
for expected in "$golden"/*.txt; do
  name="$(basename "$expected" .txt)"
  bench="$build/bench_$name"
  if [[ ! -x "$bench" ]]; then
    echo "MISSING $bench"
    status=1
    continue
  fi
  # Run inside the scratch directory: some benches write CSV series to cwd.
  if ! (cd "$scratch" && "$bench" > "$scratch/$name.out"); then
    echo "FAILED  bench_$name"
    status=1
    continue
  fi
  if diff -u "$expected" "$scratch/$name.out" > "$scratch/$name.diff"; then
    echo "ok      bench_$name"
  else
    echo "DIFFERS bench_$name"
    cat "$scratch/$name.diff"
    status=1
  fi
  checked=$((checked + 1))
done
if [[ $checked -eq 0 ]]; then
  echo "no golden outputs found under $golden"
  status=1
fi
exit $status
