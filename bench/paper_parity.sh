#!/usr/bin/env bash
# Paper parity: the 11 paper-reproduction benches must print the same stdout
# (without the host-timing "[wall]" lines) and write byte-identical CSVs on
# the working tree and on a base commit.  The deterministic simulated path
# (WorkReport -> cost model) makes every other byte reproducible.
#
# Usage: bench/paper_parity.sh <base-ref>
#
# Builds both trees (Release, only the paper bench targets) under a
# temporary directory ($TMPDIR, default /tmp), runs every bench in a fresh
# directory of its own, one per core at a time, and diffs the outputs.  A
# bench that exits non-zero counts as a difference.  Exits 0
# when everything matches, 1 on any difference (printing the first
# differing lines), 2 on a usage or build error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_ref=$1
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$base_ref^{commit}") || exit 2

benches=(
  bench_table1_memory bench_fig2_intertask_bandwidth
  bench_fig3_rdg_timeseries bench_fig5_intratask_bandwidth
  bench_fig6_roi_sweep bench_table2_markov bench_fig7_latency
  bench_accuracy bench_ablation_predictors bench_partitioning
  bench_reservation
)

work=$(mktemp -d "${TMPDIR:-/tmp}/paper_parity.XXXXXX")
trap 'rm -rf "$work"' EXIT

# The base tree: the commit's files, exported next to the build trees.
mkdir -p "$work/base-src"
git -C "$root" archive "$base_sha" | tar -x -C "$work/base-src"

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF \
    > "$2.log" 2>&1 &&
    cmake --build "$2" -j "$(nproc)" --target "${benches[@]}" >> "$2.log" 2>&1
}
for side in base head; do
  src=$([[ $side == base ]] && echo "$work/base-src" || echo "$root")
  echo "building $side ($([[ $side == base ]] && echo "$base_sha" || echo working tree))"
  if ! build "$src" "$work/build-$side"; then
    tail -n 30 "$work/build-$side.log" >&2
    exit 2
  fi
done

# One run: <side> <bench>; output and CSVs land in $work/run-<side>/<bench>/.
run_one() {
  local dir="$work/run-$1/$2"
  mkdir -p "$dir"
  (cd "$dir" && "$work/build-$1/bench/$2" > stdout.txt 2> stderr.txt) ||
    echo "exit $?" > "$dir/failed"
}
export -f run_one
export work
for side in base head; do
  for b in "${benches[@]}"; do echo "$side $b"; done
done | xargs -P "$(nproc)" -L 1 bash -c 'run_one "$0" "$1"'

status=0
for b in "${benches[@]}"; do
  a="$work/run-base/$b"
  h="$work/run-head/$b"
  for side_dir in "$a" "$h"; do
    if [[ -f "$side_dir/failed" ]]; then
      echo "FAIL $b: $(basename "$(dirname "$side_dir")") run $(cat "$side_dir/failed")"
      status=1
    fi
  done
  sed '/^\[wall\]/d' "$a/stdout.txt" > "$a/stdout.cmp"
  sed '/^\[wall\]/d' "$h/stdout.txt" > "$h/stdout.cmp"
  csvs=$(find "$a" "$h" -maxdepth 1 -name '*.csv' -printf '%f\n' | sort -u)
  mismatch=0
  for f in stdout.cmp $csvs; do
    if ! cmp -s "$a/$f" "$h/$f"; then
      echo "DIFF $b: $f"
      diff "$a/$f" "$h/$f" | head -n 10 || true
      mismatch=1
    fi
  done
  if [[ $mismatch == 0 ]]; then
    echo "same $b (stdout${csvs:+ and }$(echo $csvs))"
  else
    status=1
  fi
done
exit $status
