#!/usr/bin/env bash
# Runs the benchmark's pair protocol and prints its verdict table.
#
#   scripts/pairs.sh --against <rev> --pairs N --workload W [--seed S] [--seconds T]
#
# Checks <rev> out in a shared clone under .bench_build/, builds each side
# with that side's own bench/run.sh, and runs N untraced pairs of W, the
# parent first in odd pairs and the change (this working tree) first in
# even ones, each writing its record with -o. The records stay in
# .bench_build/pairs/<workload>-<rev>-s<seed>/ and scripts/pairstat prints
# one row per end-to-end metric of BENCHMARK.json: medians, the parent's
# IQR, the change of the median and pairs won, under a header naming <rev>
# and `git describe --always --dirty` of the working tree. The clone is
# removed on exit.
set -euo pipefail

usage() {
	echo "usage: scripts/pairs.sh --against <rev> --pairs N --workload W [--seed S] [--seconds T]" >&2
	exit 2
}

against= pairs= workload= seed=1 seconds=
while [ $# -gt 0 ]; do
	case "$1" in
	--against) against=${2:-} ;;
	--pairs) pairs=${2:-} ;;
	--workload) workload=${2:-} ;;
	--seed) seed=${2:-} ;;
	--seconds) seconds=${2:-} ;;
	*) usage ;;
	esac
	shift 2 || usage
done
[ -n "$against" ] && [ -n "$workload" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --short=12 "$against^{commit}")
work="$root/.bench_build/pairs"
base="$work/base-$rev-$$"
out="$work/$workload-$rev-s$seed"
mkdir -p "$work"
rm -rf "$out"
mkdir -p "$out"

trap 'rm -rf "$base"' EXIT
git clone --quiet --shared --no-checkout "$root" "$base"
git -C "$base" checkout --quiet --detach "$rev"
change=$(git -C "$root" describe --always --dirty)

args=(--workload "$workload" --seed "$seed" --trace 0)
[ -n "$seconds" ] && args+=(--seconds "$seconds")

# side runs one side's benchmark into its record; a run that fails its
# own checks still leaves a record, which the table counts.
side() {
	local name=$1 dir=$2 i=$3
	local start=$SECONDS
	bash "$dir/bench/run.sh" "${args[@]}" -o "$out/$name-$i.json" >"$out/$name-$i.log" 2>&1 ||
		echo "pairs: $name run $i exited non-zero (see $out/$name-$i.log)" >&2
	echo "pairs: pair $i $name $((SECONDS - start))s" >&2
}

for ((i = 1; i <= pairs; i++)); do
	n=$(printf %02d "$i")
	if ((i % 2)); then
		side parent "$base" "$n"
		side change "$root" "$n"
	else
		side change "$root" "$n"
		side parent "$base" "$n"
	fi
done

echo "# records in ${out#"$root"/}"
(cd "$root" && GOTOOLCHAIN=local go run ./scripts/pairstat -spec BENCHMARK.json -parent "$rev" -change "$change" "$out")
