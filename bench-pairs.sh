#!/usr/bin/env bash
# The paired run behind a performance claim (`make bench-pairs`): the
# repo benchmark on BASE and on the working tree, N times each, the side
# that goes first alternating, then the harness's own -spread of either
# side and -compare of the two, and the pair-by-pair table the claim
# rule is read from (a gain wins nine pairs of ten and moves the median
# by more than the base's inter-quartile distance).
#
#   bench-pairs.sh BASE WORKLOAD [N] [SEED]
#
# BASE is exported with `git archive` into .bench_build/pairs/base and
# builds there with its own cache, as the driver builds it; the export is
# removed at exit; the two -out files and the runs' logs stay in
# .bench_build/pairs/.
set -euo pipefail

base="${1:?usage: bench-pairs.sh BASE WORKLOAD [N] [SEED]}"
workload="${2:?usage: bench-pairs.sh BASE WORKLOAD [N] [SEED]}"
n="${3:-10}"
seed="${4:-1}"

root="$(pwd)"
dir="$root/.bench_build/pairs"
tag="$workload-seed$seed"
rm -rf "$dir/base" "$dir"/{base,head}-"$tag".{jsonl,log}
mkdir -p "$dir/base"
trap 'rm -rf "$dir/base"' EXIT
git archive "$base" | tar -x -C "$dir/base"

# run <base|head> <checkout> <pair>: one record appended to the side's
# file, or the script stops — a pair missing one side would misalign
# line i of the two files from then on.
run() {
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 25 --trace 0 \
		-out "$dir/$1-$tag.jsonl" >/dev/null 2>>"$dir/$1-$tag.log") ||
		{ echo "pair $3/$n: the $1 run failed; see $dir/$1-$tag.log" >&2; exit 1; }
}
for i in $(seq 1 "$n"); do
	if ((i % 2)); then
		run base "$dir/base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$dir/base" "$i"
	fi
	echo "pair $i/$n done" >&2
done

for side in base head; do
	echo "== spread, $side ($([ $side = base ] && echo "$base" || echo "working tree"))"
	bash benchmark/run.sh -spread "$dir/$side-$tag.jsonl" || true
done
echo "== compare, base -> head"
bash benchmark/run.sh -compare "$dir/base-$tag.jsonl" "$dir/head-$tag.jsonl" || true

# Line i of either file is pair i's run; a run without the metric is NA
# and its pair is left out of the count.
metric() { sed -E -e "s/.*\"$1\":\{\"value\":([^,}]+).*/\1/" -e t -e 's/.*/NA/' "$2"; }
for m in classify_p50_us secondary_p50_ms setup_s peak_rss_mb f1_macro; do
	echo "== pairs, $m (base head)"
	paste -d' ' <(metric "$m" "$dir/base-$tag.jsonl") <(metric "$m" "$dir/head-$tag.jsonl") |
		awk '{ print } $1 == "NA" || $2 == "NA" { next } { n++; if ($2 < $1) lower++; else if ($2 > $1) higher++ }
			END { printf "head lower in %d, higher in %d of %d\n", lower, higher, n }'
done
