#!/usr/bin/env bash
# A/B runs of the wall-clock benchmark: PAIRS pairs of benchmark/run.sh in
# two checkouts (the parent commit and the change), alternating which side
# goes first, one seed per pair. Prints, per end-to-end metric of
# BENCHMARK.json, both medians, both quartile pairs, the ratio of the
# medians and the pairs the change won (ties count for neither side).
# Exits non-zero when any run fails, prints correct:false or has failed
# operations. bash and awk only.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10]
#
# Each side is built from its own checkout on every run, so point the
# script at frozen copies (git clone, or an archive of the working tree),
# not at a tree that is still being edited.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run SIDE DIR SEED appends "SIDE SEED METRIC VALUE" lines to $tmp/runs.
run() {
	local side=$1 dir=$2 seed=$3 log="$tmp/$1.$3.log"
	if ! (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 28 --trace 0) >"$log" 2>&1; then
		cat "$log" >&2
		echo "ab: $side, seed $seed: run failed" >&2
		exit 1
	fi
	if ! grep -q '"correct":true' "$log" || ! grep -q '"failed":0[,}]' "$log"; then
		cat "$log" >&2
		echo "ab: $side, seed $seed: correct:false or failed operations" >&2
		exit 1
	fi
	awk -v side="$side" -v seed="$seed" \
		'/^  [a-z0-9_]+ +[-+.eE0-9]+ +[^ ]+$/ { print side, seed, $1, $2 }' "$log" >>"$tmp/runs"
}

for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
	echo "ab: $workload pair $i of $pairs done" >&2
done

awk -v workload="$workload" -v pairs="$pairs" '
# quantile of the sorted v[1..n] at p, interpolating linearly.
function quantile(v, n, p,    pos, lo) {
	pos = 1 + p * (n - 1); lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function summarize(side, m, out,    n, i, j, t, v) {
	for (n = 0; (side, m, n + 1) in val; n++) v[n + 1] = val[side, m, n + 1]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	out["med"] = quantile(v, n, 0.5); out["q1"] = quantile(v, n, 0.25); out["q3"] = quantile(v, n, 0.75)
}
# First file: the end_to_end block of BENCHMARK.json, as pretty-printed.
FNR == NR {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^  \]/) inside = 0
	if (!inside) next
	if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2; order[++metrics] = name }
	if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	if ($1 == "\"bound\":") { gsub(/,/, "", $2); bound[name] = $2 }
	next
}
# Second file: SIDE SEED METRIC VALUE.
{ val[$1, $3, ++count[$1, $3]] = $4; byseed[$1, $3, $2] = $4 }
END {
	printf "%s, %d pairs (--seconds 28 --trace 0, seeds 1..%d, sides alternating)\n", workload, pairs, pairs
	printf "%-14s %-6s %12s %25s %12s %25s %8s %6s %s\n", "metric", "better", "parent med", "[q1, q3]", "change med", "[q1, q3]", "ratio", "won", "bound"
	for (k = 1; k <= metrics; k++) {
		m = order[k]
		if (!(("parent", m) in count)) continue
		summarize("parent", m, p); summarize("change", m, c)
		won = 0
		for (s = 1; s <= pairs; s++) {
			a = byseed["parent", m, s]; b = byseed["change", m, s]
			if (better[m] == "higher" ? b > a : b < a) won++
		}
		printf "%-14s %-6s %12.4f %25s %12.4f %25s %8.3f %3d/%-2d %s\n", m, better[m], p["med"], \
			sprintf("[%.4f, %.4f]", p["q1"], p["q3"]), c["med"], sprintf("[%.4f, %.4f]", c["q1"], c["q3"]), \
			p["med"] ? c["med"] / p["med"] : 0, won, pairs, bound[m]
	}
}' "$spec" "$tmp/runs"
