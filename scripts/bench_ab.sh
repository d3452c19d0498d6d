#!/bin/sh
# Paired A/B run of the repository benchmark: the work tree against BASE.
# Run it from the repository root:
#
#	sh scripts/bench_ab.sh <ref>        (or: make bench-ab BASE=<ref>)
#
# perfbench is built twice, once from a git worktree of <ref> under
# .bench_build/ (removed on exit) and once from the work tree. For every
# workload BENCHMARK.json declares, the two builds run 10 pairs of its
# run_seconds each; pair i uses seed i on both sides, and the side that runs
# first alternates. Any result that is not "correct":true aborts the run.
#
# For each end-to-end metric the script prints the base and change medians,
# the median of the per-pair change/base ratios, how many pairs the change
# won in the metric's "better" direction (ties count for neither side), and
# the base runs' interquartile range over their median. The last stdout
# line is the same summary as one JSON object, the form BENCH_history.jsonl
# keeps one line of per change. Needs git, awk and jq; works offline.
set -eu

pairs=10
base=${1:?usage: sh scripts/bench_ab.sh <base ref>}
root=$(pwd)
build="$root/.bench_build"
tmp="$build/ab"
baseSha=$(git rev-parse --verify "$base^{commit}")

cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
cleanup
mkdir -p "$tmp" "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
git worktree add --detach --quiet "$tmp/base" "$baseSha"

# The environment perfbench/run.sh builds with: every cache under
# .bench_build, downloads and toolchain switches off.
compile() { # compile CHECKOUT BINARY
	(cd "$1/perfbench" &&
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
			XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off \
			GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false \
			go build -o "$2" .)
}
compile "$tmp/base" "$tmp/perfbench-base"
compile "$root" "$tmp/perfbench-change"

seconds=$(jq -r '.run_seconds' BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)

# run SIDE WORKLOAD SEED: one run from SIDE's checkout root; appends
# "workload seed side metric value" lines to $tmp/values.
run() {
	if [ "$1" = base ]; then dir="$tmp/base"; else dir="$root"; fi
	if ! out=$(cd "$dir" && "$tmp/perfbench-$1" --workload "$2" --seed "$3" \
		--seconds "$seconds" --trace 0 2>"$tmp/stderr"); then
		cat "$tmp/stderr" >&2
		echo "bench-ab: $1 $2 seed $3 failed" >&2
		exit 1
	fi
	result=$(printf '%s\n' "$out" | tail -n 1)
	if ! printf '%s\n' "$result" | jq -e '.correct == true' >/dev/null; then
		echo "bench-ab: $1 $2 seed $3 is not correct: $result" >&2
		exit 1
	fi
	[ "$1" = change ] && printf '%s\n' "$out" | head -n 1 | jq -c '.host' >"$tmp/host"
	printf '%s\n' "$result" | jq -r --arg w "$2" --arg s "$3" --arg side "$1" \
		'.metrics | to_entries[] | "\($w) \($s) \($side) \(.key) \(.value.value)"' >>"$tmp/values"
}

: >"$tmp/values"
for w in $workloads; do
	i=1
	while [ "$i" -le "$pairs" ]; do
		echo "bench-ab: $w pair $i/$pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run base "$w" "$i"
			run change "$w" "$i"
		else
			run change "$w" "$i"
			run base "$w" "$i"
		fi
		i=$((i + 1))
	done
done

# One row per workload and metric:
# workload metric better base_median change_median ratio_median won base_iqr_rel
printf '%s\n' "$metrics" | awk -v pairs="$pairs" '
function sortn(a, n,   i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
function quantile(a, n, p,   h, lo) {
	h = 1 + (n - 1) * p
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
NR == FNR { better[$1] = $2; order[++nm] = $1; next }
{ v[$1, $4, $3, $2] = $5; if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 } }
END {
	for (a = 1; a <= nw; a++) for (b = 1; b <= nm; b++) {
		w = wl[a]; m = order[b]
		if (!((w, m, "base", 1) in v)) continue
		won = 0
		for (s = 1; s <= pairs; s++) {
			x = v[w, m, "base", s]; y = v[w, m, "change", s]
			bs[s] = x; cs[s] = y; rs[s] = x == 0 ? 1 : y / x
			if ((better[m] == "higher" && y > x) || (better[m] == "lower" && y < x)) won++
		}
		sortn(bs, pairs); sortn(cs, pairs); sortn(rs, pairs)
		med = quantile(bs, pairs, 0.5)
		iqr = quantile(bs, pairs, 0.75) - quantile(bs, pairs, 0.25)
		printf "%s %s %s %.6g %.6g %.4f %d %.4f\n", w, m, better[m], med,
			quantile(cs, pairs, 0.5), quantile(rs, pairs, 0.5), won, med == 0 ? 0 : iqr / med
	}
}' - "$tmp/values" >"$tmp/summary"

printf '%-14s %-15s %12s %12s %8s %6s %14s\n' workload metric base change ratio won base_iqr/med
awk -v pairs="$pairs" '{ printf "%-14s %-15s %12s %12s %8s %3d/%-2d %14s\n", $1, $2, $4, $5, $6, $7, pairs, $8 }' "$tmp/summary"

jq -Rnc --arg base "$baseSha" --arg change "$(git rev-parse HEAD)" \
	--argjson dirty "$([ -n "$(git status --porcelain)" ] && echo true || echo false)" \
	--argjson host "$(cat "$tmp/host")" --argjson pairs "$pairs" --argjson seconds "$seconds" '
	[inputs | split(" ") | {workload: .[0], metric: .[1], better: .[2],
		base: (.[3] | tonumber), change: (.[4] | tonumber), ratio: (.[5] | tonumber),
		won: (.[6] | tonumber), base_iqr_rel: (.[7] | tonumber)}]
	| {base: $base, change: $change, change_dirty: $dirty, host: $host,
		pairs: $pairs, seconds: $seconds,
		workloads: (group_by(.workload) | map({key: .[0].workload,
			value: (map({key: .metric, value: del(.workload, .metric)}) | from_entries)})
			| from_entries)}' <"$tmp/summary"
