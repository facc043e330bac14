#!/bin/sh
# Paired benchmark comparison: runs one BENCHMARK.json workload through
# perfbench on a parent revision and on the current checkout, alternating
# which side runs first, and compares the end-to-end metrics.
#
# Usage (from anywhere inside the repository):
#   scripts/bench-pair.sh <parent-rev> <workload> [pairs]
#
#   parent-rev  any git revision; it is checked out with `git worktree` under
#               a temporary directory that is removed on exit
#   workload    sweeps, train, serve or field
#   pairs       number of parent/change run pairs (default 10)
#
# Every run lasts BENCHMARK.json's run_seconds. Pair i runs both sides with
# --seed i; odd pairs run the parent first, even pairs the change first, so
# drift in the host's speed hits both sides alike. The change side is the
# working tree of this checkout, uncommitted edits included.
#
# Output, per side: every run's perfbench result line, then for each
# end-to-end metric its median and quartiles over the runs. Then one row per
# metric:
#   wins     pairs in which the change is better than the parent
#   delta    relative change of the median, signed so that + is better
#   verdict  "gain" when the change wins at least 9 of every 10 pairs and
#            its median is better by more than the parent's interquartile
#            range and by more than the metric's BENCHMARK.json bound;
#            "regression" when its median is worse by more than the
#            metric's BENCHMARK.json bound; "flat" otherwise
#
# The script refuses to compare runs whose `host` stamps differ, and exits
# nonzero when any run reports correct: false or a failed operation.
# Quartiles use linear interpolation between order statistics. It needs only
# sh, git and awk.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
	exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$root/BENCHMARK.json")

case $pairs in '' | *[!0-9]* | 0)
	echo "bench-pair: pairs must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

tmp=$(mktemp -d)
parent="$tmp/parent"
cleanup() {
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$root" worktree add --quiet --detach "$parent" "$rev"

# run <side> <dir> <seed>: one perfbench run; appends its host stamp and
# result line to $tmp/<side>.host and $tmp/<side>.res.
run() {
	echo "bench-pair: $1 seed $3" >&2
	(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) >"$tmp/out"
	grep '^host ' "$tmp/out" >>"$tmp/$1.host"
	tail -n 1 "$tmp/out" >>"$tmp/$1.res"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
	i=$((i + 1))
done

if [ "$(sort -u "$tmp/parent.host" "$tmp/change.host" | wc -l)" -ne 1 ]; then
	echo "bench-pair: host stamps differ between runs; refusing to compare:" >&2
	sort -u "$tmp/parent.host" "$tmp/change.host" >&2
	exit 1
fi
head -n 1 "$tmp/parent.host"
echo "parent $(git -C "$parent" rev-parse --short HEAD), change $(git -C "$root" rev-parse --short HEAD) plus working tree; workload $workload, $pairs pairs of $seconds s"

awk -v pairs="$pairs" '
# The end_to_end block of BENCHMARK.json: one key per line.
FILENAME ~ /BENCHMARK\.json$/ {
	if ($0 ~ /"end_to_end"/) inblock = 1
	else if (inblock && $0 ~ /^[ \t]*\]/) inblock = 0
	if (!inblock) next
	if (match($0, /"name": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s); name = s; names[++nm] = name }
	if (match($0, /"better": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s); better[name] = s }
	if (match($0, /"bound": *[0-9.eE+-]+/)) { s = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s); bound[name] = s + 0 }
	next
}
{
	side = FILENAME ~ /parent\.res$/ ? "parent" : "change"
	n = ++runs[side]
	line[side, n] = $0
	if ($0 !~ /"correct":true/ || $0 !~ /"failed":0[,}]/) bad = 1
	for (k = 1; k <= nm; k++) {
		if (match($0, "\"" names[k] "\":\\{\"value\":[^,}]+")) {
			s = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", s)
			val[side, names[k], n] = s + 0
		}
	}
}
function sortv(side, m, a,    i, j, t) {
	for (i = 1; i <= runs[side]; i++) a[i] = val[side, m, i]
	for (i = 2; i <= runs[side]; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function quant(a, n, p,    h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
END {
	if (nm == 0) { print "bench-pair: no end_to_end metrics in BENCHMARK.json" > "/dev/stderr"; exit 1 }
	for (si = 1; si <= 2; si++) {
		side = si == 1 ? "parent" : "change"
		printf "\n%s (%d runs)\n", side, runs[side]
		for (i = 1; i <= runs[side]; i++) print line[side, i]
		printf "%-16s %14s %14s %14s\n", "metric", "q1", "median", "q3"
		for (k = 1; k <= nm; k++) {
			m = names[k]; split("", a); sortv(side, m, a); n = runs[side]
			q1[side, m] = quant(a, n, 0.25); med[side, m] = quant(a, n, 0.5); q3[side, m] = quant(a, n, 0.75)
			printf "%-16s %14.6g %14.6g %14.6g\n", m, q1[side, m], med[side, m], q3[side, m]
		}
	}
	printf "\n%-16s %7s %9s %8s  %s\n", "metric", "wins", "delta", "bound", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]; sign = better[m] == "lower" ? -1 : 1
		wins = 0
		for (i = 1; i <= pairs; i++) if (sign * (val["change", m, i] - val["parent", m, i]) > 0) wins++
		gap = sign * (med["change", m] - med["parent", m])
		delta = med["parent", m] != 0 ? gap / med["parent", m] : 0
		verdict = "flat"
		if (wins * 10 >= 9 * pairs && gap > q3["parent", m] - q1["parent", m] && delta > bound[m]) verdict = "gain"
		else if (-delta > bound[m]) verdict = "regression"
		printf "%-16s %3d/%-3d %+8.1f%% %7.0f%%  %s\n", m, wins, pairs, 100 * delta, 100 * bound[m], verdict
	}
	if (bad) { print "bench-pair: a run reported correct: false or failed operations" > "/dev/stderr"; exit 1 }
}
' "$root/BENCHMARK.json" "$tmp/parent.res" "$tmp/change.res"
