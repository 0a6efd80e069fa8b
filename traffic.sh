#!/usr/bin/env bash
# The traffic check (`make traffic`): which functions of each package
# under internal/ nothing but that package's own tests reaches.
#
#   (i)   every package of the module tested on its own, with coverage
#         counted in all of internal/ (-coverpkg); each run's profile
#         loses the lines of the package under test, and the rest are
#         merged, so a function counts as reached when another
#         package's test runs it;
#   (ii)  the benchmark built with integration coverage (go build -cover)
#         and run once per contract workload, traced, for 3 s each;
#   (iii) (ii)'s counters turned into (i)'s profile format, then a print,
#         per package, of the functions (i) did not reach, marked
#         "bench" where (ii) did, each with the reason it stays (the table
#         at the end of this file) or "no reason: a deletion candidate".
#         Then every test that skips on a tier-1 run (`go test ./...`).
#
# It exits non-zero when a test fails, when a listed function has no
# reason, or when a reason names a function (or a file) the list no
# longer holds: one now reached, or gone.
#
# Everything it writes stays under .bench_build/ (build cache, profiles,
# the benchmark's own scratch files); the report is also kept in
# .bench_build/traffic/report.txt. Run it from the root of the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/traffic"
rm -rf "$out"
mkdir -p "$out/covdata" "$out/runs" "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off TMPDIR="$out/tmp"

# (i) One run per package, coverage in all of internal/. A test run
# counts for the other packages only: its own package's lines are cut
# from its profile before the merge.
echo "traffic: (i) each package's tests, coverage in every other package" >&2
status=0
echo "mode: set" >"$out/tests.cov"
for p in $(go list ./...); do
	f="$out/runs/${p//\//_}"
	go test -json -coverpkg=mcbound/internal/... -coverprofile="$f.cov" "$p" >"$f.json" || status=$?
	[[ -f $f.cov ]] || continue
	awk -v own="$p" 'NR > 1 { file = $0; sub(/:.*/, "", file); sub(/\/[^\/]*$/, "", file); if (file != own) print }' \
		"$f.cov" >>"$out/tests.cov"
done
if ((status)); then
	cat "$out"/runs/*.json | grep '"Action":"fail"' | grep '"Test":' >&2 || true
	echo "traffic: a test failed; the reach below is still printed" >&2
fi

# (ii) The benchmark with integration coverage. The pattern has to be
# mcbound/...: mcbound/internal/... writes no counter files from inside
# the benchmark module.
echo "traffic: (ii) the contract workloads under go build -cover" >&2
(cd benchmark && go build -cover -coverpkg=mcbound/... -o "$out/mcbound-benchmark" .)
for w in $(sed -n 's/.*"name": "\([a-z0-9_]*_s[0-9][0-9]*\)".*/\1/p' BENCHMARK.json); do
	GOCOVERDIR="$out/covdata" "$out/mcbound-benchmark" -workload "$w" -seed 1 -seconds 3 -trace 1 \
		-spans "$out/spans-$w.jsonl" >"$out/bench-$w.txt" 2>&1 ||
		{ echo "traffic: workload $w failed; see $out/bench-$w.txt" >&2; exit 1; }
done

# (iii) One profile format. `go tool cover -func` resolves files through
# the module it runs in, so the benchmark's profile keeps only the root
# module's internal/ lines.
go tool covdata textfmt -i="$out/covdata" -o="$out/bench-all.cov"
{ head -1 "$out/bench-all.cov"; grep '^mcbound/internal/' "$out/bench-all.cov"; } >"$out/bench.cov"
# func-reach PROFILE: "pkg<TAB>file:Func<TAB>reached(0|1)" per function,
# pkg the path under internal/ (ml/knn), Func a method's Type.Name (read
# from its declaration line, so two methods of one name stay apart). A
# block that several runs count is merged by `go tool cover`.
func_reach() {
	go tool cover -func="$1" | awk -F'\t+' -v root="$root" '$1 != "total:" {
		split($1, loc, ":"); path = loc[1]; src = path; sub(/^mcbound\//, root "/", src)
		if (!(src in read)) { read[src] = 1; n = 0; while ((getline l < src) > 0) text[src, ++n] = l; close(src) }
		name = $2
		if (match(text[src, loc[2]], /^func \([^)]*\)/)) {
			recv = substr(text[src, loc[2]], RSTART + 6, RLENGTH - 7)
			sub(/.* /, "", recv); sub(/^\*/, "", recv); sub(/\[.*/, "", recv); name = recv "." name
		}
		sub(/^mcbound\/internal\//, "", path)
		file = path; sub(/.*\//, "", file); pkg = substr(path, 1, length(path) - length(file) - 1)
		pct = $3; sub(/%/, "", pct)
		print pkg "\t" file ":" name "\t" (pct + 0 > 0 ? 1 : 0)
	}'
}
func_reach "$out/tests.cov" | sort -u >"$out/tests.reach"
func_reach "$out/bench.cov" | sort -u >"$out/bench.reach"

sed -n '/^# EXCEPTIONS$/,$p' "$0" | sed '1d' | { grep -v '^$' || true; } >"$out/exceptions.tsv"
cat "$out"/runs/*.json | grep '"Action":"skip"' | grep '"Test":' |
	sed -E 's/.*"Package":"(mcbound\/)?([^"]*)","Test":"([^"]*)".*/\2:\3/' | sort -u >"$out/skips.txt" || true

awk -F'\t' -v skips="$out/skips.txt" '
	FILENAME == ARGV[1] { reason[$1] = $2; next }
	FILENAME == ARGV[2] { if ($3) benched[$1 "/" $2] = 1; next }
	$3 == 0 {
		key = $1 "/" $2; whole = key; sub(/:.*/, ":*", whole); i++
		if (!(key in benched)) n++
		if (key in reason) { why = reason[key]; seen[key] = 1 }
		else if (whole in reason) { why = reason[whole]; seen[whole] = 1 }
		else { why = "no reason: a deletion candidate"; bare++ }
		if (!($1 in rows)) pk[++k] = $1
		rows[$1] = rows[$1] sprintf("  %-28s %-5s %s\n", $2, (key in benched) ? "bench" : "-", why)
	}
	END {
		printf "Functions no other package'"'"'s test reaches (i): %d; of them, reached by no contract workload either (ii): %d\n", i, n
		for (a = 1; a <= k; a++) printf "\ninternal/%s\n%s", pk[a], rows[pk[a]]
		for (r in reason) if (!(r in seen)) { printf "\nstale reason (reached now, or gone): %s\n", r; stale++ }
		printf "\nTests that skip on a tier-1 run:"
		s = 0; while ((getline line < skips) > 0) { printf "\n  %s", line; s++ }
		print (s ? "" : " none")
		printf "\nRows without a reason: %d; stale reasons: %d\n", bare, stale
		exit (bare + stale > 0)
	}' "$out/exceptions.tsv" "$out/bench.reach" "$out/tests.reach" | tee "$out/report.txt" ||
	{ echo "traffic: every listed function needs a reason, and every reason a listed function" >&2; status=1; }
exit "$status"

# The functions above that stay, keyed package/file:Func, or
# package/file:* for every listed function of a file, with the reason
# (tab-separated). A row that lists nothing is reported stale.
# EXCEPTIONS
admission/admission.go:Stats.Shed	benchmark/ reads it for admission.shed_total
election/election.go:Elector.abdicateLocked	failure path: a leader over a wedged WAL gives up its lease
encode/encoder.go:Encoder.EncodeJob	benchmark/'s encode.embed_* metrics and its query vectors
encode/features.go:Feature.String	fmt.Stringer: a feature prints as its trace column (usr, jnam, …)
experiments/alphabeta.go:*	`mcbound eval -exp alpha-beta|alpha-plus|theta` (cmd/mcbound); no test outside experiments runs an evaluation
experiments/characterize.go:*	`mcbound characterize -fig 2…5` (cmd/mcbound)
experiments/features.go:*	`mcbound eval -exp features` (cmd/mcbound)
experiments/reports.go:*	`mcbound eval`'s report writers (cmd/mcbound)
experiments/theta.go:*	`mcbound eval -exp theta` (cmd/mcbound)
fetch/resilient.go:ResilientBackend.SubmittedBetween	fetch.Backend's range read; benchmark/fixture builds the resilient backend (item 12(b))
httpapi/serve.go:*	the listener of cmd/mcbound-server and cmd/mcbound-router
httpapi/server.go:Server.writeInvalidJob	failure path: a POST /v1/jobs record that fails validation (400 invalid_job)
job/job.go:Frequency.String	fmt.Stringer: a frequency prints as the paper writes it ("2.0 GHz")
linalg/sparse.go:sparseSqDistColsGeneric	the portable kernel: -tags purego and every GOARCH but amd64 (make purego, make cross)
metrics/metrics.go:Confusion.AddAll	F1MacroOf's fill; benchmark/'s f1_macro
metrics/metrics.go:Confusion.Classes	Report's rows
metrics/metrics.go:Confusion.Accuracy	Report's last row
metrics/metrics.go:Confusion.Report	examples/quickstart prints it
metrics/metrics.go:F1MacroOf	benchmark/'s f1_macro
ml/baseline/baseline.go:Classifier.Name	ml.Classifier: core names a model's files by it
ml/ivf/ivf.go:Index.AppendBinary	reference encoder: AppendStream into one buffer (encoding.BinaryAppender); ivf's layout and round-trip tests encode through it
ml/ivf/ivf.go:Index.Dim	ml.VectorIndex; benchmark/'s linalg.int8_bytes_per_query
ml/ivf/ivf.go:Index.Stats	benchmark/'s linalg.int8_bytes_per_query; goes when 4(a) reads a package total
ml/knn/knn.go:Classifier.Config	benchmark/ rebuilds the served index from it for ivf.build_s
ml/knn/knn.go:Classifier.Matrix	benchmark/'s ivf.recall_at_k and ivf.build_s read the group matrix
ml/knn/knn.go:Classifier.VectorIndex	benchmark/'s ivf.* metrics search the served index through it
ml/rf/forest.go:walk8Go	the portable forest walk: -tags purego and every GOARCH but amd64; the reference rf's tests hold the assembly to
ml/rf/forest.go:laneSum	walk8Go's vote count (the same)
node/node.go:trainAttrs	the log lines of cmd/mcbound-server's first and cron trains
router/backend.go:backend.ejectionCount	router /healthz; no test outside router reads it (item 1(a))
router/router.go:Router.Budget	benchmark/ counts the router's retries through it
router/router.go:Router.Hedges	benchmark/'s router.hedges_per_1k
router/router.go:Router.Run	the probe loop; benchmark/'s routed workload runs it
router/router.go:Router.brownoutWrite	failure path: a write while no leader is known (item 1(a))
router/router.go:Router.discardLoser	the hedge, judged in item 24(c)
router/router.go:Router.handleHealth	router /healthz; no test outside router reads it (item 1(a))
router/router.go:Router.hedgeWin	the hedge, judged in item 24(c)
router/router.go:Router.isMember	failure path: a member names a leader the router has not probed
router/router.go:Router.refreshSince	failure path: a 421 from a deposed leader starts a probe round
router/router.go:Router.retryAfterSeconds	failure path: the brownout's Retry-After (item 1(a))
router/router.go:hedgeRace.run	the hedge, judged in item 24(c)
simulate/replay.go:Timeline.WriteText	renders simulate's replay.golden
wal/crashfs/crashfs.go:FS.String	fmt.Stringer for a crash test's failure message; crashfs is test support
wal/fs.go:osFS.Truncate	failure path: recovery cuts a torn tail, only after a crash
wal/wal.go:WAL.AppendBatch	benchmark/'s wal.append_batch100_* metrics call it
