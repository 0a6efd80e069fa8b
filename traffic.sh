#!/usr/bin/env bash
# The traffic check (`make traffic`): which functions of the cluster
# shell and the model layer nothing but their own package's tests reach.
#
#   (i)   the tests of every other package of the module, with coverage
#         counted in the eleven checked packages only (-coverpkg);
#   (ii)  the benchmark built with integration coverage (go build -cover)
#         and run once per contract workload, traced, for 3 s each;
#   (iii) (ii)'s counters turned into (i)'s profile format, then a print,
#         per checked package, of the functions (i) did not reach, marked
#         "bench" where (ii) did, each with the reason it stays (the table
#         at the end of this file) or "no reason: a deletion candidate".
#         Then every test that skips on a tier-1 run (`go test ./...`).
#
# Everything it writes stays under .bench_build/ (build cache, profiles,
# the benchmark's own scratch files); the report is also kept in
# .bench_build/traffic/report.txt. Run it from the root of the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/traffic"
rm -rf "$out"
mkdir -p "$out/covdata" "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off TMPDIR="$out/tmp"

# The cluster shell, then the model layer.
shell_pkgs="wal router election repl admission resilience cluster peer core ml/knn ml/ivf"
shell_re="^mcbound/internal/($(tr ' ' '|' <<<"$shell_pkgs"))\$"
coverpkg=$(for p in $shell_pkgs; do printf 'mcbound/internal/%s,' "$p"; done)
coverpkg=${coverpkg%,}
others=$(go list ./... | grep -v -E "$shell_re")
shells=$(go list ./... | grep -E "$shell_re")

# (i) Other packages' tests, counted in the checked packages; their own
# tests run uncounted, so the two runs together are one tier-1 run for
# the skip list.
echo "traffic: (i) other packages' tests, coverage in the checked packages" >&2
status=0
# shellcheck disable=SC2086
go test -json -coverpkg="$coverpkg" -coverprofile="$out/tests.cov" $others >"$out/tests.json" || status=$?
echo "traffic: (i) the checked packages' own tests, for the skip list" >&2
# shellcheck disable=SC2086
go test -json $shells >"$out/shell-tests.json" || status=$?
if ((status)); then
	grep -h '"Action":"fail"' "$out/tests.json" "$out/shell-tests.json" | grep '"Test":' >&2 || true
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
# pkg the path under internal/ (ml/knn).
func_reach() {
	go tool cover -func="$1" | awk -F'\t+' '$1 != "total:" {
		split($1, loc, ":"); path = loc[1]; sub(/^mcbound\/internal\//, "", path)
		file = path; sub(/.*\//, "", file); pkg = substr(path, 1, length(path) - length(file) - 1)
		pct = $3; sub(/%/, "", pct)
		print pkg "\t" file ":" $2 "\t" (pct + 0 > 0 ? 1 : 0)
	}'
}
func_reach "$out/tests.cov" | sort -u >"$out/tests.reach"
func_reach "$out/bench.cov" | sort -u >"$out/bench.reach"

sed -n '/^# EXCEPTIONS$/,$p' "$0" | sed '1d' | { grep -v '^$' || true; } >"$out/exceptions.tsv"
grep -h '"Action":"skip"' "$out/tests.json" "$out/shell-tests.json" | grep '"Test":' |
	sed -E 's/.*"Package":"mcbound\/([^"]*)","Test":"([^"]*)".*/\1:\2/' | sort -u >"$out/skips.txt" || true

awk -F'\t' -v skips="$out/skips.txt" '
	FILENAME == ARGV[1] { reason[$1] = $2; next }
	FILENAME == ARGV[2] { if ($3) benched[$1 "/" $2] = 1; next }
	$3 == 0 {
		key = $1 "/" $2; i++; seen[key] = 1
		if (!(key in benched)) n++
		if (!($1 in rows)) pk[++k] = $1
		rows[$1] = rows[$1] sprintf("  %-28s %-5s %s\n", $2, (key in benched) ? "bench" : "-",
			(key in reason) ? reason[key] : "no reason: a deletion candidate")
	}
	END {
		printf "Checked functions no other package'"'"'s test reaches (i): %d; of them, reached by no contract workload either (ii): %d\n", i, n
		for (a = 1; a <= k; a++) printf "\ninternal/%s\n%s", pk[a], rows[pk[a]]
		for (r in reason) if (!(r in seen)) printf "\nstale exception (reached now, or gone): %s\n", r
		printf "\nTests that skip on a tier-1 run:"
		s = 0; while ((getline line < skips) > 0) { printf "\n  %s", line; s++ }
		print (s ? "" : " none")
	}' "$out/exceptions.tsv" "$out/bench.reach" "$out/tests.reach" | tee "$out/report.txt"
exit "$status"

# The functions above that stay, keyed package/file:Func, with the reason
# (tab-separated). A row whose function gains a caller is reported stale.
# EXCEPTIONS
admission/admission.go:Shed	benchmark/ reads it for admission.shed_total
election/election.go:abdicateLocked	failure path: a leader over a wedged WAL gives up its lease
ml/ivf/ivf.go:AppendBinary	reference encoder: AppendStream into one buffer (encoding.BinaryAppender); ivf's layout and round-trip tests encode through it
ml/ivf/ivf.go:Dim	ml.VectorIndex; benchmark/'s linalg.int8_bytes_per_query
ml/ivf/ivf.go:Rerank	test seam: ivf's and knn's tests read the built re-rank pool
ml/ivf/ivf.go:Stats	benchmark/'s linalg.int8_bytes_per_query; goes when 4(a) reads a package total
ml/knn/knn.go:Config	benchmark/ rebuilds the served index from it for ivf.build_s
ml/knn/knn.go:Groups	benchmark/'s knn.groups_per_row
ml/knn/knn.go:Matrix	benchmark/'s ivf.recall_at_k and ivf.build_s read the group matrix
ml/knn/knn.go:VectorIndex	benchmark/'s ivf.* metrics search the served index through it
peer/peer.go:Retryable	failure path: the replication client's retry rule for 5xx and 429
repl/client.go:Breaker	test seam: repl's tests watch the client's breaker trip
repl/follower.go:handleSyncErr	failure path: a round that fails, or finds its position compacted
resilience/breaker.go:Opens	test seam: the breaker's trip count; goes with resilience.Breaker (item 6)
resilience/budget.go:Exhausted	router /healthz and /metrics; no test outside router reads them (item 1(a))
resilience/budget.go:Retries	router /healthz and /metrics, and benchmark/'s router.retries
resilience/budget.go:Tokens	router /healthz and /metrics; no test outside router reads them (item 1(a))
router/backend.go:ejectionCount	router /healthz; no test outside router reads it (item 1(a))
router/router.go:Budget	benchmark/ counts the router's retries through it
router/router.go:Hedges	benchmark/'s router.hedges_per_1k
router/router.go:Run	the probe loop; benchmark/'s routed workload runs it
router/router.go:brownoutWrite	failure path: a write while no leader is known (item 1(a))
router/router.go:discardLoser	the hedge, judged in item 24(c)
router/router.go:handleHealth	router /healthz; no test outside router reads it (item 1(a))
router/router.go:hedgeWin	the hedge, judged in item 24(c)
router/router.go:isMember	failure path: a member names a leader the router has not probed
router/router.go:refreshSince	failure path: a 421 from a deposed leader starts a probe round
router/router.go:retryAfterSeconds	failure path: the brownout's Retry-After (item 1(a))
router/router.go:run	the hedge, judged in item 24(c)
wal/fs.go:Truncate	failure path: recovery cuts a torn tail, only after a crash
wal/wal.go:AppendBatch	benchmark/'s wal.append_batch100_* metrics call it
