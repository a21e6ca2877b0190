#!/bin/sh
# ci.sh — the repo's continuous-integration gate, runnable locally.
#
#   ./ci.sh          vet + gofmt + riskvet + build + race-enabled tests,
#                    plus vet and tests of the riskdbench module
#   ./ci.sh -short   same, with -short tests plus brief fuzz runs of the
#                    two parser fuzzers (against their committed corpora),
#                    the counts-diff fuzzer, the two differential
#                    fuzzers of riskd's request decoding, the fuzzer of
#                    riskd's RSNP1 cache snapshot loader, the registry's
#                    RREG1 manifest decoder fuzzer (FuzzManifest) and the
#                    fuzzer of riskclient's SSE event reader
#                    (FuzzSubscriptionEvents)
#   ./ci.sh -bench   additionally run the parallel-engine benchmarks at
#                    GOMAXPROCS=1 and GOMAXPROCS=nproc plus the kernel
#                    microbenchmarks (bitset O-estimate scan vs the boolean
#                    loop it replaced; one PUMSB alpha binary search and one
#                    RETAIL delta-session diff at riskd's defaults; riskd's
#                    decode of one RETAIL assess body and its aliased cache
#                    hit on that body; the CONNECT sampler
#                    estimate a connect_sampled request runs) and emit
#                    BENCH_parallel.json (one run object per gomaxprocs with
#                    ns/op and speedup vs serial per worker count, a
#                    microbenchmarks section, and — on single-core machines —
#                    a flat_parallel_warning note) to track the perf
#                    trajectory; before overwriting it, warn (never fail)
#                    on each microbenchmark, and each serial (workers=1)
#                    reading of a run object, more than 25% slower than the
#                    committed file
#   ./ci.sh -serve   additionally run the riskd serving smoke test
#                    (ephemeral port, health probe, assess round-trip,
#                    cached repeat, clean shutdown)
#   ./ci.sh -lint    additionally run staticcheck and govulncheck when they
#                    are installed (each is skipped with a notice otherwise;
#                    this container has no network to fetch them)
#   ./ci.sh -chaos   additionally run the fault-injection chaos suite under
#                    -race (fixed seeds, see internal/chaos) and the riskd
#                    -selfcheck-chaos end-to-end drill, which exits non-zero
#                    on any invariant violation
#   ./ci.sh -registry  additionally exercise the experiment run registry end
#                    to end: record a Quick run of all ten experiments into a
#                    throwaway store, replay every recorded run bit-for-bit,
#                    then diff each fresh run against the committed baseline
#                    under internal/experiments/testdata/registry/ (exit 3
#                    from `experiments diff` — any changed cell — fails CI)
#   ./ci.sh -delta   additionally run the incremental-assessment suite under
#                    -race (the counts-diff contract in dataset; delta/full
#                    equivalence in recipe, where a session runs the full
#                    recipe on its own table; the /v1/assess/delta and
#                    subscribe server tests; the client Retry-After and SSE
#                    tests) plus the riskd -selfcheck smoke, whose delta leg
#                    evolves a release through a subscribe stream end to end
#   ./ci.sh -escape-update  regenerate the kernel escape-analysis baseline
#                    (internal/analysis/escapegate/baseline.txt) before
#                    gating, for use after a deliberate allocation change
#
# riskvet is the repo's own analyzer suite (see internal/analysis and
# DESIGN.md §10/§15): cachetaint, ctxbudget, detrand, errcmp, floateq,
# loopbudget, maporder, retrysleep, streamticker, plus the //lint:allow
# suppression ledger, whose stale or unreasoned entries fail the gate. It
# runs as a standalone binary rather than `go vet -vettool`
# because the unitchecker protocol lives in golang.org/x/tools, which the
# offline build cannot depend on. riskvet -escape is the static
# escape-analysis gate: kernel heap escapes must match the committed
# baseline, in both directions (new escapes and stale entries both fail).
#
# Flags combine in any order: ./ci.sh -short -bench -serve -lint -chaos
# -registry -delta -escape-update. Exits non-zero on the first failure.
# The serving benchmark lives in riskdbench/ (bash riskdbench/run.sh).
set -eu
cd "$(dirname "$0")"

short=""
bench=""
serve=""
lint=""
chaos=""
registry=""
delta=""
escape_update=""
for arg in "$@"; do
	case "$arg" in
	-short) short="-short" ;;
	-bench) bench="yes" ;;
	-serve) serve="yes" ;;
	-lint) lint="yes" ;;
	-chaos) chaos="yes" ;;
	-registry) registry="yes" ;;
	-delta) delta="yes" ;;
	-escape-update) escape_update="yes" ;;
	*)
		echo "ci.sh: unknown flag: $arg" >&2
		echo "usage: ./ci.sh [-short] [-bench] [-serve] [-lint] [-chaos] [-registry] [-delta] [-escape-update]" >&2
		exit 2
		;;
	esac
done

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Analyzer fixtures under testdata are exempt: gofmt would rewrite the
# suppresstest fixture's comments and shift its "// want+1" positions.
unformatted="$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "ci.sh: gofmt -l reports unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== riskvet =="
go build -o riskvet ./cmd/riskvet
./riskvet ./...

echo "== escape gate (kernel heap escapes vs committed baseline) =="
if [ -n "$escape_update" ]; then
	./riskvet -escape-update
fi
./riskvet -escape
rm -f riskvet

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race $short ./...

# riskdbench is its own module (replace repro => ../), so ./... above never
# compiles it; vetting and testing it here catches a break in the server,
# recipe or matching API it calls before the benchmark does.
echo "== riskdbench vet + test =="
go -C riskdbench vet ./...
go -C riskdbench test ./...

if [ -n "$short" ]; then
	echo "== fuzz (committed corpora, 5s each) =="
	go test -run '^$' -fuzz '^FuzzReadFIMI$' -fuzztime 5s ./internal/dataset/
	go test -run '^$' -fuzz '^FuzzBeliefParse$' -fuzztime 5s ./internal/belief/
	go test -run '^$' -fuzz '^FuzzCountsDiff$' -fuzztime 5s ./internal/dataset/
	go test -run '^$' -fuzz '^FuzzAssessRequest$' -fuzztime 5s ./internal/server/
	go test -run '^$' -fuzz '^FuzzDeltaRequest$' -fuzztime 5s ./internal/server/
	go test -run '^$' -fuzz '^FuzzSnapshotLoad$' -fuzztime 5s ./internal/server/
	go test -run '^$' -fuzz '^FuzzManifest$' -fuzztime 5s ./internal/registry/
	go test -run '^$' -fuzz '^FuzzSubscriptionEvents$' -fuzztime 5s ./internal/riskclient/
fi

if [ -n "$lint" ]; then
	echo "== lint extras =="
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	else
		echo "ci.sh: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
	fi
	if command -v govulncheck >/dev/null 2>&1; then
		govulncheck ./...
	else
		echo "ci.sh: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
	fi
fi

if [ -n "$bench" ]; then
	echo "== parallel benchmarks =="
	# Measure at GOMAXPROCS=1 (the serial kernel's speed and the baseline
	# every speedup divides by) AND at GOMAXPROCS=nproc (real multi-core
	# scaling). Speedup-vs-serial recorded at a single GOMAXPROCS=1 run is
	# meaningless — every worker count times the same one-core schedule —
	# which is how the pre-flat-kernel numbers could claim "no parallel
	# speedup" without ever running on more than one core. On a one-core
	# machine the two settings coincide and a single run is recorded.
	# The JSON records the gomaxprocs each benchmark process actually used:
	# the testing package appends runtime.GOMAXPROCS(0) as the "-N" suffix
	# of every benchmark name, and the awk below reads it from there rather
	# than trusting the environment or nproc.
	nproc_val="$(nproc 2>/dev/null || echo 1)"
	gmps="1"
	note=""
	if [ "$nproc_val" -gt 1 ]; then
		gmps="1 $nproc_val"
	else
		note="flat_parallel_warning: single-core machine — every worker count shares one core, so speedup_vs_serial is ~1.0 at all widths by construction; only the serial ns_per_op trajectory is meaningful here"
	fi
	printf '{\n  "machine_nproc": %s,\n' "$nproc_val" >BENCH_parallel.tmp
	if [ -n "$note" ]; then
		printf '  "note": "%s",\n' "$note" >>BENCH_parallel.tmp
	fi
	# Kernel microbenchmarks: the word-parallel O-estimate scan vs the
	# historical boolean loop it replaced, recorded with the bitset kernel's
	# speedup so the perf trajectory pins the win (target: >= 2x); one
	# alpha binary search on the PUMSB profile (the search a pumsb_cold
	# request runs); one delta-session diff on the RETAIL profile (the
	# update a retail_delta request runs); riskd's decode of one RETAIL
	# assess body (the decode a body pays until it has an alias, and every
	# body that never repeats); riskd's aliased cache hit on that body, end
	# to end through its handler (the request retail_hot repeats); and one
	# sampler estimate on the CONNECT profile (the estimate a
	# connect_sampled request runs), with its cost per proposal made. The
	# last five are recorded with their allocations.
	echo "-- kernel microbenchmarks --"
	go test -run '^$' -bench 'BenchmarkOEstimateScan|BenchmarkMaxAlphaWithin|BenchmarkApplyDiffRETAIL|BenchmarkDecodeAssessRETAIL|BenchmarkAssessHitRETAIL|BenchmarkEstimateCONNECT' -benchtime 2s \
		./internal/core/ ./internal/recipe/ ./internal/server/ ./internal/matching/ |
		tee BENCH_micro.txt |
		awk '
		/^BenchmarkOEstimateScan\// {
			split($1, parts, "/")
			impl = parts[2]
			sub(/-[0-9]+$/, "", impl)
			ns[impl] = $3 + 0
		}
		/^BenchmarkMaxAlphaWithin(-[0-9]+)?[ \t]/ {
			ns["search"] = $3 + 0
			for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs["search"] = $i + 0
		}
		/^BenchmarkApplyDiffRETAIL(-[0-9]+)?[ \t]/ {
			ns["delta"] = $3 + 0
			for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs["delta"] = $i + 0
		}
		/^BenchmarkDecodeAssessRETAIL(-[0-9]+)?[ \t]/ {
			ns["decode"] = $3 + 0
			for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs["decode"] = $i + 0
		}
		/^BenchmarkAssessHitRETAIL(-[0-9]+)?[ \t]/ {
			ns["hit"] = $3 + 0
			for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs["hit"] = $i + 0
		}
		/^BenchmarkEstimateCONNECT(-[0-9]+)?[ \t]/ {
			ns["estimate"] = $3 + 0
			for (i = 4; i < NF; i++) {
				if ($(i + 1) == "allocs/op") allocs["estimate"] = $i + 0
				if ($(i + 1) == "ns/proposal") perprop = $i + 0
			}
		}
		END {
			if (!("impl=bitset" in ns) || !("impl=bools" in ns) || !("search" in ns) || !("delta" in ns) || !("decode" in ns) || !("hit" in ns) || !("estimate" in ns)) {
				print "ci.sh: no microbenchmark output to parse" > "/dev/stderr"
				exit 1
			}
			sp = ns["impl=bitset"] > 0 ? ns["impl=bools"] / ns["impl=bitset"] : 0
			printf "  \"microbenchmarks\": {\n"
			printf "    \"OEstimateScan\": {\n"
			printf "      \"impl=bools\": {\"ns_per_op\": %.0f},\n", ns["impl=bools"]
			printf "      \"impl=bitset\": {\"ns_per_op\": %.0f, \"speedup_vs_bools\": %.3f}\n", ns["impl=bitset"], sp
			printf "    },\n"
			printf "    \"MaxAlphaWithin\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d},\n", ns["search"], allocs["search"]
			printf "    \"ApplyDiffRETAIL\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d},\n", ns["delta"], allocs["delta"]
			printf "    \"DecodeAssessRETAIL\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d},\n", ns["decode"], allocs["decode"]
			printf "    \"AssessHitRETAIL\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d},\n", ns["hit"], allocs["hit"]
			printf "    \"EstimateCONNECT\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d, \"ns_per_proposal\": %.2f}\n", ns["estimate"], allocs["estimate"], perprop
			printf "  },\n"
		}' >>BENCH_parallel.tmp
	printf '  "runs": [' >>BENCH_parallel.tmp
	first_run=1
	for gmp in $gmps; do
		[ "$first_run" -eq 1 ] || printf ',' >>BENCH_parallel.tmp
		first_run=0
		echo "-- GOMAXPROCS=$gmp --"
		GOMAXPROCS=$gmp go test -run '^$' -bench 'BenchmarkSamplerParallel|BenchmarkCurveParallel' -benchtime 2s . |
			tee BENCH_parallel.txt |
			awk '
			/^Benchmark(Sampler|Curve)Parallel\// {
				split($1, parts, "/")
				sub(/Benchmark/, "", parts[1])
				if (match(parts[2], /-[0-9]+$/)) {
					gmp = substr(parts[2], RSTART + 1) + 0
					parts[2] = substr(parts[2], 1, RSTART - 1)
				}
				sub(/workers=/, "", parts[2])
				bench = parts[1]; workers = parts[2] + 0; ns = $3 + 0
				nsop[bench "," workers] = ns
				if (workers == 1) serial[bench] = ns
				if (!(bench in seen)) { order[++n] = bench; seen[bench] = 1 }
			}
			END {
				if (n == 0) { print "ci.sh: no benchmark output to parse" > "/dev/stderr"; exit 1 }
				# The testing package omits the "-N" suffix exactly when
				# runtime.GOMAXPROCS(0) == 1, so no captured suffix means 1.
				if (gmp + 0 == 0) gmp = 1
				printf "\n    {\n      \"gomaxprocs\": %d,\n      \"benchmarks\": {", gmp + 0
				for (i = 1; i <= n; i++) {
					b = order[i]
					printf "%s\n        \"%s\": {", (i > 1 ? "," : ""), b
					first = 1
					for (w = 1; w <= 8; w *= 2) {
						if (!((b "," w) in nsop)) continue
						sp = serial[b] > 0 ? serial[b] / nsop[b "," w] : 0
						printf "%s\n          \"workers=%d\": {\"ns_per_op\": %.0f, \"speedup_vs_serial\": %.3f}", \
							(first ? "" : ","), w, nsop[b "," w], sp
						first = 0
					}
					printf "\n        }"
				}
				printf "\n      }\n    }"
			}' >>BENCH_parallel.tmp
	done
	printf '\n  ]\n}\n' >>BENCH_parallel.tmp
	# Compare each microbenchmark's ns_per_op, and the serial (workers=1)
	# ns_per_op of each benchmark in every runs[] entry, with the committed
	# file (the working copy outside a git checkout) and warn on any more
	# than 25% slower, BENCHMARK.json's bound on CPU time. A warning never
	# fails the run: the host may be shared, so one slow reading is not a
	# regression.
	git show HEAD:BENCH_parallel.json >BENCH_committed.json 2>/dev/null ||
		cp BENCH_parallel.json BENCH_committed.json 2>/dev/null || : >BENCH_committed.json
	awk '
		# Each line of the microbenchmarks block that carries an ns_per_op
		# names its benchmark; a nested one (OEstimateScan) is prefixed
		# with the block that opened it. In the runs[] block a serial
		# reading is named by its benchmark and the gomaxprocs of its run.
		FNR == 1 { block = ""; group = "" }
		/"microbenchmarks": \{/ { block = "micro"; next }
		/"runs": \[/ { block = "runs"; next }
		block == "micro" && /^  \}/ { block = ""; next }
		block == "micro" && /^    "[^"]+": \{$/ { split($0, q, "\""); group = q[2] "/"; next }
		block == "micro" && /^    \}/ { group = ""; next }
		block == "runs" && /"gomaxprocs": / { v = $0; sub(/.*"gomaxprocs": /, "", v); gmp = v + 0; next }
		block == "runs" && /^        "[^"]+": \{$/ { split($0, q, "\""); bench = q[2]; next }
		/"ns_per_op": / {
			if (block == "micro") {
				split($0, q, "\""); name = "microbenchmark " group q[2]
			} else if (block == "runs" && /"workers=1": /) {
				name = "serial run " bench "/workers=1 at GOMAXPROCS=" gmp
			} else {
				next
			}
			v = $0; sub(/.*"ns_per_op": /, "", v); v += 0
			if (FILENAME == ARGV[1]) { old[name] = v; next }
			if (!(name in old)) {
				printf "ci.sh: %s is new: %.0f ns/op, no committed value\n", name, v
			} else if (old[name] > 0 && v > 1.25 * old[name]) {
				printf "ci.sh: warning: %s is %.0f%% slower than committed: %.0f ns/op vs %.0f\n", \
					name, 100 * (v / old[name] - 1), v, old[name]
			}
		}' BENCH_committed.json BENCH_parallel.tmp
	rm -f BENCH_committed.json
	mv BENCH_parallel.tmp BENCH_parallel.json
	rm -f BENCH_parallel.txt BENCH_micro.txt
	echo "wrote BENCH_parallel.json"
fi

if [ -n "$serve" ]; then
	echo "== riskd serving smoke test =="
	go run ./cmd/riskd -selfcheck
fi

if [ -n "$chaos" ]; then
	echo "== chaos suite (fault injection, -race, fixed seeds) =="
	go test -race -count=1 ./internal/chaos/
	echo "== riskd selfcheck-chaos =="
	go run ./cmd/riskd -selfcheck-chaos
fi

if [ -n "$registry" ]; then
	echo "== experiment registry (record, replay, diff vs baseline) =="
	go build -o experiments_ci ./cmd/experiments
	regdir="$(mktemp -d)"
	trap 'rm -rf "$regdir" experiments_ci' EXIT
	./experiments_ci run -quick -seed 1 -workers 2 -registry "$regdir" >/dev/null
	ids="$(./experiments_ci list -registry "$regdir" -porcelain | cut -f1)"
	# shellcheck disable=SC2086 — ULIDs never contain whitespace
	./experiments_ci replay -registry "$regdir" $ids
	baseline="internal/experiments/testdata/registry/runs"
	if [ -d "$baseline" ]; then
		# Merge the committed baseline into the throwaway store, then diff
		# oldest (baseline — ULIDs sort chronologically) against newest
		# (just recorded) per experiment. diff exits 3 on any changed cell,
		# which set -e turns into a CI failure.
		cp -R "$baseline"/. "$regdir/runs/"
		./experiments_ci list -registry "$regdir" -porcelain | sort |
			awk -F'\t' '{ if (!($2 in first)) first[$2] = $1; last[$2] = $1 }
				END { for (e in first) if (first[e] != last[e]) print first[e], last[e] }' |
			while read -r old new; do
				echo "-- diff $old (baseline) vs $new (fresh) --"
				./experiments_ci diff -registry "$regdir" "$old" "$new"
			done
	else
		echo "ci.sh: no committed baseline at $baseline; skipping drift diff"
	fi
	rm -rf "$regdir" experiments_ci
	trap - EXIT
fi

if [ -n "$delta" ]; then
	echo "== incremental assessment suite (-race) =="
	# A delta is ApplyDiff plus the full recipe, so its claim is the diff
	# contract plus bit-for-bit equivalence with a full assess, in the
	# library and over the wire; this runs those proofs plus the
	# serving/client protocol tests in one focused, race-enabled pass.
	go test -race -count=1 \
		-run 'Diff|Delta|Subscribe|RetryAfter' \
		./internal/dataset/ ./internal/recipe/ ./internal/server/ \
		./internal/riskclient/
	echo "== riskd delta + subscribe smoke =="
	go run ./cmd/riskd -selfcheck
fi

echo "ci: OK"
