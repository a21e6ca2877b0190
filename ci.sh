#!/bin/sh
# ci.sh — the repo's continuous-integration gate, runnable locally.
#
#   ./ci.sh          vet + riskvet + build + race-enabled tests
#   ./ci.sh -short   same, with -short tests plus brief fuzz runs of the
#                    two parser fuzzers against their committed corpora
#   ./ci.sh -bench   additionally run the parallel-engine benchmarks at
#                    GOMAXPROCS=1 and GOMAXPROCS=nproc plus the kernel
#                    microbenchmarks (bitset O-estimate scan vs the boolean
#                    loop it replaced; one PUMSB alpha binary search at
#                    riskd's defaults) and emit BENCH_parallel.json (one run
#                    object per gomaxprocs with ns/op and speedup vs serial
#                    per worker count, a microbenchmarks section, and — on
#                    single-core machines — a flat_parallel_warning note)
#                    to track the perf trajectory
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
#                    -race (delta/full equivalence across dataset, bipartite,
#                    core, recipe; the /v1/assess/delta and subscribe server
#                    tests; the client Retry-After and SSE tests) plus the
#                    riskd -selfcheck smoke, whose delta leg evolves a
#                    release through a subscribe stream end to end
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

if [ -n "$short" ]; then
	echo "== fuzz (committed corpora, 5s each) =="
	go test -run '^$' -fuzz '^FuzzReadFIMI$' -fuzztime 5s ./internal/dataset/
	go test -run '^$' -fuzz '^FuzzBeliefParse$' -fuzztime 5s ./internal/belief/
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
	# speedup so the perf trajectory pins the win (target: >= 2x), and one
	# alpha binary search on the PUMSB profile (the search a pumsb_cold
	# request runs), recorded with its allocations.
	echo "-- kernel microbenchmarks --"
	go test -run '^$' -bench 'BenchmarkOEstimateScan|BenchmarkMaxAlphaWithin' -benchtime 2s \
		./internal/core/ ./internal/recipe/ |
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
			for (i = 4; i < NF; i++) if ($(i + 1) == "allocs/op") allocs = $i + 0
		}
		END {
			if (!("impl=bitset" in ns) || !("impl=bools" in ns) || !("search" in ns)) {
				print "ci.sh: no microbenchmark output to parse" > "/dev/stderr"
				exit 1
			}
			sp = ns["impl=bitset"] > 0 ? ns["impl=bools"] / ns["impl=bitset"] : 0
			printf "  \"microbenchmarks\": {\n"
			printf "    \"OEstimateScan\": {\n"
			printf "      \"impl=bools\": {\"ns_per_op\": %.0f},\n", ns["impl=bools"]
			printf "      \"impl=bitset\": {\"ns_per_op\": %.0f, \"speedup_vs_bools\": %.3f}\n", ns["impl=bitset"], sp
			printf "    },\n"
			printf "    \"MaxAlphaWithin\": {\"ns_per_op\": %.0f, \"allocs_per_op\": %d}\n", ns["search"], allocs
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
	# The delta path's whole claim is bit-for-bit equivalence with a full
	# rebuild, so this runs the equivalence proofs at every layer plus the
	# serving/client protocol tests in one focused, race-enabled pass.
	go test -race -count=1 \
		-run 'Diff|Delta|Rebin|Subscribe|RetryAfter' \
		./internal/dataset/ ./internal/bipartite/ ./internal/core/ \
		./internal/recipe/ ./internal/server/ ./internal/riskclient/
	echo "== riskd delta + subscribe smoke =="
	go run ./cmd/riskd -selfcheck
fi

echo "ci: OK"
