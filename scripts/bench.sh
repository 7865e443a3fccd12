#!/usr/bin/env sh
# bench.sh — run the benchmark suite and snapshot the results as JSON so the
# performance trajectory is tracked across PRs.
#
# Usage:
#   scripts/bench.sh                 # full suite -> BENCH_<stamp>.json
#   scripts/bench.sh ObserveBatch    # filtered   -> BENCH_<stamp>.json
#
# The snapshot records the raw `go test -bench` lines (which carry both
# ns/op and the protocol-cost custom metrics) plus the environment. The
# suite includes the BenchmarkMultiProducerIngest* family (E17), so every
# snapshot tracks concurrent-frontend ingest throughput — serial baseline
# vs p=1/2/8 producer goroutines — across PRs. Compare
# two snapshots with e.g.:
#   diff <(jq -r .results[] BENCH_a.json) <(jq -r .results[] BENCH_b.json)
# or gate them with scripts/bench_compare.sh. Every string is JSON-escaped
# (quote, backslash and control characters such as the tabs `go test`
# separates fields with), so the snapshot is valid JSON.
set -eu

cd "$(dirname "$0")/.."

FILTER="${1:-.}"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
OUT="BENCH_${STAMP}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# jstr prints each input line as a JSON string literal: quote and backslash
# are escaped, tab as \t, and every other control character as \u00XX.
jstr() {
	awk 'BEGIN {
		for (i = 1; i < 32; i++) esc[sprintf("%c", i)] = sprintf("\\u%04x", i)
		esc["\t"] = "\\t"
		esc["\""] = "\\\""
		esc["\\"] = "\\\\"
	}
	{
		out = ""
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			out = out ((c in esc) ? esc[c] : c)
		}
		printf "\"%s\"\n", out
	}'
}

go test -run '^$' -bench "$FILTER" -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$RAW"

{
	printf '{\n'
	printf '  "stamp": %s,\n' "$(printf '%s\n' "$STAMP" | jstr)"
	printf '  "filter": %s,\n' "$(printf '%s\n' "$FILTER" | jstr)"
	printf '  "go": %s,\n' "$(go version | jstr)"
	printf '  "results": [\n'
	grep '^Benchmark' "$RAW" | jstr | sed 's/^/    /; $!s/$/,/'
	printf '  ]\n'
	printf '}\n'
} >"$OUT"

echo "wrote $OUT"
