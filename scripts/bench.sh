#!/usr/bin/env bash
# Runs the training hot-path micro-benchmarks and writes BENCH_tensor.json
# (ns/op, B/op, allocs/op per benchmark) at the repo root, so the perf
# trajectory is comparable across PRs:
#
#   ./scripts/bench.sh            # default 2s per benchmark
#   BENCHTIME=5s ./scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_tensor.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# The GEMM benchmarks match by parent name, so every size in gemmSizes
# (internal/tensor/gemm_bench_test.go) runs: the square sizes plus the
# shapes the models run — conv-1 4608x75x6, conv-2 128x150x16 and the wide
# first layer at 12 and 13 rows (x8192x32) — for all three variants and
# both dtypes.
go test -run '^$' \
  -bench 'BenchmarkMatMul$|BenchmarkMatMulTransA$|BenchmarkMatMulTransB$|BenchmarkIm2Col$|BenchmarkMatMul32$|BenchmarkMatMulTransA32$|BenchmarkMatMulTransB32$|BenchmarkIm2Col32$' \
  -benchtime "$BENCHTIME" ./internal/tensor/ | tee -a "$TMP"
go test -run '^$' \
  -bench 'BenchmarkConvForwardBackward$|BenchmarkCNNForwardBackward$' \
  -benchtime "$BENCHTIME" ./internal/nn/ | tee -a "$TMP"
go test -run '^$' \
  -bench 'BenchmarkLocalTrainStep$|BenchmarkLocalTrainStep32$' \
  -benchtime "$BENCHTIME" ./internal/fl/ | tee -a "$TMP"
# Parties-scaling: whole rounds (sampling, concurrent training under
# per-client compute budgets, streaming aggregation) vs federation size.
go test -run '^$' \
  -bench 'BenchmarkRoundParties' \
  -benchtime "${ROUNDBENCHTIME:-1s}" ./internal/fl/ | tee -a "$TMP"
# Durability tax: one round-boundary checkpoint (snapshot capture, CRC
# encode, tmp + fsync + atomic rename) across model sizes — what
# -checkpoint-every 1 adds to every round.
go test -run '^$' \
  -bench 'BenchmarkRoundCheckpoint' \
  -benchtime "${ROUNDBENCHTIME:-1s}" ./internal/fl/ | tee -a "$TMP"
# Peak-memory scaling of the wire protocol as in-flight parties grow,
# swept over the frame size (whole = one frame per vector; reports
# peak-live-B, including the downlink broadcast's share).
go test -run '^$' \
  -bench 'BenchmarkRoundPeakMemory' \
  -benchtime "${ROUNDBENCHTIME:-1s}" ./internal/simnet/ | tee -a "$TMP"
# Round throughput under membership churn: full TCP federations with
# fault-injected connection kills and party rejoin at increasing drop
# probability (reports rounds/sec; drop=0 is the no-churn baseline).
go test -run '^$' \
  -bench 'BenchmarkRoundChurn' \
  -benchtime "${CHURNBENCHTIME:-2x}" ./internal/simnet/ | tee -a "$TMP"
# Straggler resilience: global-model refresh rate with a quarter of the
# parties on +5ms/frame links, synchronous rounds vs buffered-async at
# buffer M in {1, K/4, K} (reports rounds/sec; async should beat sync by
# >=2x at small M because rounds no longer wait for the slowest party).
go test -run '^$' \
  -bench 'BenchmarkRoundAsync' \
  -benchtime "${ASYNCBENCHTIME:-2x}" ./internal/simnet/ | tee -a "$TMP"
# Quantized wire codecs: bytes/round and round CPU per codec x K (the
# encode-once broadcast cache keeps quantization cost per round, not per
# party), plus the isolated per-generation broadcast encode cost.
go test -run '^$' \
  -bench 'BenchmarkRoundCodec|BenchmarkBroadcastEncode' \
  -benchtime "${CODECBENCHTIME:-2x}" ./internal/simnet/ | tee -a "$TMP"

awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = ""; bytes = ""; allocs = ""; peak = ""; rps = ""; bpr = ""
  for (i = 2; i <= NF; i++) {
    if ($(i) == "ns/op") ns = $(i-1)
    if ($(i) == "B/op") bytes = $(i-1)
    if ($(i) == "allocs/op") allocs = $(i-1)
    if ($(i) == "peak-live-B") peak = $(i-1)
    if ($(i) == "rounds/sec") rps = $(i-1)
    if ($(i) == "bytes/round") bpr = $(i-1)
  }
  if (ns == "") next
  if (!first) printf ",\n"
  first = 0
  printf "  \"%s\": {\"ns_per_op\": %s", name, ns
  if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  if (peak != "") printf ", \"peak_live_bytes\": %s", peak
  if (rps != "") printf ", \"rounds_per_sec\": %s", rps
  if (bpr != "") printf ", \"bytes_per_round\": %s", bpr
  printf "}"
}
END { print "\n}" }
' "$TMP" > "$OUT"

echo "wrote $OUT"
