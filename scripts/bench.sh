#!/usr/bin/env bash
# Micro-benchmark runner. Four stages, each writing a JSON report
# (google-benchmark --benchmark_format=json) at the repo root:
#
#   1. bench/micro_lpr    -> BENCH_PR4.json  (LPR/IGP hot paths, with the
#      pre-PR IGP baselines embedded so the speedup is auditable from the
#      artifact alone)
#   2. bench/micro_ingest -> BENCH_PR6.json (warts-lite v2 stream decode vs
#      v3 pack mmap ingest over a 60-cycle corpus, bytes/s and traces/s;
#      gated: v3 mmap must ingest at >= 5x the v2 traces/s)
#   3. bench/micro_obs    -> BENCH_PR7.json (telemetry primitives plus a
#      small campaign with telemetry fully on — trace sink + registry
#      dump — vs fully off; gated: on/off wall-clock ratio <= 1.03)
#   4. bench/micro_evolve -> BENCH_PR8.json (delta-based cycle evolution vs
#      from-scratch rebuild at 10^3/10^4/10^5-router tiers; gated: the
#      delta step must be >= 5x faster than the rebuild at the 10^4 tier)
#   5. bench/micro_probe  -> BENCH_PR9.json (measurement path over
#      precomputed forwarding walks: observe -> store -> annotate -> pack ->
#      ingest, heap Traces vs arena-backed SoA TraceBatch, with an
#      operator-new counting hook; gated on the same-report pair — batch
#      must run at >= 3x the heap reference's traces/s with >= 10x fewer
#      heap allocations per trace. The heap reference is bench-local (the
#      library stores snapshots only as batches), so comparing within one
#      report keeps the gate honest on loaded machines)
#
# After the micro stages, an RSS-envelope gate runs a scaled campaign
# (`mum campaign --scale`) and fails when peak RSS exceeds the memory
# budget documented in DESIGN.md §13 by more than 20%.
#
# Every report's context block records num_threads and build_type, so a
# number can be traced back to the machine shape that produced it.
#
# The PR4 baselines were measured at commit 72d59fb (before the flat-RIB /
# one-pass SPF rewrite) on the AT&T case-study shape (74 routers, 217 links,
# Rng(4)) with the same timer loop BM_IgpCompute/BM_IgpReconverge use:
#   compute    (all-pairs ECMP SPF): 2002143 ns/iter
#   reconverge (2 links down, was a full recompute): 1971482 ns/iter
#
# Usage: scripts/bench.sh [build-dir] [benchmark-filter]
# The filter applies to all binaries; each gate only runs when the
# benchmarks it reads are present in the report (i.e. not filtered out).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
filter="${2:-}"

cmake -B "$build" -S "$repo"
cmake --build "$build" -j --target micro_lpr --target micro_ingest \
  --target micro_obs --target micro_evolve --target micro_probe \
  --target mum_tool

# Machine/build provenance recorded into every report's context block.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build/CMakeCache.txt")"
context_args=(
  --benchmark_context=num_threads="$(nproc)"
  --benchmark_context=build_type="${build_type:-unspecified}"
)

# Fail with a clear, actionable message (not a KeyError / shell error) when
# a report that gates depend on is missing a baseline_* context key.
require_baselines() {
  python3 - "$1" "${@:2}" <<'PY'
import json, sys

path, keys = sys.argv[1], sys.argv[2:]
try:
    with open(path) as f:
        context = json.load(f).get("context", {})
except (OSError, ValueError) as e:
    sys.exit(f"baseline check FAILED: cannot read {path}: {e}")
missing = [k for k in keys if k not in context]
if missing:
    sys.exit(
        f"baseline check FAILED: {path} context is missing "
        f"{', '.join(missing)} — re-run scripts/bench.sh so the baseline "
        f"values are embedded (they are set via --benchmark_context)"
    )
PY
}

args=(
  --benchmark_format=json
  --benchmark_out="$repo/BENCH_PR4.json"
  --benchmark_out_format=json
  "${context_args[@]}"
  --benchmark_context=baseline_igp_compute_ns=2002143
  --benchmark_context=baseline_igp_reconverge_ns=1971482
  --benchmark_context=baseline_commit=72d59fb
)
if [[ -n "$filter" ]]; then
  args+=(--benchmark_filter="$filter")
fi

"$build/bench/micro_lpr" "${args[@]}"
echo "wrote $repo/BENCH_PR4.json"
require_baselines "$repo/BENCH_PR4.json" \
  baseline_igp_compute_ns baseline_igp_reconverge_ns baseline_commit

ingest_args=(
  --benchmark_format=json
  --benchmark_out="$repo/BENCH_PR6.json"
  --benchmark_out_format=json
  "${context_args[@]}"
)
if [[ -n "$filter" ]]; then
  ingest_args+=(--benchmark_filter="$filter")
fi

"$build/bench/micro_ingest" "${ingest_args[@]}"
echo "wrote $repo/BENCH_PR6.json"

python3 - "$repo/BENCH_PR6.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
by_name = {b["name"]: b for b in report["benchmarks"]}
v2 = by_name.get("BM_IngestV2Stream")
v3 = by_name.get("BM_IngestV3Mmap")
if v2 is None or v3 is None:
    print("ingest gate skipped (benchmarks filtered out)")
    sys.exit(0)
ratio = v3["items_per_second"] / v2["items_per_second"]
print(
    f"ingest: v2 stream {v2['items_per_second']:,.0f} traces/s "
    f"({v2['bytes_per_second'] / 1e9:.2f} GB/s), "
    f"v3 mmap {v3['items_per_second']:,.0f} traces/s "
    f"({v3['bytes_per_second'] / 1e9:.2f} GB/s) -> {ratio:.1f}x"
)
if ratio < 5.0:
    sys.exit(f"ingest gate FAILED: v3/v2 = {ratio:.2f}x, need >= 5x")
PY

obs_args=(
  --benchmark_format=json
  --benchmark_out="$repo/BENCH_PR7.json"
  --benchmark_out_format=json
  --benchmark_min_time=0.5
  "${context_args[@]}"
)
if [[ -n "$filter" ]]; then
  obs_args+=(--benchmark_filter="$filter")
fi

"$build/bench/micro_obs" "${obs_args[@]}"
echo "wrote $repo/BENCH_PR7.json"

python3 - "$repo/BENCH_PR7.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
by_name = {b["name"]: b for b in report["benchmarks"]}
off = by_name.get("BM_CampaignTelemetryOff")
on = by_name.get("BM_CampaignTelemetryOn")
if off is None or on is None:
    print("telemetry gate skipped (benchmarks filtered out)")
    sys.exit(0)
ratio = on["real_time"] / off["real_time"]
print(
    f"telemetry: campaign off {off['real_time']:.2f} {off['time_unit']}, "
    f"on {on['real_time']:.2f} {on['time_unit']} -> {ratio:.3f}x"
)
if ratio > 1.03:
    sys.exit(f"telemetry gate FAILED: on/off = {ratio:.3f}x, need <= 1.03x")
PY

evolve_args=(
  --benchmark_format=json
  --benchmark_out="$repo/BENCH_PR8.json"
  --benchmark_out_format=json
  "${context_args[@]}"
)
if [[ -n "$filter" ]]; then
  evolve_args+=(--benchmark_filter="$filter")
fi

"$build/bench/micro_evolve" "${evolve_args[@]}"
echo "wrote $repo/BENCH_PR8.json"

python3 - "$repo/BENCH_PR8.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

# Explicit ->Iterations(N) suffixes the benchmark name, so match by prefix.
def find(prefix):
    for b in report["benchmarks"]:
        if b["name"] == prefix or b["name"].startswith(prefix + "/"):
            return b
    return None

rebuild = find("BM_CycleRebuild/10000")
evolve = find("BM_CycleEvolve/10000")
if rebuild is None or evolve is None:
    print("evolve gate skipped (benchmarks filtered out)")
    sys.exit(0)
ratio = rebuild["real_time"] / evolve["real_time"]
print(
    f"evolve (10^4 routers): rebuild {rebuild['real_time']:.2f} "
    f"{rebuild['time_unit']}, delta step {evolve['real_time']:.3f} "
    f"{evolve['time_unit']} -> {ratio:.0f}x"
)
if ratio < 5.0:
    sys.exit(f"evolve gate FAILED: rebuild/evolve = {ratio:.2f}x, need >= 5x")
PY

# PR9 compares two measurement paths inside one report: the legacy
# benchmark runs micro_probe's bench-local heap-trace reference (its own
# copy of the observation loop, per-trace annotate, per-record
# transposition into the pack writer, heap materialization on ingest), so
# the live legacy/batch ratio is the "vs heap path" number and is immune to
# machine-load drift between runs. baseline_commit records the
# last pre-PR commit for provenance; for scale, the full simulate ->
# annotate -> pack -> parse pipeline there measured 1808 ns/trace at 11.4
# heap allocations/trace on this world shape.
probe_args=(
  --benchmark_format=json
  --benchmark_out="$repo/BENCH_PR9.json"
  --benchmark_out_format=json
  "${context_args[@]}"
  --benchmark_context=baseline_commit=c4b6eab
)
if [[ -n "$filter" ]]; then
  probe_args+=(--benchmark_filter="$filter")
fi

"$build/bench/micro_probe" "${probe_args[@]}"
echo "wrote $repo/BENCH_PR9.json"
require_baselines "$repo/BENCH_PR9.json" baseline_commit

python3 - "$repo/BENCH_PR9.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
context = report["context"]
by_name = {b["name"]: b for b in report["benchmarks"]}
legacy = by_name.get("BM_MeasurementPathLegacy")
batch = by_name.get("BM_MeasurementPathBatch")
if legacy is None or batch is None:
    print("measurement-path gate skipped (benchmarks filtered out)")
    sys.exit(0)

legacy_ns = 1e9 / legacy["items_per_second"]
batch_ns = 1e9 / batch["items_per_second"]
legacy_allocs = legacy["allocs_per_trace"]
batch_allocs = batch["allocs_per_trace"]
speedup = legacy_ns / batch_ns
alloc_ratio = (
    legacy_allocs / batch_allocs if batch_allocs > 0 else float("inf")
)
print(
    f"measurement path: legacy {legacy_ns:.0f} ns/trace "
    f"({legacy_allocs:.2f} allocs/trace), batch {batch_ns:.0f} ns/trace "
    f"({batch_allocs:.4f} allocs/trace) -> {speedup:.1f}x faster, "
    f"{alloc_ratio:.0f}x fewer allocations "
    f"(pre-PR path baseline at {context['baseline_commit']})"
)
if speedup < 3.0:
    sys.exit(
        f"measurement-path gate FAILED: batch speedup {speedup:.2f}x vs "
        f"the legacy path, need >= 3x"
    )
if alloc_ratio < 10.0:
    sys.exit(
        f"measurement-path gate FAILED: allocation ratio {alloc_ratio:.2f}x "
        f"vs the legacy path, need >= 10x"
    )
PY

# --- RSS envelope gate ------------------------------------------------------
# A scaled campaign must stay inside the memory budget documented in
# DESIGN.md §13 (keep these constants in sync with the table there):
#   budget = base + routers * bytes_per_router + lsps * bytes_per_lsp
# The gate fails when measured peak RSS exceeds the budget by > 20% — the
# regression this catches is per-cycle state outliving its cycle (the
# standing-world design makes that a multiplicative leak).
if [[ -z "$filter" ]]; then
  "$build/tools/mum" campaign --cycles 3 --small \
    --scale routers=20000,lsps=100000 --json --quiet \
    > "$build/rss_envelope.json"
  python3 - "$build/rss_envelope.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    manifest = json.load(f)["manifest"]
peak = manifest["peak_rss_bytes"]
routers, lsps = 20_000, 100_000
base = 64 * 1024 * 1024          # DESIGN.md §13: fixed overhead
bytes_per_router = 16 * 1024     # DESIGN.md §13: bytes/router
bytes_per_lsp = 200              # DESIGN.md §13: bytes/LSP
budget = base + routers * bytes_per_router + lsps * bytes_per_lsp
print(
    f"rss envelope: peak {peak / 1e6:.0f} MB, budget {budget / 1e6:.0f} MB "
    f"(routers={routers}, lsps={lsps}) -> {peak / budget:.2f}x"
)
if peak > budget * 1.2:
    sys.exit(
        f"rss gate FAILED: peak RSS {peak / 1e6:.0f} MB exceeds the "
        f"DESIGN.md §13 budget {budget / 1e6:.0f} MB by "
        f"{100 * (peak / budget - 1):.0f}% (> 20% allowed)"
    )
PY
else
  echo "rss envelope gate skipped (benchmark filter active)"
fi
