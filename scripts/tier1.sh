#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then a ThreadSanitizer pass over the
# parallel execution layer (tests/test_parallel, the campaign loop's shared
# supervision state) to catch data races the functional tests cannot, then
# an ASan+UBSan pass over the tolerant-ingest layer (decoder fuzz corpus +
# chaos tests) to catch memory errors arbitrary bytes could trigger. On top
# of that: a failpoint matrix (every io fault class injected at 2% must
# leave a campaign contained) and a kill/resume torture loop (real process
# kills at fixed io-op ordinals; resumed runs must be byte-identical to an
# uninterrupted one). Then perfbench's counter contract: a traced campaign
# goes through perfbench's own per-layer reader, so a renamed counter or
# manifest key fails here rather than at the next benchmark run. Last, a
# micro_probe smoke run: its corpus self-check fails the gate if the
# bench-local heap reference behind the measurement path gate
# (scripts/bench.sh) has drifted from the batch path.
#
# Usage: scripts/tier1.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
tsan_build="${2:-$repo/build-tsan}"
asan_build="${3:-$repo/build-asan}"

echo "== tier-1: build + ctest ($build) =="
cmake -B "$build" -S "$repo"
# The default build must compile without a warning: one left in the log
# hides the next. Only what this run recompiles is seen, so a fresh build
# directory checks every file.
cmake --build "$build" -j 2>&1 | tee "$build/tier1-build.log"
if grep -q 'warning:' "$build/tier1-build.log"; then
  echo "FAIL: the default build printed compiler warnings"
  grep 'warning:' "$build/tier1-build.log"
  exit 1
fi
ctest --test-dir "$build" --output-on-failure -j

echo "== tier-1: micro_probe smoke (heap reference == batch path) =="
# The corpus build checks once that both measurement paths write identical
# pack bytes; on a mismatch each gated bench reports SkipWithError, which
# google-benchmark prints as "ERROR OCCURRED" but does not turn into an
# exit code, so the output is checked here.
probe_out="$("$build/bench/micro_probe" --benchmark_filter=MeasurementPath \
  --benchmark_min_time=0.01 2>&1)"
echo "$probe_out" | grep '^BM_'
if grep -q 'ERROR OCCURRED' <<< "$probe_out"; then
  echo "FAIL: micro_probe self-check"
  exit 1
fi

mum="$build/tools/mum"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== tier-1: failpoint matrix (each io fault class at 2%) =="
# Every fault class injected alone must leave the campaign contained: the
# run exits ok (0) or degraded-complete (4) — never a crash, hang, or fatal.
for fault in io.eio io.enospc io.shortwrite io.torn io.stalerename io.slow; do
  rm -rf "$work/ck"
  code=0
  "$mum" campaign --small --cycles 12 --quiet --retry 2 \
    --checkpoints "$work/ck" --checkpoint-data \
    --chaos "$fault=2%" > "$work/$fault.out" 2>&1 || code=$?
  if [ "$code" -ne 0 ] && [ "$code" -ne 4 ]; then
    echo "FAIL: $fault=2% campaign exited $code"
    cat "$work/$fault.out"
    exit 1
  fi
  echo "  $fault=2% -> exit $code"
done

echo "== tier-1: kill/resume torture (real process kills) =="
# Kill the process at the K-th injected io op, resume from the checkpoint
# directory, and require the resumed report byte-identical to an
# uninterrupted run. Fixed K list spans early, mid and late campaign.
"$mum" campaign --small --cycles 12 --quiet > "$work/baseline.out"
for k in 2 7 13 23 31; do
  rm -rf "$work/kill"
  code=0
  "$mum" campaign --small --cycles 12 --quiet --checkpoints "$work/kill" \
    --chaos "io.kill_at=$k" > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 9 ]; then
    echo "FAIL: io.kill_at=$k expected exit 9 (killed), got $code"
    exit 1
  fi
  "$mum" campaign --small --cycles 12 --quiet --resume "$work/kill" \
    > "$work/resume.out" 2> /dev/null
  if ! cmp -s "$work/baseline.out" "$work/resume.out"; then
    echo "FAIL: resume after kill at op $k diverged from baseline"
    diff "$work/baseline.out" "$work/resume.out" | head -20
    exit 1
  fi
  echo "  kill at op $k -> exit 9, resume byte-identical"
done

echo "== tier-1: perfbench counter contract (per-layer split of a traced campaign) =="
# perfbench/run.py reads its per-layer metrics from the campaign manifest and
# the telemetry registry without defaults; run its own layer_sample on a
# small traced campaign (imported read-only: -B writes no bytecode) and
# require every per-layer metric that BENCHMARK.json declares.
"$mum" campaign --small --cycles 3 --json --quiet --threads 2 \
  --telemetry="$work/tel.json" > "$work/tel_campaign.json"
python3 -B - "$repo" "$work/tel_campaign.json" "$work/tel.json" <<'PY'
import json
import sys
import types
from pathlib import Path

repo, campaign, telemetry = (Path(a) for a in sys.argv[1:4])
sys.path.insert(0, str(repo / "perfbench"))
import run  # noqa: E402  perfbench/run.py

doc = json.loads(campaign.read_text())
inv = types.SimpleNamespace(manifest=doc["manifest"])
sample = run.layer_sample(inv, len(doc["manifest"]["cycles"]), telemetry)
declared = [m["name"] for m in
            json.loads((repo / "BENCHMARK.json").read_text())["per_layer"]]
missing = [name for name in declared if name not in sample]
if missing:
    sys.exit("FAIL: layer_sample lacks " + ", ".join(missing))
print("  layer_sample: " + ", ".join(declared))
PY

echo "== tier-1: TSan pass over test_parallel + test_obs + test_evolve + test_batch + test_supervision + test_campaign + test_spf + test_failures + test_extract ($tsan_build) =="
cmake -B "$tsan_build" -S "$repo" -DMUM_TSAN=ON
# Only these targets — a full TSan tree is slow and adds nothing here.
# test_obs runs with telemetry sinks installed, so the sharded metric and
# trace paths get raced for real. test_evolve races the DeltaEvolver's
# per-AS delta fan-out and the evolved runner at 16 threads. test_batch
# races the probe fan-out into the snapshot's blocks (one block and one
# AsnCache per monitor, each block annotated inside its monitor task;
# its CampaignBatch cases compare a 4-thread runner with a serial one) and
# campaigns at 16 threads, checked against the recorded snapshot and report
# digests. The
# SupervisionRun cases run the campaign loop under io chaos at 1/4/16
# threads; cycles run one at a time, so what they race is the inner pool
# fan-outs: the shard source's decode/prefetch pair mapping files through
# the shared failpoint plan on a worker, and the per-AS evolution and
# flap, per-monitor probe and classification fan-outs. The kill/resume loop
# among them is left out (a minute of re-runs in Release, no new races).
# test_campaign's ProbePlan and CampaignRunnerReuse cases race the probe
# plans, which the runner routes in a per-monitor fan-out of their own
# before its first snapshot's flaps, the monitor fan-out that then reads
# them, and a runner reused across 60 cycles on a 4-thread pool. test_spf
# races the IGP egress-column fan-out (compute on a 4-thread pool), whose
# Dijkstra bucket ring and next-hop slots are thread_local.
# test_failures' MonthFailures cases race the per-AS flap fan-out
# (apply_flaps on a 4-thread context: salts, failure reconvergence, RSVP
# re-signals and label pools per AS) against a serial context.
# test_extract's ExtractChunks cases race the month's extraction fan-out
# (trace chunks, census partitions and persistence sets on a 4-thread
# pool, each task writing only its own slot) against the serial run, over
# one-block snapshots and over a campaign month's monitor blocks.
cmake --build "$tsan_build" -j --target test_parallel --target test_obs \
  --target test_evolve --target test_batch --target test_supervision \
  --target test_campaign --target test_spf --target test_failures \
  --target test_extract
"$tsan_build/tests/test_parallel"
"$tsan_build/tests/test_obs"
"$tsan_build/tests/test_evolve"
"$tsan_build/tests/test_batch"
"$tsan_build/tests/test_supervision" \
  --gtest_filter='SupervisionRun.*:-SupervisionRun.KillAtEveryIoOpResumesByteIdentical'
"$tsan_build/tests/test_campaign" \
  --gtest_filter='ProbePlan.*:CampaignRunnerReuse.*'
"$tsan_build/tests/test_spf"
"$tsan_build/tests/test_failures" --gtest_filter='MonthFailures.*'
"$tsan_build/tests/test_extract" --gtest_filter='ExtractChunks.*'

echo "== tier-1: ASan+UBSan pass over tolerant ingest ($asan_build) =="
cmake -B "$asan_build" -S "$repo" -DMUM_ASAN=ON
# test_batch's damaged-pack ingest and the fuzzer's batch round-trip arm
# both drive the zero-copy column views over hostile bytes. test_golden
# runs whole campaigns through the column writers: the chaos corruptor
# rebuilding batches, and the v2/v3 decoders appending into them.
# test_dataset and test_pack hand-build batches through the append protocol
# and feed them to both writers and both decoders. test_evolve, test_mpls,
# test_frr and test_failures drive the RSVP-TE planes: every LSP's hops live
# in one vector per plane that a re-signal may move, so a hop span held
# across a re-signal is a heap-use-after-free that only ASan reports (the
# stale bytes usually still read back right).
cmake --build "$asan_build" -j --target fuzz_warts --target test_chaos \
  --target test_batch --target test_golden --target test_dataset \
  --target test_pack --target test_evolve --target test_mpls \
  --target test_frr --target test_failures
"$asan_build/tools/fuzz_warts" --iters 10000
"$asan_build/tests/test_chaos"
"$asan_build/tests/test_batch"
"$asan_build/tests/test_golden"
"$asan_build/tests/test_dataset"
"$asan_build/tests/test_pack"
"$asan_build/tests/test_evolve"
"$asan_build/tests/test_mpls"
"$asan_build/tests/test_frr"
"$asan_build/tests/test_failures"

echo "== tier-1: OK =="
