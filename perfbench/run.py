#!/usr/bin/env python3
"""End-to-end campaign benchmark for the `mum` CLI.

Builds `mum` from the checkout's sources (Release, into .bench_build/), runs
one workload for a fixed time, checks every output, and prints one JSON
result line:

    python3 perfbench/run.py --workload study_nproc --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one campaign process at a time, the next starts when
the previous exits; each process gets a fresh world derived from --seed):

  study_1t     the default 60-cycle study (paper-scale world) on 1 thread.
  study_nproc  the same study on one thread per hardware thread (--threads 0).
  scale_10k    --scale routers=10k,lsps=100k, 24-cycle campaigns, one thread
               per hardware thread: incremental SPF at 40x paper scale.

Every campaign runs with evolve on (the default): a full build on cycle 1,
delta steps after it.

--trace 0 reports the end-to-end metrics; --trace 1 reruns the loop with
--telemetry and reports the per-layer split instead. See perfbench/README.md
for what each metric is expected to move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "mum"
WORK_DIR = ROOT / ".bench_build" / "work"
MUM = BUILD_DIR / "tools" / "mum"

# A run must finish within 180 s after the build; leave room for the
# oracle check that follows the timed loop.
RUN_BUDGET_S = 150.0

# threads 0 = one per hardware thread. The oracle reruns a campaign's first
# cycles at another thread count; the report must not change.
WORKLOADS = {
    "study_1t": {"cycles": 60, "threads": 1, "oracle_threads": 2,
                 "extra": []},
    "study_nproc": {"cycles": 60, "threads": 0, "oracle_threads": 1,
                    "extra": []},
    "scale_10k": {"cycles": 24, "threads": 0, "oracle_threads": 1,
                  "extra": ["--scale", "routers=10k,lsps=100k"]},
}
ORACLE_CYCLES = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the `mum` CLI (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no sources to build under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "mum_tool",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    if not MUM.is_file():
        fail(f"build produced no {MUM}")


class Invocation:
    """One finished `mum` process: exit code, wall/CPU time, peak RSS and
    its parsed stdout (`{"report": ..., "manifest": ...}`)."""

    def __init__(self, args, timeout_s):
        out_path = WORK_DIR / "stdout.json"
        err_path = WORK_DIR / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(MUM), *args], stdout=out, stderr=err)
            killer = threading.Timer(timeout_s, proc.kill)
            killer.start()
            # wait4 rather than Popen.wait: it also returns this child's
            # own rusage (CPU time, peak RSS).
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = err_path.read_text(errors="replace")[-2000:]
        try:
            self.doc = json.loads(out_path.read_text())
        except ValueError:
            self.doc = None

    @property
    def manifest(self):
        return self.doc["manifest"]

    @property
    def report(self):
        return self.doc["report"]


def world_seed(seed, k):
    """The k-th world of a run; distinct runs never share a world."""
    return seed * 1000 + k + 1


def campaign_args(seed, cycles, threads, extra):
    return ["campaign", "--json", "--quiet", "--seed", str(seed),
            "--cycles", str(cycles), "--threads", str(threads), *extra]


def check_campaign(inv, cycles):
    """Errors in one campaign's output: exit status, manifest bookkeeping,
    and the class-count identities every LPR cycle report satisfies."""
    if inv.code != 0:
        return [f"exit code {inv.code}: {inv.stderr.strip()}"]
    if inv.doc is None:
        return ["stdout is not JSON"]
    errors = []
    manifest = inv.manifest
    if not manifest.get("complete") or manifest.get("ok") != cycles:
        errors.append(f"manifest: {manifest.get('ok')} of {cycles} cycles "
                      f"ok, complete={manifest.get('complete')}")
    report = inv.report
    if len(report) != cycles:
        errors.append(f"report has {len(report)} cycles, expected {cycles}")
    for i, cycle in enumerate(report):
        counts = [cycle["global"]] + [a["classes"] for a in cycle["per_as"]]
        if cycle["cycle"] != i + 1 or counts[0]["total"] <= 0:
            errors.append(f"cycle {i + 1}: bad id or empty report")
        if any(c["parallel_links"] + c["routers_disjoint"] != c["mono_fec"]
               for c in counts):
            errors.append(f"cycle {i + 1}: mono-FEC subclasses do not add up")
        if sum(c["total"] for c in counts[1:]) > counts[0]["total"]:
            errors.append(f"cycle {i + 1}: per-AS totals exceed global")
    return errors


def e2e_sample(inv, cycles):
    """End-to-end values of one campaign process. cycle_ms is the runner's
    cycle loop alone; setup_s is the rest of the process (start, world and
    ip2as build, output, exit)."""
    loop_s = inv.manifest["wall_ns"] / 1e9
    return {
        "cycle_ms": loop_s * 1000.0 / cycles,
        "cpu_ms": inv.cpu_s * 1000.0 / cycles,
        "peak_rss_mb": inv.rss_mb,
        "setup_s": inv.wall_s - loop_s,
    }


def layer_sample(inv, cycles, telemetry_path):
    """Per-layer split of one traced campaign: the manifest's per-cycle
    stage times and delta-evolution records plus the telemetry registry,
    normalised per cycle. Every key is read without a default, so output
    that lacks one raises KeyError instead of reading as 0."""
    stage = {"generate_ns": 0, "spf_ns": 0, "ingest_ns": 0, "classify_ns": 0}
    full = []
    delta = []
    for status in inv.manifest["cycles"]:
        for key in stage:
            stage[key] += status["stages"][key]
        is_full = status["delta"]["full_build"]
        (full if is_full else delta).append(status["duration_ns"])
    if not full or not delta:
        raise ValueError(f"{len(full)} full-build and {len(delta)} delta "
                         "cycles; expected both")
    duration = sum(full) + sum(delta)
    # SPF runs inside generation.
    evolve_probe = stage["generate_ns"] - stage["spf_ns"]
    outside = duration - stage["generate_ns"] - stage["ingest_ns"] - \
        stage["classify_ns"]

    tel = json.loads(telemetry_path.read_text())
    counters = tel["counters"]
    recomputed = counters["igp.reconverge_sources_recomputed"]
    skipped = counters["igp.reconverge_sources_skipped"]

    def per_cycle_ms(ns):
        return ns / 1e6 / cycles

    return {
        "evolve_probe_ms": per_cycle_ms(evolve_probe),
        "spf_ms": per_cycle_ms(stage["spf_ns"]),
        "classify_ms": per_cycle_ms(stage["classify_ns"]),
        "alg1_ms": per_cycle_ms(tel["histograms"]["classify.ns"]["sum"]),
        "other_ms": per_cycle_ms(outside),
        "full_cycle_ms": statistics.mean(full) / 1e6,
        "delta_cycle_ms": statistics.mean(delta) / 1e6,
        "spf_recompute_share": recomputed / (recomputed + skipped),
        "traces_per_cycle": counters["lpr.traces"] / cycles,
        "arena_high_water_mb":
            tel["gauges"]["probe.arena.high_water_bytes"] / 2**20,
    }


# Metrics not listed here are in ms.
UNITS = {
    "peak_rss_mb": "MiB", "setup_s": "s", "spf_recompute_share": "ratio",
    "traces_per_cycle": "count", "arena_high_water_mb": "MiB",
}


class Bench:
    def __init__(self, args):
        self.spec = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.samples = []

    def invoke(self, args):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        return Invocation(args, remaining)

    def measure(self, inv, cycles, telemetry_path):
        """Check one timed invocation and record its sample."""
        self.attempted += cycles
        errors = check_campaign(inv, cycles)
        if not errors:
            try:
                self.samples.append(
                    layer_sample(inv, cycles, telemetry_path) if self.trace
                    else e2e_sample(inv, cycles))
            except (KeyError, OSError, ValueError) as e:
                errors = [f"per-layer output: {e!r}"]
        if errors:
            self.failed += cycles
            self.errors.extend(errors)
            return False
        return True

    def run(self):
        spec = self.spec
        cycles, threads, extra = spec["cycles"], spec["threads"], spec["extra"]
        telemetry_path = WORK_DIR / "telemetry.json"
        traced = [f"--telemetry={telemetry_path}"] if self.trace else []
        oracle = None
        k = 0
        t_end = time.monotonic() + self.seconds
        while k == 0 or time.monotonic() < t_end:
            seed = world_seed(self.seed, k)
            telemetry_path.unlink(missing_ok=True)
            inv = self.invoke(campaign_args(seed, cycles, threads,
                                            extra + traced))
            if self.measure(inv, cycles, telemetry_path):
                oracle = oracle or (seed, inv.report)
            k += 1
        if oracle is None:
            return
        # Reports are byte-identical at any thread count: the first world's
        # first cycles, rerun at another count, must match the timed run.
        seed, report = oracle
        inv = self.invoke(campaign_args(seed, ORACLE_CYCLES,
                                        spec["oracle_threads"], extra))
        errors = check_campaign(inv, ORACLE_CYCLES)
        if not errors and inv.report != report[:ORACLE_CYCLES]:
            errors = [f"report differs from the --threads "
                      f"{spec['oracle_threads']} oracle"]
        self.errors.extend(errors)

    def result(self):
        metrics = {}
        if self.samples:
            for key in self.samples[0]:
                value = statistics.median(s[key] for s in self.samples)
                metrics[key] = {"value": value, "unit": UNITS.get(key, "ms")}
        return {
            "correct": not self.errors and self.failed == 0 and
                       bool(self.samples),
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    bench = Bench(args)
    try:
        bench.run()
    except TimeoutError as e:
        bench.errors.append(str(e))
    finally:
        result = bench.result()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for error in bench.errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
