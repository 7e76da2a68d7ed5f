// Measurement-path throughput: observation -> trace storage -> annotate ->
// pack serialization -> ingest, heap Traces vs the SoA TraceBatch
// (DESIGN.md Sec. 14). Forwarding walks are precomputed once —
// the network simulation is the workload's input, not the measurement path
// — so the gated pair isolates exactly the stages the batch layout
// changed. Reports traces/s (SetItemsProcessed) and heap allocations per
// trace via a global operator-new counting hook; scripts/bench.sh records
// both in BENCH_PR9.json and gates the batch path at >= 3x the heap
// reference's traces/s and >= 10x fewer allocations per trace.
// BM_CampaignSnapshot additionally times the full campaign snapshot
// (plane lookup + walk included; probes are routed once, on the runner's
// first snapshot) as ungated context. Building the corpus checks once that
// the heap reference and the batch path write identical pack bytes; both
// gated benches refuse to run (SkipWithError) if they do not.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dataset/pack.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "probe/traceroute.h"

// --- allocation-count hook -------------------------------------------------
// Counts every global operator new (scalar, array, aligned). Relaxed atomic:
// the benches are single-threaded, the hook just has to be safe if the
// runtime spawns a helper thread.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

// Every delete frees through release(), kept out of line: inlined into a
// caller, a bare free() would meet the pointer of a (not inlined) operator
// new, which GCC reports as a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

using namespace mum;

// One precomputed probe: the deterministic forwarding walk the observation
// model consumes (walks depend only on (path, flow id), never on the rng).
struct ProbeInput {
  net::Ipv4Addr dst;
  probe::WalkResult walk;
};

// 8 monitors x 400 destinations x 2 probes -> ~6400 traces per snapshot.
struct Corpus {
  gen::Internet internet;
  dataset::Ip2As ip2as;
  std::vector<std::vector<ProbeInput>> by_monitor;  // campaign monitor order
  std::size_t traces = 0;
  std::size_t hops = 0;
  std::size_t lses = 0;
  bool paths_agree = false;  // heap_pack() == batch_pack(), checked once

  Corpus()
      : internet([] {
          gen::GenConfig config;
          config.background_transit = 12;
          config.stub_ases = 16;
          config.monitors = 8;
          config.dests_per_monitor = 400;
          return config;
        }()),
        ip2as(internet.build_ip2as()) {
    // The campaign's own probe plans, resolved against cycle 50, keeping
    // the walks instead of tracing them.
    const auto ctx = internet.instantiate(50);
    std::vector<const probe::AsDataPlane*> planes;
    ctx.plane_table(planes);
    probe::PathSpec path;
    by_monitor.resize(internet.monitors().size());
    for (std::size_t mi = 0; mi < by_monitor.size(); ++mi) {
      const gen::ProbePlan plan = internet.probe_plan(mi);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        if (!plan.resolve(i, planes, path)) continue;
        ProbeInput probe;
        probe.dst = path.dst;
        probe.walk = probe::walk_path(path, plan.probes[i].flow_id);
        by_monitor[mi].push_back(std::move(probe));
      }
      traces += by_monitor[mi].size();
    }
    // Hop/LSE counts for an exactly sized batch (what the campaign knows
    // from each monitor's previous block).
    for (const auto& block : by_monitor) {
      for (const auto& probe : block) {
        for (const auto& hop : probe.walk.hops) {
          ++hops;
          lses += hop.labels.depth();
        }
      }
    }
    dataset::AsnCache asn_cache;
    paths_agree = heap_pack() == batch_pack(asn_cache);
  }

  // Observation -> storage -> annotate -> pack serialization, one snapshot,
  // through the bench-local heap reference and through the batch path.
  std::string heap_pack() const;
  std::string batch_pack(dataset::AsnCache& asn_cache) const;
};

const Corpus& corpus() {
  static const Corpus c;
  return c;
}

// Heap reference (bench-local; the library keeps only the batch path): one
// heap trace per probe (hop vector growth per trace), monitor blocks merged
// by move, per-trace trie annotate, a per-record AoS-to-column transposition
// into the pack writer, and a heap trace materialized per record on ingest.
// This is the shape of the measurement path before traces were stored as
// columns.
struct HeapHop {
  net::Ipv4Addr addr;  // kAnonymousAddr for '*'
  double rtt_ms = 0.0;
  net::LabelStack labels;
  std::uint32_t asn = 0;
};

struct HeapTrace {
  std::uint32_t monitor_id = 0;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint32_t dst_asn = 0;
  bool reached = false;
  std::vector<HeapHop> hops;
};

// A copy of probe::observe_walk_into's observation model that emits a heap
// trace; same RNG draws in the same order. Corpus::paths_agree catches drift.
HeapTrace observe_heap(const probe::Monitor& monitor, net::Ipv4Addr dst,
                       const probe::TraceOptions& options, util::Rng& rng,
                       const probe::WalkResult& walk) {
  HeapTrace trace{monitor.id, monitor.addr, dst, 0, false, {}};
  const int attempts = std::max(1, options.attempts);
  double cumulative_ms = 0.0;
  int ttl = 0;
  int gap = 0;
  for (const probe::HopRecord& hop : walk.hops) {
    cumulative_ms += hop.latency_ms;
    if (!hop.ttl_visible) continue;
    if (++ttl > options.max_ttl) break;
    int lost = 0;  // replies lost before one got through
    if (rng.chance(hop.response_prob)) {
      while (lost < attempts && rng.chance(options.reply_loss)) ++lost;
    } else {
      lost = attempts;
    }
    if (lost == attempts) {
      trace.hops.emplace_back();  // '*'
      if (++gap >= options.gap_limit) return trace;
      continue;
    }
    gap = 0;
    const double rtt = 2.0 * cumulative_ms + rng.uniform01() * 0.4;
    trace.hops.push_back(
        {hop.addr, rtt, hop.rfc4950 ? hop.labels : net::LabelStack{}, 0});
  }
  trace.reached = walk.reached && ttl < options.max_ttl;
  if (trace.reached) {
    trace.hops.push_back(
        {dst, 2.0 * (cumulative_ms + 1.0) + rng.uniform01() * 0.4, {}, 0});
  }
  return trace;
}

void annotate_heap(const dataset::Ip2As& ip2as, HeapTrace& trace) {
  trace.dst_asn = ip2as.lookup(trace.dst);
  for (HeapHop& hop : trace.hops) {
    hop.asn = hop.addr == net::kAnonymousAddr ? dataset::kUnknownAsn
                                              : ip2as.lookup(hop.addr);
  }
}

void append_heap(const HeapTrace& trace, dataset::TraceBatch& out) {
  out.begin_trace(trace.monitor_id, trace.src, trace.dst, trace.dst_asn);
  for (const HeapHop& hop : trace.hops) {
    out.add_hop(hop.addr, hop.rtt_ms, hop.asn);
    for (const auto& lse : hop.labels.entries()) out.add_label(lse.encode());
  }
  out.end_trace(trace.reached);
}

HeapTrace to_heap_trace(dataset::TraceView view) {
  HeapTrace t{view.monitor_id(), view.src(), view.dst(), 0, view.reached(),
              {}};
  t.hops.resize(view.hop_count());
  for (std::size_t k = 0; k < t.hops.size(); ++k) {
    const dataset::HopView hop = view.hop(k);
    t.hops[k].addr = hop.addr();
    t.hops[k].rtt_ms = hop.rtt_ms();
    if (hop.has_labels()) t.hops[k].labels = hop.label_stack();
  }
  return t;
}

std::string Corpus::heap_pack() const {
  const auto& monitors = internet.monitors();
  const probe::TraceOptions options;
  const util::Rng noise_base(0xBEEF);
  // Each monitor grows its own trace vector; blocks concatenate in monitor
  // order.
  std::vector<std::vector<HeapTrace>> blocks(monitors.size());
  for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
    util::Rng rng = noise_base.fork(mi);
    for (const ProbeInput& probe : by_monitor[mi]) {
      blocks[mi].push_back(
          observe_heap(monitors[mi], probe.dst, options, rng, probe.walk));
    }
  }
  std::vector<HeapTrace> all;
  all.reserve(traces);
  for (auto& block : blocks) {
    for (auto& trace : block) all.push_back(std::move(trace));
  }
  for (HeapTrace& trace : all) annotate_heap(ip2as, trace);

  dataset::SnapshotBatch snap;
  snap.cycle_id = 50;
  snap.date = "2010-03";
  dataset::TraceBatch& out = snap.blocks.emplace_back();
  for (const HeapTrace& trace : all) append_heap(trace, out);
  return dataset::serialize_pack(snap);
}

// Batch measurement path: traces land as SoA columns reserved up front
// (one allocation per column per snapshot), memoized column annotate,
// column-memcpy pack serialization.
std::string Corpus::batch_pack(dataset::AsnCache& asn_cache) const {
  const auto& monitors = internet.monitors();
  const probe::TraceOptions options;
  const util::Rng noise_base(0xBEEF);
  dataset::SnapshotBatch snap;
  snap.cycle_id = 50;
  snap.date = "2010-03";
  dataset::TraceBatch& out = snap.blocks.emplace_back(traces, hops, lses);
  for (std::size_t mi = 0; mi < monitors.size(); ++mi) {
    util::Rng rng = noise_base.fork(mi);
    for (const ProbeInput& probe : by_monitor[mi]) {
      probe::observe_walk_into(monitors[mi], probe.dst, options, rng,
                               probe.walk, out);
    }
  }
  ip2as.annotate(out, asn_cache);
  return dataset::serialize_pack(snap);
}

// The gated pair's counters: traces/s, and heap allocations per trace since
// `allocs_before`.
void report_throughput(benchmark::State& state, const Corpus& c,
                       std::uint64_t allocs_before) {
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const auto items = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(c.traces);
  state.SetItemsProcessed(items);
  if (items > 0) {
    state.counters["allocs_per_trace"] =
        static_cast<double>(allocs) / static_cast<double>(items);
  }
  state.SetLabel(std::to_string(c.traces) + " traces/snapshot");
}

void BM_MeasurementPathLegacy(benchmark::State& state) {
  const Corpus& c = corpus();
  if (!c.paths_agree) {
    state.SkipWithError("heap reference and batch path pack bytes differ");
    return;
  }

  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const std::string bytes = c.heap_pack();
    const auto view = dataset::PackView::open(bytes, {}, nullptr);
    if (!view) {
      state.SkipWithError("heap pack failed to open");
      break;
    }
    const dataset::SnapshotBatch ingested = view->to_snapshot_batch();
    std::vector<HeapTrace> back;
    back.reserve(ingested.trace_count());
    for (const dataset::TraceView trace : ingested) {
      back.push_back(to_heap_trace(trace));
    }
    if (back.size() != c.traces) {
      state.SkipWithError("heap round-trip lost traces");
      break;
    }
    benchmark::DoNotOptimize(back.data());
  }
  report_throughput(state, c, allocs_before);
}
BENCHMARK(BM_MeasurementPathLegacy)->Unit(benchmark::kMillisecond);

// Batch measurement path (Corpus::batch_pack) plus zero-copy column ingest.
void BM_MeasurementPathBatch(benchmark::State& state) {
  const Corpus& c = corpus();
  if (!c.paths_agree) {
    state.SkipWithError("heap reference and batch path pack bytes differ");
    return;
  }
  dataset::AsnCache asn_cache;  // campaign-persistent

  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const std::string bytes = c.batch_pack(asn_cache);
    const auto view = dataset::PackView::open(bytes, {}, nullptr);
    if (!view) {
      state.SkipWithError("batch pack failed to open");
      break;
    }
    const dataset::SnapshotBatch back = view->to_snapshot_batch();
    if (back.trace_count() != c.traces) {
      state.SkipWithError("batch round-trip lost traces");
      break;
    }
    benchmark::DoNotOptimize(back.blocks.front().hop_addr_col().data());
  }
  report_throughput(state, c, allocs_before);
}
BENCHMARK(BM_MeasurementPathBatch)->Unit(benchmark::kMillisecond);

// Context (not gated): the full campaign snapshot including the plan's
// plane lookup and the forwarding walk — the simulation floor under the
// measurement path.
void BM_CampaignSnapshot(benchmark::State& state) {
  const Corpus& c = corpus();
  const gen::CampaignRunner campaign(c.internet, c.ip2as);
  auto ctx = c.internet.instantiate(50);

  std::uint64_t traces = 0;
  for (auto _ : state) {
    const dataset::SnapshotBatch snap = campaign.snapshot(ctx, 50, 0);
    traces = snap.trace_count();
    benchmark::DoNotOptimize(snap.blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_CampaignSnapshot)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
