// Ingest throughput: warts-lite v2 stream decode vs v3 pack mmap, over a
// 60-cycle on-disk corpus (one snapshot per cycle, the paper's campaign
// length). Reports bytes/s (SetBytesProcessed) and traces/s
// (SetItemsProcessed); scripts/bench.sh records the numbers in
// BENCH_PR6.json and gates on the v3/v2 traces-per-second ratio.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/pack.h"
#include "dataset/snapshot_source.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/mmap_file.h"

namespace {

using namespace mum;
namespace fs = std::filesystem;

struct Corpus {
  std::vector<std::string> v2_paths;
  std::vector<std::string> v3_paths;
  std::uint64_t traces = 0;
  std::uint64_t v2_bytes = 0;
  std::uint64_t v3_bytes = 0;
};

// Generate the corpus once, serialize every cycle in both containers, and
// leave the files in tmp for the mmap path to map for real.
const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus built;
    const fs::path dir = fs::temp_directory_path() / "mum_bench_ingest";
    fs::remove_all(dir);
    fs::create_directories(dir);

    gen::GenConfig config;
    config.background_transit = 8;
    config.stub_ases = 12;
    config.monitors = 6;
    config.dests_per_monitor = 150;
    const gen::Internet internet(config);
    const auto ip2as = internet.build_ip2as();
    const gen::CampaignRunner campaign(internet, ip2as);

    for (int cycle = 0; cycle < gen::kCycles; ++cycle) {
      auto ctx = internet.instantiate(cycle);
      const auto snap = campaign.snapshot(ctx, cycle, 0);
      built.traces += snap.trace_count();

      const std::string v2 = dataset::serialize_snapshot(snap);
      const std::string v3 = dataset::serialize_pack(snap);
      built.v2_bytes += v2.size();
      built.v3_bytes += v3.size();
      const fs::path base = dir / ("cycle_" + std::to_string(cycle + 1));
      std::ofstream(base.string() + ".mumw", std::ios::binary) << v2;
      std::ofstream(base.string() + ".mump", std::ios::binary) << v3;
      built.v2_paths.push_back(base.string() + ".mumw");
      built.v3_paths.push_back(base.string() + ".mump");
    }
    return built;
  }();
  return c;
}

// v2 baseline: map each shard (same I/O path as v3) and run the varint
// stream decoder — one branchy parse per byte, appending every record into
// batch columns.
void BM_IngestV2Stream(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    std::uint64_t traces = 0;
    for (const auto& path : c.v2_paths) {
      const auto file = util::MmapFile::open_ro(path);
      const auto snap = dataset::parse_snapshot_v2(file->view());
      traces += snap->trace_count();
    }
    if (traces != c.traces) state.SkipWithError("v2 decode lost traces");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.v2_bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
  state.SetLabel(std::to_string(c.v2_paths.size()) + " shards, " +
                 std::to_string(c.traces) + " traces");
}
BENCHMARK(BM_IngestV2Stream)->Unit(benchmark::kMillisecond);

// v3 ingest: mmap each shard and open a validated zero-copy view —
// section-table bounds checks, per-section checksums, offset-column scans.
// Records become addressable without per-record parsing; this is the state
// the pack reader hands to column-oriented consumers.
void BM_IngestV3Mmap(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    std::uint64_t traces = 0;
    for (const auto& path : c.v3_paths) {
      const auto file = util::MmapFile::open_ro(path);
      const auto view = dataset::PackView::open(file->view(), {}, nullptr);
      traces += view->valid_count();
    }
    if (traces != c.traces) state.SkipWithError("v3 open lost traces");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.v3_bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
  state.SetLabel(std::to_string(c.v3_paths.size()) + " shards, " +
                 std::to_string(c.traces) + " traces");
}
BENCHMARK(BM_IngestV3Mmap)->Unit(benchmark::kMillisecond);

// Apples-to-apples with the v2 baseline: validate AND copy every record
// into owning batch columns. The delta against BM_IngestV3Mmap is the cost
// of leaving the zero-copy regime.
void BM_IngestV3Materialize(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    std::uint64_t traces = 0;
    for (const auto& path : c.v3_paths) {
      const auto file = util::MmapFile::open_ro(path);
      const auto snap = dataset::parse_pack(file->view());
      traces += snap->trace_count();
    }
    if (traces != c.traces) state.SkipWithError("v3 decode lost traces");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.v3_bytes));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
}
BENCHMARK(BM_IngestV3Materialize)->Unit(benchmark::kMillisecond);

// The unified ingest stack end to end (sniffing + diagnostics accounting),
// as Runner and the CLI consume it.
void BM_IngestFileSource(benchmark::State& state) {
  const Corpus& c = corpus();
  const bool pack = state.range(0) != 0;
  const auto& paths = pack ? c.v3_paths : c.v2_paths;
  for (auto _ : state) {
    dataset::SnapshotSource source(paths);
    std::uint64_t traces = 0;
    while (const auto snap = source.next()) traces += snap->trace_count();
    if (traces != c.traces) state.SkipWithError("source lost traces");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.traces));
  state.SetLabel(pack ? "v3" : "v2");
}
BENCHMARK(BM_IngestFileSource)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
