// Microbenchmarks (google-benchmark) for the LPR hot paths and the
// simulator primitives, plus the ECMP-hash ablation called out in
// DESIGN.md. These quantify throughput, not paper results.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/extract.h"
#include "core/filters.h"
#include "core/report.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "igp/spf.h"
#include "net/radix_trie.h"
#include "probe/forwarder.h"
#include "run/runner.h"
#include "topo/builder.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mum;

// Synthetic IOTP with `width` branches of `length` LSRs; `multi_fec` makes
// labels differ per branch at shared addresses.
lpr::IotpRecord synthetic_iotp(int width, int length, bool multi_fec,
                               std::uint64_t seed) {
  lpr::IotpRecord rec;
  rec.key = lpr::IotpKey{65001, net::Ipv4Addr(1), net::Ipv4Addr(2)};
  util::Rng rng(seed);
  for (int b = 0; b < width; ++b) {
    lpr::Lsp lsp;
    lsp.asn = 65001;
    lsp.ingress = net::Ipv4Addr(1);
    lsp.egress = net::Ipv4Addr(2);
    for (int h = 0; h < length; ++h) {
      lpr::LsrHop hop;
      // Half the hops are shared across branches (common IPs).
      hop.addr = (h % 2 == 0)
                     ? net::Ipv4Addr(1000 + static_cast<std::uint32_t>(h))
                     : net::Ipv4Addr(2000 +
                                     static_cast<std::uint32_t>(b * 64 + h));
      hop.labels = {multi_fec
                        ? 300000 + static_cast<std::uint32_t>(b)
                        : 300000 + static_cast<std::uint32_t>(h)};
      lsp.lsrs.push_back(std::move(hop));
    }
    rec.variants.push_back(std::move(lsp));
  }
  rec.dst_asns = {1, 2};
  return rec;
}

void BM_ClassifyIotp(benchmark::State& state) {
  auto rec = synthetic_iotp(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(1)),
                            /*multi_fec=*/state.range(2) != 0, 7);
  for (auto _ : state) {
    lpr::classify_iotp(rec);
    benchmark::DoNotOptimize(rec.tunnel_class);
  }
}
BENCHMARK(BM_ClassifyIotp)
    ->Args({1, 3, 0})
    ->Args({4, 3, 0})
    ->Args({4, 3, 1})
    ->Args({16, 6, 0})
    ->Args({64, 8, 1});

void BM_LspContentHash(benchmark::State& state) {
  const auto rec = synthetic_iotp(1, static_cast<int>(state.range(0)),
                                  false, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.variants.front().content_hash());
  }
}
BENCHMARK(BM_LspContentHash)->Arg(2)->Arg(6)->Arg(14);

void BM_RadixTrieLookup(benchmark::State& state) {
  net::RadixTrie<std::uint32_t> trie;
  util::Rng rng(9);
  for (int i = 0; i < state.range(0); ++i) {
    trie.insert(net::Ipv4Prefix(
                    net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                    static_cast<std::uint8_t>(rng.uniform(8, 24))),
                static_cast<std::uint32_t>(i));
  }
  std::uint32_t probe = 1;
  for (auto _ : state) {
    probe = probe * 2654435761u + 17;
    benchmark::DoNotOptimize(trie.lookup(net::Ipv4Addr(probe)));
  }
}
BENCHMARK(BM_RadixTrieLookup)->Arg(64)->Arg(1024)->Arg(16384);

// Largest case-study shape (AT&T: 14 core + 60 PoP routers, bundled links).
// Same topology the pre-PR baseline in BENCH_PR4.json was measured on.
topo::AsTopology att_topology() {
  auto shape = gen::case_study_shape(gen::kAsnAtt);
  shape.topo.asn = gen::kAsnAtt;
  shape.topo.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 15);
  util::Rng rng(4);
  return topo::build_as_topology(shape.topo, rng);
}

// All-pairs IGP route computation (flat RIBs, one-pass ECMP propagation).
// Arg = thread count (1 = serial, no pool).
void BM_IgpCompute(benchmark::State& state) {
  const auto topo = att_topology();
  const int threads = static_cast<int>(state.range(0));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<util::ThreadPool>(
        static_cast<unsigned>(threads));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        igp::IgpState::compute(topo, {}, pool.get()));
  }
  state.SetLabel(std::to_string(topo.router_count()) + " routers, " +
                 std::to_string(topo.link_count()) + " links, " +
                 std::to_string(threads) + " thr");
}
BENCHMARK(BM_IgpCompute)->Arg(1)->Arg(4);

// Incremental reconvergence around 2 failed links vs the full recompute the
// simulator used to run per maintenance snapshot.
void BM_IgpReconverge(benchmark::State& state) {
  const auto topo = att_topology();
  const auto baseline = igp::IgpState::compute(topo);
  igp::LinkOverlay down;
  down.down.assign(topo.link_count(), false);
  down.down[3] = true;
  down.down[topo.link_count() / 2] = true;
  std::vector<topo::RouterId> all(topo.router_count());
  std::iota(all.begin(), all.end(), topo::RouterId{0});
  igp::IgpState::ReconvergeStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(igp::IgpState::reconverge(
        topo, baseline, {}, down, all, &stats));
  }
  state.SetLabel(std::to_string(stats.sources_recomputed) + "/" +
                 std::to_string(stats.sources_total) + " columns recomputed");
}
BENCHMARK(BM_IgpReconverge);

// The same reconvergence at the shape `--scale` runs per snapshot: one
// scaled background AS (32 core + 224 PoP routers, half the PoPs borders)
// with 5% of its links down, every column demanded.
void BM_IgpReconvergeScale(benchmark::State& state) {
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 12);
  params.core_routers = 32;
  params.pop_routers = 224;
  params.border_share = 0.5;
  params.parallel_link_prob = 0.2;
  params.heavy_cost_share = 0.25;
  util::Rng rng(4);
  const auto topo = topo::build_as_topology(params, rng);
  const auto baseline = igp::IgpState::compute(topo);
  igp::LinkOverlay down;
  down.down.assign(topo.link_count(), false);
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    down.down[l] = rng.below(20) == 0;
  }
  std::vector<topo::RouterId> all(topo.router_count());
  std::iota(all.begin(), all.end(), topo::RouterId{0});
  igp::IgpState::ReconvergeStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(igp::IgpState::reconverge(
        topo, baseline, {}, down, all, &stats));
  }
  state.SetLabel(std::to_string(topo.link_count()) + " links, " +
                 std::to_string(stats.sources_recomputed) + "/" +
                 std::to_string(stats.sources_total) + " columns recomputed");
}
BENCHMARK(BM_IgpReconvergeScale)->Unit(benchmark::kMillisecond);

void BM_Spf(benchmark::State& state) {
  topo::BuildParams params;
  params.asn = 1;
  params.block = net::Ipv4Prefix(net::Ipv4Addr(16, 0, 0, 0), 15);
  params.core_routers = static_cast<int>(state.range(0)) / 5;
  params.pop_routers = static_cast<int>(state.range(0)) -
                       params.core_routers;
  util::Rng rng(4);
  const auto topo = topo::build_as_topology(params, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(igp::IgpState::compute(topo));
  }
  state.SetLabel(std::to_string(topo.link_count()) + " links");
}
BENCHMARK(BM_Spf)->Arg(16)->Arg(40)->Arg(80);

// ECMP ablation: per-flow hashing (Paris assumption) vs per-packet
// randomization. Per-packet would break Paris traceroute's coherent-path
// guarantee; the bench shows the hash itself is not the cost driver.
void BM_EcmpPickPerFlow(benchmark::State& state) {
  std::uint64_t flow = 12345;
  std::size_t sink = 0;
  topo::RouterId r = 0;
  for (auto _ : state) {
    sink += probe::ecmp_pick(flow, r++ & 63, 99, 8);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EcmpPickPerFlow);

void BM_EcmpPickPerPacket(benchmark::State& state) {
  util::Rng rng(5);
  std::size_t sink = 0;
  for (auto _ : state) {
    sink += static_cast<std::size_t>(rng.below(8));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EcmpPickPerPacket);

// End-to-end pipeline throughput on a small synthetic internet.
void BM_FullPipelineMonth(benchmark::State& state) {
  gen::GenConfig config;
  config.background_transit = 6;
  config.stub_ases = 10;
  config.monitors = 4;
  config.dests_per_monitor = 120;
  const gen::Internet internet(config);
  const auto ip2as = internet.build_ip2as();
  const gen::CampaignRunner campaign(internet, ip2as);
  for (auto _ : state) {
    const auto month = campaign.month(50);
    const auto report = lpr::run_pipeline(month, ip2as, {});
    benchmark::DoNotOptimize(report.global.total());
  }
}
BENCHMARK(BM_FullPipelineMonth)->Unit(benchmark::kMillisecond);

// One annotated cycle snapshot (~4.8k traces) of a small synthetic
// internet, shared by the extraction benches.
struct ExtractFixture {
  ExtractFixture() : internet(config()), ip2as(internet.build_ip2as()) {
    auto ctx = internet.instantiate(50);
    snap = gen::CampaignRunner(internet, ip2as).snapshot(ctx, 50, 0);
  }
  static gen::GenConfig config() {
    gen::GenConfig config;
    config.background_transit = 6;
    config.stub_ases = 10;
    config.monitors = 8;
    config.dests_per_monitor = 600;
    return config;
  }
  gen::Internet internet;
  dataset::Ip2As ip2as;
  dataset::SnapshotBatch snap;
};

const ExtractFixture& extract_fixture() {
  static const ExtractFixture fixture;
  return fixture;
}

// Full extraction of the cycle snapshot: trace chunks + census partitions,
// on a pool of arg threads (1 = serial).
void BM_ExtractLsps(benchmark::State& state) {
  const ExtractFixture& f = extract_fixture();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lpr::extract_lsps(f.snap, f.ip2as, threads > 1 ? &pool : nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.snap.trace_count()));
}
BENCHMARK(BM_ExtractLsps)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// What Persistence reads from a following snapshot: run hashes only, no
// Lsp and no census.
void BM_PersistenceSet(benchmark::State& state) {
  const ExtractFixture& f = extract_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpr::persistence_set(f.snap));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.snap.trace_count()));
}
BENCHMARK(BM_PersistenceSet)->Unit(benchmark::kMillisecond);

// Thread scaling of the parallel execution layer: one paper-sized month
// generated + classified at 1/2/4/8 threads. Output is bit-identical across
// the arg values (the determinism gate in tests/test_parallel.cpp); this
// bench measures the wall-clock side of that contract.
void BM_MonthCycleThreads(benchmark::State& state) {
  run::RunnerConfig config;
  config.gen.background_transit = 10;
  config.gen.stub_ases = 14;
  config.gen.monitors = 8;
  config.gen.dests_per_monitor = 240;
  config.threads = static_cast<int>(state.range(0));
  const run::Runner runner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_cycle(50).global.total());
  }
  state.SetLabel(std::to_string(runner.threads()) + " threads");
}
BENCHMARK(BM_MonthCycleThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
