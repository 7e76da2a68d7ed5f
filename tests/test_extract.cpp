#include "core/extract.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "batch_testing.h"
#include "lpr_reference.h"
#include "chaos/chaos.h"
#include "dataset/pack.h"
#include "run/runner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mum::lpr {
namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// Addresses: AS65001 owns 0x10xx, AS65002 owns 0x20xx, dst AS 65099 = 0x90xx.
dataset::Ip2As test_ip2as() {
  dataset::Ip2As ip2as;
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x10000000), 8), 65001);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x20000000), 8), 65002);
  ip2as.add_prefix(net::Ipv4Prefix(ip(0x90000000), 8), 65099);
  return ip2as;
}

using testing::anonymous;
using testing::Hop;
using testing::labeled;
using testing::plain;

// One reached trace toward 0x90000001 (AS65099) per hop list, annotated.
dataset::SnapshotBatch snapshot_of(
    const std::vector<std::vector<Hop>>& traces) {
  dataset::SnapshotBatch snap;
  snap.cycle_id = 1;
  snap.date = "2014-12";
  for (const auto& hops : traces) {
    testing::add_trace(snap, {.dst = 0x90000001}, hops);
  }
  test_ip2as().annotate(snap);
  return snap;
}

TEST(Extract, SimplePhpTunnel) {
  // entry(no label) LSR LSR exit(no label, same AS) ... dst
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  labeled(0x10000003, 200),
                                  plain(0x10000004),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  const Lsp& lsp = extracted.observations[0].lsp;
  EXPECT_EQ(lsp.asn, 65001u);
  EXPECT_EQ(lsp.ingress, ip(0x10000001));
  EXPECT_EQ(lsp.egress, ip(0x10000004));
  EXPECT_FALSE(lsp.egress_labeled);
  ASSERT_EQ(lsp.lsrs.size(), 2u);
  EXPECT_EQ(lsp.lsrs[0].labels, (std::vector<std::uint32_t>{100}));
  EXPECT_EQ(extracted.observations[0].dst_asn, 65099u);
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);
  EXPECT_EQ(extracted.stats.lsps_incomplete, 0u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 1u);
}

TEST(Extract, NonPhpTunnelUsesLastLabeledHopAsEgress) {
  // Labeled run directly followed by a hop in ANOTHER AS: no PHP, the last
  // labeled hop is the Egress LER.
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  labeled(0x10000003, 200),
                                  plain(0x20000001),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  const Lsp& lsp = extracted.observations[0].lsp;
  EXPECT_EQ(lsp.egress, ip(0x10000003));
  EXPECT_TRUE(lsp.egress_labeled);
  EXPECT_EQ(lsp.intermediate_lsr_count(), 1);  // egress not intermediate
}

TEST(Extract, MissingIngressMakesIncomplete) {
  // Trace starts directly with a labeled hop.
  const auto snap = snapshot_of({{labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
}

TEST(Extract, MissingExitMakesIncomplete) {
  // Labeled run runs to the end of the trace.
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
}

TEST(Extract, AnonymousIngressMakesIncomplete) {
  const auto snap = snapshot_of({{anonymous(),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
  EXPECT_TRUE(extracted.observations.empty());
}

TEST(Extract, AnonymousInsideRunMakesIncomplete) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  anonymous(),
                                  labeled(0x10000004, 300),
                                  plain(0x10000005),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.lsps_observed, 1u);  // one (broken) run
  EXPECT_EQ(extracted.stats.lsps_incomplete, 1u);
  EXPECT_TRUE(extracted.observations.empty());
}

TEST(Extract, MultiAsRunFlaggedForIntraAsFilter) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  labeled(0x20000002, 200),
                                  plain(0x20000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations[0].lsp.asn, 0u);  // inter-domain marker
}

TEST(Extract, TwoTunnelsInOneTrace) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x20000001),
                                  labeled(0x20000002, 500),
                                  plain(0x20000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 2u);
  EXPECT_EQ(extracted.observations[0].lsp.asn, 65001u);
  EXPECT_EQ(extracted.observations[1].lsp.asn, 65002u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 1u);
}

TEST(Extract, NoTunnelTrace) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  plain(0x10000002),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_TRUE(extracted.observations.empty());
  EXPECT_EQ(extracted.stats.lsps_observed, 0u);
  EXPECT_EQ(extracted.stats.traces_with_explicit_tunnel, 0u);
  EXPECT_EQ(extracted.stats.traces_total, 1u);
}

TEST(Extract, MplsVsNonMplsIpCensus) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.mpls_ips, 1u);      // the labeled hop
  EXPECT_EQ(extracted.stats.non_mpls_ips, 3u);  // everything else
}

TEST(Extract, MplsIpCountedOnceAcrossTraces) {
  const std::vector<Hop> t1 = {plain(0x10000001), labeled(0x10000002, 100),
                               plain(0x10000003), plain(0x90000001)};
  auto t2 = t1;
  const auto snap = snapshot_of({t1, t2});
  const auto extracted = extract_lsps(snap, test_ip2as());
  EXPECT_EQ(extracted.stats.mpls_ips, 1u);
  EXPECT_EQ(extracted.stats.lsps_observed, 2u);
}

TEST(Extract, StackedLabelsPreserved) {
  Hop hop{0x10000002};
  hop.labels.push(100, 0, 1);  // bottom
  hop.labels.push(200, 0, 1);  // top
  const auto snap = snapshot_of({{plain(0x10000001), hop,
                                  plain(0x10000003),
                                  plain(0x90000001)}});
  const auto extracted = extract_lsps(snap, test_ip2as());
  ASSERT_EQ(extracted.observations.size(), 1u);
  EXPECT_EQ(extracted.observations[0].lsp.lsrs[0].labels,
            (std::vector<std::uint32_t>{200, 100}));
}

TEST(Extract, CensusByAsSplitsCorrectly) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  labeled(0x20000002, 300),
                                  plain(0x20000003),
                                  plain(0x90000001)}});
  const auto census = census_by_as(snap);
  ASSERT_TRUE(census.contains(65001));
  EXPECT_EQ(census.at(65001).mpls_ips, 1u);
  EXPECT_EQ(census.at(65001).non_mpls_ips, 2u);
  EXPECT_EQ(census.at(65002).mpls_ips, 1u);
  EXPECT_EQ(census.at(65002).non_mpls_ips, 1u);
  EXPECT_EQ(census.at(65099).non_mpls_ips, 1u);
}

TEST(Extract, CensusAddressNeverDoubleCounted) {
  // An address seen both labeled and unlabeled counts as MPLS only.
  const std::vector<Hop> t1 = {plain(0x10000001), labeled(0x10000002, 100),
                               plain(0x10000003), plain(0x90000001)};
  const std::vector<Hop> t2 = {plain(0x10000001), plain(0x10000002),
                               plain(0x90000001)};
  const auto census = census_by_as(snapshot_of({t1, t2}));
  EXPECT_EQ(census.at(65001).mpls_ips, 1u);
  EXPECT_EQ(census.at(65001).non_mpls_ips, 2u);
}

// --- persistence_set: the hash-only column pass ---------------------------

// The column pass must hash exactly the complete LSPs extraction builds.
void expect_sets_agree(const dataset::SnapshotBatch& snap) {
  EXPECT_EQ(persistence_set(snap),
            persistence_set(extract_lsps(snap, test_ip2as())));
}

TEST(PersistenceSet, BridgedRunIsIncompleteAndNotHashed) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  anonymous(),
                                  labeled(0x10000004, 300),
                                  plain(0x10000005),
                                  plain(0x90000001)}});
  EXPECT_TRUE(persistence_set(snap).empty());
  expect_sets_agree(snap);
}

TEST(PersistenceSet, RunsAtEitherEndOfTheTraceAreNotHashed) {
  const auto snap = snapshot_of({{labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x10000004),
                                  labeled(0x10000005, 200)},
                                 {labeled(0x10000002, 100)}});
  EXPECT_TRUE(persistence_set(snap).empty());
  expect_sets_agree(snap);
}

TEST(PersistenceSet, MultiAsRunHashedWithAsnZero) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  labeled(0x20000002, 200),
                                  plain(0x20000003),
                                  plain(0x90000001)}});
  Lsp lsp;  // asn 0, so no PHP: the last labeled hop is the egress
  lsp.ingress = ip(0x10000001);
  lsp.egress = ip(0x20000002);
  lsp.lsrs = {LsrHop{ip(0x10000002), {100}}, LsrHop{ip(0x20000002), {200}}};
  EXPECT_EQ(persistence_set(snap), PersistenceSet{lsp.content_hash()});
  expect_sets_agree(snap);
}

TEST(PersistenceSet, NonPhpEgressHashedAsLastLabeledHop) {
  Hop stacked{0x10000003};
  stacked.labels.push(700, 0, 1);
  stacked.labels.push(200, 0, 1);
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  stacked,
                                  plain(0x20000001),
                                  plain(0x90000001)},
                                 {plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  stacked,
                                  plain(0x20000001),
                                  plain(0x90000001)}});
  Lsp lsp;
  lsp.asn = 65001;
  lsp.ingress = ip(0x10000001);
  lsp.egress = ip(0x10000003);
  lsp.lsrs = {LsrHop{ip(0x10000002), {100}},
              LsrHop{ip(0x10000003), {200, 700}}};
  // Two traces, one LSP: one entry.
  EXPECT_EQ(persistence_set(snap), PersistenceSet{lsp.content_hash()});
  expect_sets_agree(snap);
}

TEST(PersistenceSet, SortedAndUniqueOverMixedTraces) {
  const auto snap = snapshot_of({{plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x20000001),
                                  labeled(0x20000002, 500),
                                  plain(0x20000003),
                                  plain(0x90000001)},
                                 {plain(0x10000001),
                                  labeled(0x10000002, 100),
                                  plain(0x10000003),
                                  plain(0x90000001)},
                                 {plain(0x10000001),
                                  labeled(0x10000002, 101),
                                  plain(0x10000003),
                                  plain(0x90000001)}});
  const PersistenceSet set = persistence_set(snap);
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(std::ranges::is_sorted(set));
  expect_sets_agree(snap);
}

// --- chunked extraction ------------------------------------------------------

// `n` traces, each with a complete, an incomplete and a multi-AS run whose
// addresses and labels depend on the trace index, so every chunk boundary
// shows in the output order.
dataset::SnapshotBatch varied_snapshot(std::size_t n) {
  std::vector<std::vector<Hop>> traces;
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t a = 0x10000000 + 16 * (t % 7);
    const std::uint32_t b = 0x20000000 + 16 * (t % 5);
    traces.push_back({plain(a + 1), labeled(a + 2, 100 + t),
                      labeled(a + 3, 200), plain(a + 4),
                      labeled(b + 1, 300 + t % 3), plain(b + 2),
                      anonymous(), labeled(b + 3, 400), plain(0x90000001)});
  }
  return snapshot_of(traces);
}

TEST(ExtractChunks, PoolMatchesSerialAroundTheChunkCount) {
  util::ThreadPool pool(4);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kExtractChunks - 1, kExtractChunks,
        kExtractChunks + 1, 5 * kExtractChunks + 3}) {
    SCOPED_TRACE(std::to_string(n) + " traces");
    const auto snap = varied_snapshot(n);
    const ExtractedSnapshot serial = extract_lsps(snap, test_ip2as());
    EXPECT_EQ(serial.stats.traces_total, n);
    EXPECT_EQ(serial.observations.size(), 2 * n);  // the bridged run drops
    reference::expect_same_extraction(serial,
                                      extract_lsps(snap, test_ip2as(), &pool));
    reference::expect_same_extraction(reference::extract(snap, test_ip2as()),
                                      serial);
  }
}

TEST(ExtractChunks, MonthFanOutMatchesSerialOnCampaignMonth) {
  run::RunnerConfig config;
  config.gen.background_transit = 8;
  config.gen.stub_ases = 12;
  config.gen.monitors = 6;
  config.gen.dests_per_monitor = 150;
  config.threads = 1;
  const run::Runner runner(config);
  util::ThreadPool pool(4);
  const dataset::MonthData month = runner.month_data(30);
  // The month's single fan-out: the same cycle extraction and, per
  // following snapshot, its own persistence set.
  const ExtractedMonth serial = extract_month(month, runner.ip2as());
  const ExtractedMonth pooled = extract_month(month, runner.ip2as(), &pool);
  reference::expect_same_extraction(serial.cycle, pooled.cycle);
  reference::expect_same_extraction(
      extract_lsps(month.cycle(), runner.ip2as()), pooled.cycle);
  ASSERT_EQ(pooled.following.size(), month.snapshots.size() - 1);
  for (std::size_t i = 0; i < pooled.following.size(); ++i) {
    EXPECT_EQ(pooled.following[i], serial.following[i]);
    EXPECT_EQ(pooled.following[i], persistence_set(month.snapshots[i + 1]));
  }
}

// A campaign month holds one block per monitor; its v3 round trip holds one
// block per snapshot. The trace chunks follow the blocks, so the two split
// differently, and extraction must not see it: the same observations, every
// ExtractStats field and the same persistence sets, serial and pooled.
TEST(ExtractChunks, MonitorBlocksMatchOneBlockRoundTrip) {
  run::RunnerConfig config;
  config.gen.dests_per_monitor = 60;
  config.threads = 1;
  const run::Runner runner(config);
  const dataset::MonthData month = runner.month_data(30);
  dataset::MonthData one;
  one.cycle_id = month.cycle_id;
  one.date = month.date;
  for (const dataset::SnapshotBatch& snap : month.snapshots) {
    ASSERT_EQ(snap.blocks.size(), 14u);
    auto back = dataset::parse_pack(dataset::serialize_pack(snap));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->blocks.size(), 1u);
    runner.ip2as().annotate(*back);
    one.snapshots.push_back(std::move(*back));
  }

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "4 threads");
    const ExtractedMonth blocks = extract_month(month, runner.ip2as(), p);
    const ExtractedMonth single = extract_month(one, runner.ip2as(), p);
    EXPECT_GT(blocks.cycle.observations.size(), 0u);
    reference::expect_same_extraction(blocks.cycle, single.cycle);
    EXPECT_EQ(blocks.following, single.following);
  }
}

// --- flat address set vs a std::set reference -----------------------------

TEST(AddrSet, AgreesWithStdSetAcrossForcedGrowth) {
  AddrSet set(16);
  std::set<std::uint32_t> reference;
  util::Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    // A narrow range forces repeats (the dedup path), zero included.
    const auto addr = static_cast<std::uint32_t>(rng.below(30000));
    const bool fresh = addr != 0 && reference.insert(addr).second;
    EXPECT_EQ(addr != 0 && set.insert(addr), fresh) << addr;
  }
  EXPECT_EQ(set.size(), reference.size());
  EXPECT_GT(set.capacity(), 16u * 1024u);  // grew ten doublings and more
  for (std::uint32_t addr = 0; addr < 30000; ++addr) {
    EXPECT_EQ(set.contains(addr), reference.contains(addr)) << addr;
  }
}

// The census the way the paper words it, over std::set: an address is MPLS
// when it ever responds with a quoted stack, non-MPLS otherwise; per AS
// likewise, keyed by the hop's annotated ASN.
struct NaiveCensus {
  std::uint64_t mpls_ips = 0;
  std::uint64_t non_mpls_ips = 0;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> by_as;
};

NaiveCensus naive_census(const dataset::SnapshotBatch& snap) {
  std::set<std::uint32_t> all, mpls;
  std::map<std::uint32_t, std::set<std::uint32_t>> as_all, as_mpls;
  for (const dataset::TraceView trace : snap) {
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      const dataset::HopView hop = trace.hop(k);
      if (hop.anonymous()) continue;
      all.insert(hop.addr().value());
      if (hop.has_labels()) mpls.insert(hop.addr().value());
      if (hop.asn() == dataset::kUnknownAsn) continue;
      as_all[hop.asn()].insert(hop.addr().value());
      if (hop.has_labels()) as_mpls[hop.asn()].insert(hop.addr().value());
    }
  }
  NaiveCensus out;
  out.mpls_ips = mpls.size();
  for (const std::uint32_t addr : all) out.non_mpls_ips += !mpls.contains(addr);
  for (const auto& [asn, addrs] : as_all) {
    auto& row = out.by_as[asn];
    for (const std::uint32_t addr : addrs) {
      if (as_mpls[asn].contains(addr)) {
        ++row.first;
      } else {
        ++row.second;
      }
    }
  }
  return out;
}

void expect_census_matches(const dataset::SnapshotBatch& snap,
                           const dataset::Ip2As& ip2as,
                           const std::string& what) {
  const NaiveCensus want = naive_census(snap);
  const ExtractStats stats = extract_lsps(snap, ip2as).stats;
  EXPECT_EQ(stats.mpls_ips, want.mpls_ips) << what;
  EXPECT_EQ(stats.non_mpls_ips, want.non_mpls_ips) << what;
  const auto census = census_by_as(snap);
  ASSERT_EQ(census.size(), want.by_as.size()) << what;
  for (const auto& [asn, row] : want.by_as) {
    ASSERT_TRUE(census.contains(asn)) << what << " AS" << asn;
    EXPECT_EQ(census.at(asn).mpls_ips, row.first) << what << " AS" << asn;
    EXPECT_EQ(census.at(asn).non_mpls_ips, row.second)
        << what << " AS" << asn;
  }
}

TEST(AddrSet, CensusMatchesNaiveReferenceOnCampaignSnapshots) {
  run::RunnerConfig config;
  config.gen.background_transit = 8;
  config.gen.stub_ases = 12;
  config.gen.monitors = 6;
  config.gen.dests_per_monitor = 150;
  config.threads = 1;
  run::Runner runner(config);

  chaos::ChaosConfig faults;
  faults.bogus_ip2as = 0.05;     // one address, several ASNs
  faults.truncate_stack = 0.3;   // labeled hops lose (all) labels
  faults.drop_extension = 0.05;
  faults.duplicate_ttl = 0.05;
  for (const int cycle : {0, 30, 59}) {
    dataset::MonthData month = runner.month_data(cycle);
    for (dataset::SnapshotBatch& snap : month.snapshots) {
      const std::string where = "cycle " + std::to_string(cycle) + " sub " +
                                std::to_string(snap.sub_index);
      // Past the half-load mark of the census partitions' sets (on
      // average), so extraction grows them.
      const NaiveCensus naive = naive_census(snap);
      ASSERT_GT(naive.mpls_ips + naive.non_mpls_ips,
                kCensusParts * AddrSet().capacity() / 2)
          << where;
      expect_census_matches(snap, runner.ip2as(), where);
      chaos::Corruptor corruptor(faults);
      corruptor.corrupt(snap);
      ASSERT_GT(corruptor.stats().asns_scrambled, 0u);
      ASSERT_GT(corruptor.stats().stacks_truncated, 0u);
      expect_census_matches(snap, runner.ip2as(), where + " (chaos)");
    }
  }
}

}  // namespace
}  // namespace mum::lpr
