#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/report.h"

namespace mum::lpr {
namespace {

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

IotpRecord rec_of(TunnelClass cls, int length, int width, int symmetry,
                  std::uint32_t asn = 65001) {
  IotpRecord rec;
  rec.key = IotpKey{asn, ip(1), ip(2)};
  rec.tunnel_class = cls;
  rec.length = length;
  rec.width = width;
  rec.symmetry = symmetry;
  return rec;
}

TEST(Metrics, LengthDistribution) {
  std::vector<IotpRecord> records{rec_of(TunnelClass::kMonoLsp, 1, 1, 0),
                                  rec_of(TunnelClass::kMonoLsp, 3, 1, 0),
                                  rec_of(TunnelClass::kMonoFec, 3, 2, 0)};
  const auto h = length_distribution(records);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.pdf(3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.pdf(1), 1.0 / 3.0);
}

TEST(Metrics, WidthDistributionAllAndFiltered) {
  std::vector<IotpRecord> records{rec_of(TunnelClass::kMonoLsp, 1, 1, 0),
                                  rec_of(TunnelClass::kMonoFec, 2, 2, 0),
                                  rec_of(TunnelClass::kMultiFec, 2, 4, 1)};
  EXPECT_EQ(width_distribution(records).total(), 3u);
  const auto mono = width_distribution(records, TunnelClass::kMonoFec);
  EXPECT_EQ(mono.total(), 1u);
  EXPECT_DOUBLE_EQ(mono.pdf(2), 1.0);
  const auto multi = width_distribution(records, TunnelClass::kMultiFec);
  EXPECT_DOUBLE_EQ(multi.pdf(4), 1.0);
}

TEST(Metrics, SymmetryDistributionAndBalancedShare) {
  std::vector<IotpRecord> records{rec_of(TunnelClass::kMonoFec, 2, 2, 0),
                                  rec_of(TunnelClass::kMonoFec, 3, 2, 1),
                                  rec_of(TunnelClass::kMonoFec, 3, 2, 0),
                                  rec_of(TunnelClass::kMultiFec, 3, 2, 2)};
  const auto h = symmetry_distribution(records, TunnelClass::kMonoFec);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_NEAR(balanced_share(records, TunnelClass::kMonoFec), 2.0 / 3.0,
              1e-12);
  EXPECT_NEAR(balanced_share(records, TunnelClass::kMultiFec), 0.0, 1e-12);
  EXPECT_NEAR(balanced_share(records, TunnelClass::kMonoLsp), 0.0, 1e-12);
}

TEST(Metrics, EmptyRecords) {
  const std::vector<IotpRecord> none;
  EXPECT_EQ(length_distribution(none).total(), 0u);
  EXPECT_DOUBLE_EQ(balanced_share(none, TunnelClass::kMonoFec), 0.0);
}

// --- report / pipeline --------------------------------------------------

LspObservation obs(std::uint32_t asn, std::uint32_t ingress,
                   std::uint32_t label, std::uint32_t dst_asn) {
  LspObservation o;
  o.lsp.asn = asn;
  o.lsp.ingress = ip(ingress);
  o.lsp.egress = ip(ingress + 10);
  o.lsp.lsrs.push_back(LsrHop{ip(ingress + 1000), {label}});
  o.dst_asn = dst_asn;
  return o;
}

TEST(Report, PipelineFromExtractedSnapshots) {
  ExtractedSnapshot cycle;
  cycle.cycle_id = 7;
  cycle.date = "2012-08";
  cycle.observations = {obs(65001, 1, 100, 9), obs(65001, 1, 100, 10),
                        obs(65001, 1, 101, 11),   // second FEC
                        obs(65002, 5, 300, 9), obs(65002, 5, 300, 10)};
  cycle.stats.lsps_observed = 5;

  const PersistenceSet next = persistence_set(cycle);  // all persists
  const CycleReport report =
      classify_cycle(apply_filters(cycle, {&next, 1}, {}), {});

  EXPECT_EQ(report.cycle_id, 7u);
  EXPECT_EQ(report.date, "2012-08");
  EXPECT_EQ(report.iotps.size(), 2u);
  EXPECT_EQ(report.global.total(), 2u);
  EXPECT_EQ(report.global.multi_fec, 1u);  // AS65001: 2 labels on same IP
  EXPECT_EQ(report.global.mono_lsp, 1u);   // AS65002
  EXPECT_EQ(report.as_counts(65001).multi_fec, 1u);
  EXPECT_EQ(report.as_counts(65002).mono_lsp, 1u);
  EXPECT_EQ(report.as_counts(99999).total(), 0u);
}

TEST(Report, DynamicTagSurfacesInReport) {
  ExtractedSnapshot cycle;
  cycle.cycle_id = 1;
  cycle.observations = {obs(65001, 1, 100, 9), obs(65001, 1, 101, 10)};
  ExtractedSnapshot next;  // labels churned away entirely
  next.observations = {obs(65001, 1, 500, 9)};
  const PersistenceSet next_set = persistence_set(next);
  const CycleReport report =
      classify_cycle(apply_filters(cycle, {&next_set, 1}, {}), {});
  ASSERT_TRUE(report.dynamic_as.contains(65001));
  EXPECT_TRUE(report.dynamic_as.at(65001));
}

TEST(Report, AsSeriesTracksCycles) {
  LongitudinalReport longitudinal;
  for (std::uint32_t c = 0; c < 3; ++c) {
    ExtractedSnapshot cycle;
    cycle.cycle_id = c;
    if (c >= 1) {  // AS appears from cycle 1 on
      cycle.observations = {obs(65001, 1, 100, 9),
                            obs(65001, 1, 100, 10)};
    }
    const PersistenceSet next = persistence_set(cycle);
    longitudinal.cycles.push_back(
        classify_cycle(apply_filters(cycle, {&next, 1}, {}), {}));
  }
  const auto series = longitudinal.as_series(65001);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].counts.total(), 0u);
  EXPECT_EQ(series[1].counts.total(), 1u);
  EXPECT_EQ(series[2].counts.total(), 1u);
  EXPECT_EQ(series[1].cycle_id, 1u);
}

TEST(Report, AliasHeuristicConfigPlumbsThrough) {
  // Two branches with no common IP; same last-hop labels.
  LspObservation o1, o2;
  o1.lsp.asn = o2.lsp.asn = 65001;
  o1.lsp.ingress = o2.lsp.ingress = ip(1);
  o1.lsp.egress = o2.lsp.egress = ip(2);
  o1.lsp.lsrs = {LsrHop{ip(100), {7}}};
  o2.lsp.lsrs = {LsrHop{ip(200), {7}}};
  o1.dst_asn = 9;
  o2.dst_asn = 10;

  ExtractedSnapshot cycle;
  cycle.observations = {o1, o2};
  const PersistenceSet next = persistence_set(cycle);

  const auto without =
      classify_cycle(apply_filters(cycle, {&next, 1}, {}), {});
  EXPECT_EQ(without.global.unclassified, 1u);

  const auto with = classify_cycle(apply_filters(cycle, {&next, 1}, {}),
                                   {.alias_resolution_heuristic = true});
  EXPECT_EQ(with.global.unclassified, 0u);
  EXPECT_EQ(with.global.mono_fec, 1u);
}

}  // namespace
}  // namespace mum::lpr
