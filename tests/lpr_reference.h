// Reference LPR front end for tests: extraction, the address census, the
// four Sec. 3.1 filters with dynamic-AS reinjection, and IOTP grouping,
// written straight from the definitions in extract.h and filters.h.
//
// Naive on purpose: it reads traces through TraceView/HopView, keeps every
// set in std::set/std::map, runs on one thread, and identifies an LSP for
// Persistence by its full content rather than by a hash. Production must
// agree with it on every field compared by expect_matches_reference.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/extract.h"
#include "core/filters.h"
#include "core/report.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"

namespace mum::lpr::reference {

inline ExtractedSnapshot extract(const dataset::SnapshotBatch& snap,
                                 const dataset::Ip2As& ip2as) {
  ExtractedSnapshot out;
  out.cycle_id = snap.cycle_id;
  out.sub_index = snap.sub_index;
  out.date = snap.date;
  std::set<std::uint32_t> all, mpls;
  for (const dataset::TraceView trace : snap.traces) {
    ++out.stats.traces_total;
    const std::size_t n = trace.hop_count();
    const auto labeled = [&](std::size_t k) {
      return trace.hop(k).has_labels();
    };
    const auto anon = [&](std::size_t k) { return trace.hop(k).anonymous(); };
    for (std::size_t k = 0; k < n; ++k) {
      if (!anon(k)) all.insert(trace.hop(k).addr().value());
    }
    bool saw_tunnel = false;
    for (std::size_t i = 0; i < n;) {
      if (!labeled(i)) {
        ++i;
        continue;
      }
      const std::size_t first = i;
      std::size_t last = i;
      bool bridged = false;
      for (;;) {
        if (last + 1 < n && labeled(last + 1)) {
          ++last;
        } else if (last + 2 < n && anon(last + 1) && labeled(last + 2)) {
          bridged = true;
          last += 2;
        } else {
          break;
        }
      }
      i = last + 1;
      saw_tunnel = true;
      ++out.stats.lsps_observed;
      for (std::size_t k = first; k <= last; ++k) {
        if (!anon(k)) mpls.insert(trace.hop(k).addr().value());
      }
      if (bridged || first == 0 || anon(first - 1) || last + 1 == n ||
          anon(last + 1)) {
        ++out.stats.lsps_incomplete;
        continue;
      }
      // One mapped ASN across the run, or 0 (none, or several).
      std::set<std::uint32_t> asns;
      for (std::size_t k = first; k <= last; ++k) {
        if (trace.hop(k).asn() != dataset::kUnknownAsn) {
          asns.insert(trace.hop(k).asn());
        }
      }
      LspObservation obs;
      obs.lsp.asn = asns.size() == 1 ? *asns.begin() : 0;
      obs.lsp.ingress = trace.hop(first - 1).addr();
      const bool php =
          obs.lsp.asn != 0 && trace.hop(last + 1).asn() == obs.lsp.asn;
      obs.lsp.egress = trace.hop(php ? last + 1 : last).addr();
      obs.lsp.egress_labeled = !php;
      for (std::size_t k = first; k <= last; ++k) {
        if (anon(k)) continue;
        obs.lsp.lsrs.push_back(LsrHop{trace.hop(k).addr(),
                                      trace.hop(k).labels()});
      }
      obs.dst_asn = trace.dst_asn() != 0 ? trace.dst_asn()
                                         : ip2as.lookup(trace.dst());
      obs.monitor_id = trace.monitor_id();
      out.observations.push_back(obs);
    }
    if (saw_tunnel) ++out.stats.traces_with_explicit_tunnel;
  }
  out.stats.mpls_ips = mpls.size();
  for (const std::uint32_t addr : all) {
    out.stats.non_mpls_ips += mpls.contains(addr) ? 0 : 1;
  }
  return out;
}

// What Persistence compares: the LSP's whole content.
using LspId = std::tuple<std::uint32_t, net::Ipv4Addr, net::Ipv4Addr,
                         std::vector<LsrHop>>;
inline LspId id_of(const Lsp& lsp) {
  return {lsp.asn, lsp.ingress, lsp.egress, lsp.lsrs};
}

struct Result {
  ExtractStats extract_stats;
  FilterStats filter_stats;
  std::vector<std::uint32_t> dynamic_asns;  // ascending
  std::vector<IotpRecord> iotps;            // unclassified
};

inline Result run(const dataset::MonthData& month, const dataset::Ip2As& ip2as,
                  const FilterConfig& config = {}) {
  const ExtractedSnapshot cycle = extract(month.cycle(), ip2as);
  Result out;
  out.extract_stats = cycle.stats;
  FilterStats& stats = out.filter_stats;
  stats.observed = cycle.stats.lsps_observed;
  stats.complete = cycle.observations.size();

  std::vector<LspObservation> kept;
  for (const LspObservation& obs : cycle.observations) {
    if (!(config.enable_intra_as && obs.lsp.asn == 0)) kept.push_back(obs);
  }
  stats.after_intra_as = kept.size();

  if (config.enable_target_as) {
    std::erase_if(kept, [](const LspObservation& obs) {
      return obs.dst_asn == obs.lsp.asn;
    });
  }
  stats.after_target_as = kept.size();

  if (config.enable_transit_diversity) {
    std::map<IotpKey, std::set<std::uint32_t>> dsts;
    for (const LspObservation& obs : kept) {
      dsts[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}].insert(obs.dst_asn);
    }
    std::erase_if(kept, [&](const LspObservation& obs) {
      return dsts[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}].size() < 2;
    });
  }
  stats.after_transit_diversity = kept.size();

  if (config.enable_persistence) {
    std::set<LspId> seen;
    for (std::size_t s = 1; s < month.snapshots.size() &&
                            static_cast<int>(s) <= config.persistence_j;
         ++s) {
      for (const LspObservation& obs :
           extract(month.snapshots[s], ip2as).observations) {
        seen.insert(id_of(obs.lsp));
      }
    }
    std::map<std::uint32_t, std::pair<double, double>> per_as;  // total, kept
    for (const LspObservation& obs : kept) {
      auto& [total, still] = per_as[obs.lsp.asn];
      total += 1;
      still += seen.contains(id_of(obs.lsp)) ? 1 : 0;
    }
    for (const auto& [asn, tally] : per_as) {
      if (tally.second / tally.first <= 1.0 - config.dynamic_threshold) {
        out.dynamic_asns.push_back(asn);
      }
    }
    std::erase_if(kept, [&](const LspObservation& obs) {
      return !std::ranges::binary_search(out.dynamic_asns, obs.lsp.asn) &&
             !seen.contains(id_of(obs.lsp));
    });
  }
  stats.after_persistence = kept.size();

  std::map<IotpKey, std::pair<std::vector<Lsp>, std::set<std::uint32_t>>>
      groups;
  for (const LspObservation& obs : kept) {
    auto& [variants, dsts] =
        groups[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}];
    if (std::ranges::find(variants, obs.lsp) == variants.end()) {
      variants.push_back(obs.lsp);
    }
    dsts.insert(obs.dst_asn);
  }
  for (const auto& [key, group] : groups) {
    IotpRecord& rec = out.iotps.emplace_back();
    rec.key = key;
    rec.variants = group.first;
    rec.dst_asns.assign(group.second.begin(), group.second.end());
  }
  return out;
}

// Full equality of two extractions: every counter, and every observation in
// order, down to egress_labeled (which Lsp::operator== leaves out).
inline void expect_same_extraction(const ExtractedSnapshot& want,
                                   const ExtractedSnapshot& got) {
  EXPECT_EQ(want.stats, got.stats);
  EXPECT_EQ(want.cycle_id, got.cycle_id);
  EXPECT_EQ(want.sub_index, got.sub_index);
  EXPECT_EQ(want.date, got.date);
  ASSERT_EQ(want.observations.size(), got.observations.size());
  for (std::size_t i = 0; i < want.observations.size(); ++i) {
    const LspObservation& a = want.observations[i];
    const LspObservation& b = got.observations[i];
    EXPECT_EQ(a.lsp, b.lsp) << "observation " << i << ": "
                            << a.lsp.to_string() << " vs "
                            << b.lsp.to_string();
    EXPECT_EQ(a.lsp.egress_labeled, b.lsp.egress_labeled) << i;
    EXPECT_EQ(a.dst_asn, b.dst_asn) << i;
    EXPECT_EQ(a.monitor_id, b.monitor_id) << i;
  }
}

// A production report against the reference: census and trace counters,
// filter stats, dynamic ASes, and the IOTP records (keys, variants in
// order, destination ASes).
inline void expect_matches_reference(const Result& want,
                                     const CycleReport& got) {
  EXPECT_EQ(want.extract_stats, got.extract_stats);
  const FilterStats& a = want.filter_stats;
  const FilterStats& b = got.filter_stats;
  EXPECT_EQ(std::tie(a.observed, a.complete, a.after_intra_as,
                     a.after_target_as, a.after_transit_diversity,
                     a.after_persistence),
            std::tie(b.observed, b.complete, b.after_intra_as,
                     b.after_target_as, b.after_transit_diversity,
                     b.after_persistence));
  std::vector<std::uint32_t> dynamic;
  for (const auto& [asn, tagged] : got.dynamic_as) {
    if (tagged) dynamic.push_back(asn);
  }
  EXPECT_EQ(want.dynamic_asns, dynamic);
  ASSERT_EQ(want.iotps.size(), got.iotps.size());
  for (std::size_t i = 0; i < want.iotps.size(); ++i) {
    const IotpRecord& x = want.iotps[i];
    const IotpRecord& y = got.iotps[i];
    EXPECT_EQ(x.key, y.key) << "IOTP " << i;
    EXPECT_EQ(x.variants, y.variants) << "IOTP " << i;
    EXPECT_EQ(x.dst_asns, y.dst_asns) << "IOTP " << i;
  }
}

}  // namespace mum::lpr::reference
