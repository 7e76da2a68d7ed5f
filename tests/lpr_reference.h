// Reference LPR for tests: extraction, the address census, the four
// Sec. 3.1 filters with dynamic-AS reinjection, IOTP grouping, and
// Algorithm 1 with the Mono-FEC split and the Sec. 5 alias heuristic,
// written straight from the definitions in extract.h, filters.h and
// classify.h.
//
// Naive on purpose: it reads traces through TraceView/HopView, keeps every
// set in std::set/std::map, runs on one thread, and identifies an LSP for
// Persistence by its full content rather than by a hash. Production must
// agree with it on every field compared by expect_matches_reference and
// expect_same_classes.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/classify.h"
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
  for (const dataset::TraceView trace : snap) {
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
    if (obs.lsp.asn != 0) kept.push_back(obs);
  }
  stats.after_intra_as = kept.size();

  std::erase_if(kept, [](const LspObservation& obs) {
    return obs.dst_asn == obs.lsp.asn;
  });
  stats.after_target_as = kept.size();

  std::map<IotpKey, std::set<std::uint32_t>> dsts;
  for (const LspObservation& obs : kept) {
    dsts[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}].insert(obs.dst_asn);
  }
  std::erase_if(kept, [&](const LspObservation& obs) {
    return dsts[{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress}].size() < 2;
  });
  stats.after_transit_diversity = kept.size();

  // Persistence runs only with j > 0 and at least one following snapshot.
  if (config.persistence_j > 0 && month.snapshots.size() > 1) {
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
      if (tally.second / tally.first <= 1.0 - kDynamicThreshold) {
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

// What Algorithm 1 (plus the Mono-FEC split, the Sec. 5 heuristic and the
// Sec. 4.3 metrics) says about one IOTP.
struct Classified {
  TunnelClass tunnel_class = TunnelClass::kUnclassified;
  MonoFecKind mono_fec_kind = MonoFecKind::kNotApplicable;
  bool by_alias_heuristic = false;
  int length = 0;
  int width = 0;
  int symmetry = 0;
};

// Algorithm 1, lines 10-28, over an IOTP's branches.
inline Classified classify(const std::vector<Lsp>& branches,
                           bool alias_heuristic) {
  Classified out;
  std::multiset<int> lengths;  // intermediate LSRs per branch
  for (const Lsp& lsp : branches) {
    lengths.insert(lsp.intermediate_lsr_count());
  }
  out.width = static_cast<int>(branches.size());
  if (!lengths.empty()) {
    out.length = *lengths.rbegin();
    out.symmetry = *lengths.rbegin() - *lengths.begin();
  }
  // Line 10: one branch is a Mono-LSP.
  if (branches.size() <= 1) {
    out.tunnel_class = TunnelClass::kMonoLsp;
    return out;
  }
  // Mono-FEC split: Parallel Links when every branch shows the same
  // sequence of label stacks, Routers Disjoint otherwise.
  std::set<std::vector<std::vector<std::uint32_t>>> sequences;
  for (const Lsp& lsp : branches) {
    std::vector<std::vector<std::uint32_t>> sequence;
    for (const LsrHop& hop : lsp.lsrs) sequence.push_back(hop.labels);
    sequences.insert(sequence);
  }
  const MonoFecKind split = sequences.size() == 1
                                ? MonoFecKind::kParallelLinks
                                : MonoFecKind::kRoutersDisjoint;
  // Lines 12-14: the common IPs, addresses seen on >= 2 branches.
  std::map<net::Ipv4Addr, std::set<std::size_t>> branches_at;
  for (std::size_t b = 0; b < branches.size(); ++b) {
    for (const LsrHop& hop : branches[b].lsrs) branches_at[hop.addr].insert(b);
  }
  std::set<net::Ipv4Addr> common;
  for (const auto& [addr, seen] : branches_at) {
    if (seen.size() >= 2) common.insert(addr);
  }
  // Lines 16-18: no common IP. The Sec. 5 heuristic compares the labels of
  // every branch's last LSR; it cannot decide when a branch has none.
  if (common.empty()) {
    const bool decidable = std::ranges::none_of(
        branches, [](const Lsp& lsp) { return lsp.lsrs.empty(); });
    if (alias_heuristic && decidable) {
      std::set<std::vector<std::uint32_t>> last_labels;
      for (const Lsp& lsp : branches) last_labels.insert(lsp.lsrs.back().labels);
      out.by_alias_heuristic = true;
      if (last_labels.size() > 1) {
        out.tunnel_class = TunnelClass::kMultiFec;
      } else {
        out.tunnel_class = TunnelClass::kMonoFec;
        out.mono_fec_kind = split;
      }
    }
    return out;
  }
  // Lines 20-25: a common IP showing more than one (top) label.
  for (const net::Ipv4Addr addr : common) {
    std::set<std::uint32_t> labels;
    for (const Lsp& lsp : branches) {
      for (const LsrHop& hop : lsp.lsrs) {
        if (hop.addr == addr && !hop.labels.empty()) {
          labels.insert(hop.labels.front());
        }
      }
    }
    if (labels.size() > 1) {
      out.tunnel_class = TunnelClass::kMultiFec;
      return out;
    }
  }
  // Lines 26-28: one label at every common IP.
  out.tunnel_class = TunnelClass::kMonoFec;
  out.mono_fec_kind = split;
  return out;
}

// Every classified field of `got` against the reference on its branches.
inline void expect_same_classes(const std::vector<IotpRecord>& got,
                                bool alias_heuristic) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    const IotpRecord& rec = got[i];
    const Classified want = classify(rec.variants, alias_heuristic);
    EXPECT_EQ(std::tie(want.tunnel_class, want.mono_fec_kind,
                       want.by_alias_heuristic, want.length, want.width,
                       want.symmetry),
              std::tie(rec.tunnel_class, rec.mono_fec_kind,
                       rec.classified_by_alias_heuristic, rec.length,
                       rec.width, rec.symmetry))
        << "IOTP " << i << ": " << to_cstring(want.tunnel_class) << " vs "
        << to_cstring(rec.tunnel_class);
  }
}

// The six class tallies of a report, as (Mono-LSP, Multi-FEC, Mono-FEC,
// Unclassified, Parallel Links, Routers Disjoint).
using Tallies = std::array<std::uint64_t, 6>;
inline Tallies tallies_of(const ClassCounts& c) {
  return {c.mono_lsp,     c.multi_fec,      c.mono_fec,
          c.unclassified, c.parallel_links, c.routers_disjoint};
}
inline void count(Tallies& t, const Classified& c) {
  ++t[static_cast<std::size_t>(c.tunnel_class)];
  if (c.mono_fec_kind == MonoFecKind::kParallelLinks) ++t[4];
  if (c.mono_fec_kind == MonoFecKind::kRoutersDisjoint) ++t[5];
}

// A production report's global and per-AS tallies against the reference
// classes of the reference IOTPs.
inline void expect_same_tallies(const Result& want, const CycleReport& got,
                                bool alias_heuristic) {
  Tallies global{};
  std::map<std::uint32_t, Tallies> per_as;
  for (const IotpRecord& rec : want.iotps) {
    const Classified c = classify(rec.variants, alias_heuristic);
    count(global, c);
    count(per_as[rec.key.asn], c);
  }
  EXPECT_EQ(global, tallies_of(got.global));
  std::map<std::uint32_t, Tallies> got_per_as;
  for (const auto& [asn, counts] : got.per_as) {
    got_per_as[asn] = tallies_of(counts);
  }
  EXPECT_EQ(per_as, got_per_as);
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
