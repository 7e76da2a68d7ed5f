#include "core/filters.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace mum::lpr {

namespace {

// The sorts below key an observation's IOTP as two words, (asn, ingress)
// and (egress, payload), so they compare integers; the order is IotpKey's.
std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) noexcept {
  return (std::uint64_t{hi} << 32) | lo;
}
using SortKey = std::pair<std::uint64_t, std::uint64_t>;
SortKey iotp_key(const Lsp& lsp, std::uint32_t payload) noexcept {
  return {pack(lsp.asn, lsp.ingress.value()),
          pack(lsp.egress.value(), payload)};
}
bool same_iotp(const SortKey& a, const SortKey& b) noexcept {
  return a.first == b.first && a.second >> 32 == b.second >> 32;
}

// Union of the sorted, unique sets: sorted and unique itself.
PersistenceSet merge_sets(std::span<const PersistenceSet> sets) {
  PersistenceSet merged;
  for (const PersistenceSet& set : sets) {
    PersistenceSet next;
    next.reserve(merged.size() + set.size());
    std::set_union(merged.begin(), merged.end(), set.begin(), set.end(),
                   std::back_inserter(next));
    merged = std::move(next);
  }
  return merged;
}

}  // namespace

FilteredCycle apply_filters(ExtractedSnapshot cycle,
                            std::span<const PersistenceSet> following,
                            const FilterConfig& config) {
  const std::vector<LspObservation>& all = cycle.observations;
  FilteredCycle out;
  out.cycle_id = cycle.cycle_id;
  out.date = std::move(cycle.date);
  out.extract = cycle.stats;
  out.stats.observed = cycle.stats.lsps_observed;
  out.stats.complete = all.size();

  // Survivors, as indices into `all` in observation order.
  std::vector<std::uint32_t> kept;
  kept.reserve(all.size());

  // --- IntraAS: extraction marked multi-AS runs with asn == 0. -----------
  for (std::uint32_t i = 0; i < all.size(); ++i) {
    if (all[i].lsp.asn != 0) kept.push_back(i);
  }
  out.stats.after_intra_as = kept.size();

  // --- TargetAS: destination must sit outside the tunnel's AS. -----------
  std::erase_if(kept, [&](std::uint32_t i) {
    return all[i].dst_asn == all[i].lsp.asn;
  });
  out.stats.after_target_as = kept.size();

  // --- TransitDiversity: IOTP must serve >= 2 destination ASes. ----------
  // Sorted (IOTP, destination AS) pairs: each IOTP is one stretch, and
  // it reaches >= 2 destination ASes when the stretch's ends differ.
  struct Entry {
    SortKey key;  // payload: the destination AS
    std::uint32_t index;
  };
  std::vector<Entry> entries;
  entries.reserve(kept.size());
  for (const std::uint32_t i : kept) {
    entries.push_back({iotp_key(all[i].lsp, all[i].dst_asn), i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  std::vector<char> diverse(all.size(), 0);
  for (std::size_t b = 0; b < entries.size();) {
    std::size_t e = b + 1;
    while (e < entries.size() && same_iotp(entries[b].key, entries[e].key)) {
      ++e;
    }
    if (entries[b].key != entries[e - 1].key) {
      for (std::size_t k = b; k < e; ++k) diverse[entries[k].index] = 1;
    }
    b = e;
  }
  std::erase_if(kept, [&](std::uint32_t i) { return !diverse[i]; });
  out.stats.after_transit_diversity = kept.size();

  // --- Persistence: reappear within the next j snapshots of the month. ---
  const std::size_t j = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.persistence_j, 0)),
      following.size());
  if (j > 0) {
    const PersistenceSet persistent = merge_sets(following.first(j));

    // Per-AS attrition as flat tallies over the survivors' sorted ASNs,
    // counted before anything is erased to detect dynamic ASes.
    std::vector<std::uint32_t> asns;
    asns.reserve(kept.size());
    for (const std::uint32_t i : kept) asns.push_back(all[i].lsp.asn);
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
    std::vector<std::uint64_t> total(asns.size(), 0);
    std::vector<std::uint64_t> still(asns.size(), 0);
    std::vector<std::uint32_t> slot(kept.size());
    std::vector<char> persists(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      const LspObservation& obs = all[kept[k]];
      slot[k] = static_cast<std::uint32_t>(
          std::lower_bound(asns.begin(), asns.end(), obs.lsp.asn) -
          asns.begin());
      persists[k] = std::binary_search(persistent.begin(), persistent.end(),
                                       obs.lsp.content_hash());
      ++total[slot[k]];
      if (persists[k]) ++still[slot[k]];
    }
    std::vector<char> dynamic(asns.size(), 0);
    for (std::size_t a = 0; a < asns.size(); ++a) {
      const double surviving =
          static_cast<double>(still[a]) / static_cast<double>(total[a]);
      // Reinjection applies when the filter deletes (essentially) the whole
      // set: churn that fast is label dynamics, not routing noise.
      if (surviving <= 1.0 - kDynamicThreshold) {
        dynamic[a] = 1;
        out.dynamic_asns.push_back(asns[a]);
      }
    }
    std::size_t n = 0;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (persists[k] || dynamic[slot[k]]) kept[n++] = kept[k];  // reinjected
    }
    kept.resize(n);
  }
  out.stats.after_persistence = kept.size();

  out.observations.reserve(kept.size());
  for (const std::uint32_t i : kept) {
    out.observations.push_back(std::move(cycle.observations[i]));
  }
  return out;
}

std::vector<IotpRecord> group_iotps(std::vector<LspObservation> observations) {
  // Sort (IOTP, position) pairs: each IOTP becomes one stretch, still in
  // observation order, so variants keep their first-appearance order.
  std::vector<SortKey> order;  // payload: the observation's position
  order.reserve(observations.size());
  for (std::uint32_t i = 0; i < observations.size(); ++i) {
    order.push_back(iotp_key(observations[i].lsp, i));
  }
  std::sort(order.begin(), order.end());
  const auto at = [&](std::size_t k) -> LspObservation& {
    return observations[static_cast<std::uint32_t>(order[k].second)];
  };

  std::vector<IotpRecord> out;
  for (std::size_t b = 0; b < order.size();) {
    IotpRecord& rec = out.emplace_back();
    rec.key = {at(b).lsp.asn, at(b).lsp.ingress, at(b).lsp.egress};
    std::size_t e = b;
    for (; e < order.size() && same_iotp(order[b], order[e]); ++e) {
      LspObservation& obs = at(e);
      rec.dst_asns.push_back(obs.dst_asn);
      if (std::find(rec.variants.begin(), rec.variants.end(), obs.lsp) ==
          rec.variants.end()) {
        rec.variants.push_back(std::move(obs.lsp));
      }
    }
    // Normalize the appended destination list (sorted + deduplicated).
    std::sort(rec.dst_asns.begin(), rec.dst_asns.end());
    rec.dst_asns.erase(
        std::unique(rec.dst_asns.begin(), rec.dst_asns.end()),
        rec.dst_asns.end());
    b = e;
  }
  return out;
}

}  // namespace mum::lpr
