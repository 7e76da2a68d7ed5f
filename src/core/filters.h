// The LPR filtering stage (paper Sec. 3.1) — four filters applied in order
// after the Incomplete-LSP rejection already done at extraction:
//
//   IntraAS          per LSP   all LSP addresses in one AS
//   TargetAS         per LSP   trace destination outside the tunnel's AS
//   TransitDiversity per IOTP  IOTP must reach >= 2 distinct destination ASes
//   Persistence      per LSP   LSP of cycle X must reappear in one of the
//                              j following snapshots of the same month
//
// Plus the "dynamic AS" rule: when Persistence would wipe out (nearly) all
// LSPs of an AS, the whole set is reinjected and the AS is tagged dynamic —
// frequent label churn is itself a TE signal (Sec. 4.5), not noise.
//
// Persistence reads a following snapshot only as its PersistenceSet
// (extract.h): the sorted content hashes of its complete LSPs. The sets of
// X+1 ... X+j are merged into one sorted vector, and each surviving LSP is
// hashed once and looked up there. The filters track survivors as indices
// into the cycle snapshot and move only the final survivors out.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/extract.h"
#include "core/model.h"

namespace mum::lpr {

struct FilterConfig {
  // Number of subsequent snapshots consulted by Persistence (paper: j = 2).
  // Persistence runs iff j > 0 and at least one following set is given.
  int persistence_j = 2;
};

// Share of an AS's LSPs that must vanish for the AS to count as dynamic
// ("the vast majority"); reinjection then restores the whole set.
inline constexpr double kDynamicThreshold = 0.85;

// LSP counts surviving each stage (Table 1 numerators; the denominator is
// `observed`, i.e. the count before the Incomplete rejection).
struct FilterStats {
  std::uint64_t observed = 0;           // complete + incomplete
  std::uint64_t complete = 0;           // after Incomplete
  std::uint64_t after_intra_as = 0;
  std::uint64_t after_target_as = 0;
  std::uint64_t after_transit_diversity = 0;
  std::uint64_t after_persistence = 0;  // final (includes reinjected)
};

struct FilteredCycle {
  std::uint32_t cycle_id = 0;
  std::string date;
  ExtractStats extract;  // the cycle snapshot's, moved in by apply_filters
  // Survivors, moved out of the cycle snapshot in its order.
  std::vector<LspObservation> observations;
  std::vector<std::uint32_t> dynamic_asns;  // tagged by reinjection; sorted
  FilterStats stats;
};

// The second stage of the LPR back end (extract_month -> apply_filters ->
// classify_cycle, report.h): apply the full filter pipeline to the cycle
// snapshot of a month (taken by value: survivors move into the result, so
// callers that reuse a snapshot pass a copy). `following` holds the
// persistence sets of snapshots X+1 ... X+j of the same month (extract.h);
// entries beyond persistence_j are ignored. An LSP persists when it appears
// in at least one of them. With no following set (or j = 0) Persistence
// does not run: no AS is tagged dynamic and after_persistence equals
// after_transit_diversity.
FilteredCycle apply_filters(ExtractedSnapshot cycle,
                            std::span<const PersistenceSet> following,
                            const FilterConfig& config);

// Group filtered observations into IOTPs (variants deduplicated in order of
// first appearance and moved in, destination ASes accumulated), ordered by
// IotpKey. Classification runs on this.
std::vector<IotpRecord> group_iotps(std::vector<LspObservation> observations);

}  // namespace mum::lpr
