// Explicit-tunnel extraction (the "Filtering and formatting" front half of
// Fig. 3, up to and including the Incomplete-LSP rejection).
//
// An explicit tunnel is a maximal run of hops whose ICMP replies quote an
// RFC 4950 label stack. For each run we derive one LSP:
//
//   * Ingress LER  = the hop immediately before the run (the router that
//     pushed the stack replies before labels appear).
//   * Egress LER   = the hop immediately after the run when it maps to the
//     same AS (PHP popped the stack one hop early — the usual case), else the
//     last labeled hop itself (no PHP: the egress quotes its own label, and
//     the next hop already belongs to the neighbouring AS).
//
// A run is *incomplete* — and dropped, counted — when the run or either
// endpoint hop is anonymous, or when the run touches the ends of the trace.
//
// One run scanner (extract.cpp) implements these rules for both consumers:
// extract_lsps, which builds the cycle snapshot's observations, and
// persistence_set, which only hashes the runs of a following snapshot.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"

namespace mum::util {
class ThreadPool;
}

namespace mum::lpr {

// Flat open-addressing set of IPv4 addresses: the unique-address census
// behind ExtractStats and census_by_as. A power-of-two u32 slot array with
// linear probing, Fibonacci-hashed on the high bits; 0 (the anonymous '*'
// address, never a member) marks an empty slot. Grows by doubling at half
// load. A snapshot repeats each responding interface dozens of times, so
// this is one multiply and a probe or two per hop — no node allocation.
class AddrSet {
 public:
  explicit AddrSet(std::size_t min_capacity = 1024);

  // Insert a nonzero address; true when it was not yet a member.
  bool insert(std::uint32_t addr);
  bool contains(std::uint32_t addr) const noexcept;

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::size_t slot_of(std::uint32_t addr) const noexcept;
  void grow();

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 0;  // 32 - log2(capacity)
};

struct ExtractStats {
  std::uint64_t traces_total = 0;
  std::uint64_t traces_with_explicit_tunnel = 0;
  std::uint64_t lsps_observed = 0;    // complete + incomplete
  std::uint64_t lsps_incomplete = 0;  // dropped by the Incomplete filter
  // Unique responding addresses, split by MPLS involvement (Fig. 5(b)):
  // an address is "MPLS" when it ever appears inside a labeled run.
  std::uint64_t mpls_ips = 0;
  std::uint64_t non_mpls_ips = 0;

  // Deterministic accumulation: every counter is summed. The ip counters
  // are unique within each operand only, so summing operands that share
  // addresses (the snapshots of a month) overstates them. extract_lsps does
  // not merge a census this way: its trace chunks carry no ip counts, and
  // the disjoint address partitions add up to the exact census.
  ExtractStats& merge(const ExtractStats& other) noexcept;

  friend bool operator==(const ExtractStats&, const ExtractStats&) = default;
};

struct ExtractedSnapshot {
  std::uint32_t cycle_id = 0;
  std::uint32_t sub_index = 0;
  std::string date;
  std::vector<LspObservation> observations;
  ExtractStats stats;
};

// Extraction splits each block of a snapshot's traces into
// kExtractChunks / blocks contiguous ranges, at least one (fixed by the
// block count, so the split never depends on the thread count; the ranges
// concatenate in trace order): a decoded one-block snapshot into
// kExtractChunks ranges, a campaign snapshot into its monitor blocks. The
// address census splits into kCensusParts disjoint address partitions,
// each counted exactly by its own AddrSet pair.
inline constexpr std::size_t kExtractChunks = 16;
inline constexpr std::size_t kCensusParts = 4;

// Extract all complete explicit LSPs from an annotated snapshot, reading
// the batch columns. Traces must have been annotated with Ip2As first (hop
// ASNs are consumed here); the `ip2as` reference is used for endpoint
// resolution of unmapped destinations. With a pool, the trace chunks and
// census partitions run as one fan-out; the result is identical to the
// serial run, observation for observation and counter for counter.
ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as,
                               util::ThreadPool* pool = nullptr);

// What Persistence needs from a following snapshot: the sorted, unique
// content hashes (Lsp::content_hash) of its complete LSPs. Collisions are
// astronomically unlikely at our scales.
using PersistenceSet = std::vector<std::uint64_t>;

// Straight from the hop columns, through the same run scanner and hash
// routine as extract_lsps, without building an Lsp or a census: equal to
// persistence_set(extract_lsps(snapshot, ...)).
PersistenceSet persistence_set(const dataset::SnapshotBatch& snapshot);
// From already-extracted observations (hand-built lab inputs).
PersistenceSet persistence_set(const ExtractedSnapshot& snapshot);

// A month ready for the filters: the extracted cycle snapshot plus one
// PersistenceSet per following snapshot, in order.
struct ExtractedMonth {
  ExtractedSnapshot cycle;
  std::vector<PersistenceSet> following;
};

// The month's whole extraction as one pool job: every following snapshot's
// persistence_set, the cycle snapshot's census partitions and its trace
// chunks are the indices of a single parallel_for (a nested loop would run
// inline on its worker). Identical to the serial run at any thread count.
ExtractedMonth extract_month(const dataset::MonthData& month,
                             const dataset::Ip2As& ip2as,
                             util::ThreadPool* pool = nullptr);

// Per-AS unique-address census over one snapshot (Table 2 rows): for each
// ASN, how many distinct responding addresses were seen inside labeled runs
// (MPLS) vs outside (non-MPLS).
struct AsIpCensus {
  std::uint64_t mpls_ips = 0;
  std::uint64_t non_mpls_ips = 0;
};
std::unordered_map<std::uint32_t, AsIpCensus> census_by_as(
    const dataset::SnapshotBatch& snapshot);

}  // namespace mum::lpr
