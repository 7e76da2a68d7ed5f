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
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"

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

  // Deterministic accumulation across workers / snapshots: every counter is
  // summed. Note the ip counters are unique *within* each operand only —
  // merged totals over shards that may share addresses are upper bounds.
  ExtractStats& merge(const ExtractStats& other) noexcept;
};

struct ExtractedSnapshot {
  std::uint32_t cycle_id = 0;
  std::uint32_t sub_index = 0;
  std::string date;
  std::vector<LspObservation> observations;
  ExtractStats stats;
};

// Extract all complete explicit LSPs from an annotated snapshot, reading
// the batch columns through TraceView/HopView. Traces must have been
// annotated with Ip2As first (hop ASNs are consumed here); the `ip2as`
// reference is used for endpoint resolution of unmapped destinations.
ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as);

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
