// IP-to-AS mapping service (the Routeviews role in the paper's pipeline).
//
// The generator emits the prefix->origin-AS table; this service wraps it in a
// longest-prefix-match trie and annotates a TraceBatch's per-hop and
// per-destination AS columns before LPR runs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataset/trace_batch.h"
#include "net/ipv4.h"
#include "net/radix_trie.h"

namespace mum::dataset {

inline constexpr std::uint32_t kUnknownAsn = 0;

class Ip2As;

// Open-addressing addr -> asn memo for columnar annotation. Key 0 never
// occurs (0.0.0.0 is the anonymous-hop sentinel, handled before lookup), so
// it marks empty slots. Persist one across snapshots — a campaign resolves
// the same interface addresses every cycle, and a warm cache turns trie
// descents into single-probe hash hits. A cache is only valid against the
// table that filled it; clear() when the table changes.
class AsnCache {
 public:
  AsnCache() : slots_(kInitialCap, 0) {}

  std::uint32_t get(std::uint32_t addr, const Ip2As& table) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing, high bits: generator addresses are structured
    // (blocks carved sequentially, hosts at fixed strides), so the low
    // product bits collide; the high bits mix every input bit.
    std::size_t i = (addr * 0x9E3779B9u) >> shift_;
    for (;;) {
      const std::uint64_t slot = slots_[i];
      const auto key = static_cast<std::uint32_t>(slot >> 32);
      if (key == addr) return static_cast<std::uint32_t>(slot);
      if (key == 0) break;
      i = (i + 1) & mask;
    }
    return miss(i, addr, table);
  }

  void clear() {
    slots_.assign(slots_.size(), 0);
    used_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCap = 1u << 12;
  static constexpr unsigned kInitialShift = 32 - 12;

  // Out-of-line: keeps the hit path small enough to inline at call sites.
  std::uint32_t miss(std::size_t slot_index, std::uint32_t addr,
                     const Ip2As& table);
  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t used_ = 0;
  unsigned shift_ = kInitialShift;
};

class Ip2As {
 public:
  void add_prefix(const net::Ipv4Prefix& prefix, std::uint32_t asn);

  // Longest-prefix-match origin lookup; kUnknownAsn when uncovered.
  std::uint32_t lookup(net::Ipv4Addr addr) const;

  // Fill a batch's dst_asn and hop_asn columns (anonymous hops map to
  // kUnknownAsn). Interface addresses repeat heavily across a snapshot (and
  // across snapshots of the same campaign), so lookups go through a flat
  // memo table instead of one trie descent per hop. Pass a persistent
  // AsnCache to keep the memo warm across snapshots; the cache-less overload
  // memoizes within the call only.
  void annotate(TraceBatch& batch) const;
  void annotate(TraceBatch& batch, AsnCache& cache) const;
  // Every block of the snapshot, through one memo.
  void annotate(SnapshotBatch& snapshot) const;
  void annotate(SnapshotBatch& snapshot, AsnCache& cache) const;

  std::size_t prefix_count() const noexcept { return trie_.size(); }
  std::vector<std::pair<net::Ipv4Prefix, std::uint32_t>> entries() const {
    return trie_.entries();
  }

 private:
  net::RadixTrie<std::uint32_t> trie_;
};

// Text form of the table: one "<prefix> <asn>" per line ('#' comments and
// blank lines allowed), the conventional pfx2as layout.
std::string to_table_text(const Ip2As& table);
// Parse a table; nullopt on the first malformed line.
std::optional<Ip2As> ip2as_from_text(std::string_view text);

}  // namespace mum::dataset
