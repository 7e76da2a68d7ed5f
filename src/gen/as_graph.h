// AS-level internet model: tiers, business relationships, and valley-free
// (Gao-Rexford) route selection. This is the substrate that decides which
// transit ASes — and therefore which MPLS domains — a probe crosses.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"

namespace mum::gen {

enum class AsTier : std::uint8_t { kTier1, kTransit, kStub };

struct AsNode {
  std::uint32_t asn = 0;
  AsTier tier = AsTier::kStub;
  net::Ipv4Prefix block;       // address block the AS originates
  bool modeled = false;        // has a router-level topology
  std::string name;

  // Adjacency (filled by AsGraph).
  std::vector<std::uint32_t> providers;
  std::vector<std::uint32_t> customers;
  std::vector<std::uint32_t> peers;
};

class AsGraph {
 public:
  AsGraph() = default;
  // Movable despite the cache mutex: moving is a mutation, so it must not
  // race with concurrent route() calls anyway — the mutex itself stays put.
  AsGraph(AsGraph&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        order_(std::move(other.order_)),
        index_(std::move(other.index_)),
        cache_(std::move(other.cache_)) {}
  AsGraph& operator=(AsGraph&& other) noexcept {
    nodes_ = std::move(other.nodes_);
    order_ = std::move(other.order_);
    index_ = std::move(other.index_);
    cache_ = std::move(other.cache_);
    return *this;
  }

  // Adds a node; ASN must be unique.
  void add_as(AsNode node);
  // Relationship edges (no duplicate checking; caller ensures sanity).
  void add_provider_customer(std::uint32_t provider, std::uint32_t customer);
  void add_peer_peer(std::uint32_t a, std::uint32_t b);

  const AsNode& as_node(std::uint32_t asn) const;
  bool contains(std::uint32_t asn) const;
  const std::vector<std::uint32_t>& asns() const noexcept { return order_; }
  std::size_t size() const noexcept { return order_.size(); }

  // Valley-free AS path from src to dst (inclusive); empty when unreachable.
  // Preference: customer route > peer route > provider route, then shortest,
  // then lowest-ASN tie-break — memoized per destination. Safe to call
  // concurrently (the memo cache is lock-guarded); mutation via add_* must
  // not race with route().
  std::vector<std::uint32_t> route(std::uint32_t src, std::uint32_t dst) const;

  // True when every AS can reach every other AS.
  bool fully_connected() const;

 private:
  struct DestTables {
    // Path lengths per route type; kUnreach when impossible.
    std::vector<std::uint32_t> down;  // pure customer chain (downhill)
    std::vector<std::uint32_t> peer;  // one peer edge then downhill
    std::vector<std::uint32_t> up;    // best overall (may climb providers)
  };
  static constexpr std::uint32_t kUnreach = ~std::uint32_t{0};

  const DestTables& tables_for(std::uint32_t dst) const;
  std::size_t index_of(std::uint32_t asn) const { return index_.at(asn); }

  std::vector<AsNode> nodes_;
  std::vector<std::uint32_t> order_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
  mutable std::shared_mutex cache_mutex_;
  mutable std::unordered_map<std::uint32_t, DestTables> cache_;
};

}  // namespace mum::gen
