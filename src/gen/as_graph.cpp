#include "gen/as_graph.h"

#include <algorithm>
#include <deque>
#include <mutex>

namespace mum::gen {

void AsGraph::add_as(AsNode node) {
  index_.emplace(node.asn, nodes_.size());
  order_.push_back(node.asn);
  nodes_.push_back(std::move(node));
}

void AsGraph::add_provider_customer(std::uint32_t provider,
                                    std::uint32_t customer) {
  nodes_[index_of(provider)].customers.push_back(customer);
  nodes_[index_of(customer)].providers.push_back(provider);
  cache_.clear();
}

void AsGraph::add_peer_peer(std::uint32_t a, std::uint32_t b) {
  nodes_[index_of(a)].peers.push_back(b);
  nodes_[index_of(b)].peers.push_back(a);
  cache_.clear();
}

const AsNode& AsGraph::as_node(std::uint32_t asn) const {
  return nodes_[index_of(asn)];
}

bool AsGraph::contains(std::uint32_t asn) const {
  return index_.contains(asn);
}

const AsGraph::DestTables& AsGraph::tables_for(std::uint32_t dst) const {
  {
    std::shared_lock<std::shared_mutex> lock(cache_mutex_);
    const auto cached = cache_.find(dst);
    if (cached != cache_.end()) return cached->second;
  }
  // Compute outside the lock: concurrent misses on the same destination
  // redundantly compute identical tables; try_emplace keeps the first.

  const std::size_t n = nodes_.size();
  DestTables t;
  t.down.assign(n, kUnreach);
  t.peer.assign(n, kUnreach);
  t.up.assign(n, kUnreach);

  // 1. down[a]: a reaches dst by forwarding to a *customer* at every hop
  //    (i.e. dst sits somewhere below a in the customer cone). BFS upward
  //    from dst through provider edges.
  std::deque<std::size_t> queue;
  const std::size_t dst_idx = index_of(dst);
  t.down[dst_idx] = 0;
  queue.push_back(dst_idx);
  while (!queue.empty()) {
    const std::size_t c = queue.front();
    queue.pop_front();
    for (const std::uint32_t provider : nodes_[c].providers) {
      const std::size_t p = index_of(provider);
      if (t.down[p] == kUnreach) {
        t.down[p] = t.down[c] + 1;
        queue.push_back(p);
      }
    }
  }

  // 2. peer[a]: cross exactly one peer edge, then pure downhill.
  for (std::size_t a = 0; a < n; ++a) {
    for (const std::uint32_t q : nodes_[a].peers) {
      const std::size_t qi = index_of(q);
      if (t.down[qi] != kUnreach) {
        t.peer[a] = std::min(t.peer[a], t.down[qi] + 1);
      }
    }
  }

  // 3. up[a]: overall best = min(down, peer, 1 + up[provider]). The provider
  //    recursion is a shortest-path over provider edges with per-node base
  //    costs min(down, peer) — run a BFS-like relaxation (costs are +1).
  for (std::size_t a = 0; a < n; ++a) {
    t.up[a] = std::min(t.down[a], t.peer[a]);
  }
  // Dial-style relaxation: repeat until fixpoint (graph is small).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (const std::uint32_t provider : nodes_[a].providers) {
        const std::size_t p = index_of(provider);
        if (t.up[p] != kUnreach && t.up[p] + 1 < t.up[a]) {
          t.up[a] = t.up[p] + 1;
          changed = true;
        }
      }
    }
  }

  std::unique_lock<std::shared_mutex> lock(cache_mutex_);
  return cache_.try_emplace(dst, std::move(t)).first->second;
}

std::vector<std::uint32_t> AsGraph::route(std::uint32_t src,
                                          std::uint32_t dst) const {
  if (src == dst) return {src};
  const DestTables& t = tables_for(dst);

  std::vector<std::uint32_t> path{src};
  // Phase encodes where we are in the valley-free walk:
  // 0 = may still climb providers, 1 = peer edge used / descending only.
  int phase = 0;
  std::size_t at = index_of(src);
  while (nodes_[at].asn != dst) {
    if (path.size() > nodes_.size()) return {};  // safety: no route

    // Candidate next hops with the metric they would leave us with,
    // preferring customer > peer > provider on equal totals.
    std::size_t best_next = ~std::size_t{0};
    std::uint32_t best_metric = kUnreach;
    int best_pref = -1;
    int best_phase = phase;

    auto consider = [&](std::size_t next, std::uint32_t metric, int pref,
                        int next_phase) {
      if (metric == kUnreach) return;
      if (metric < best_metric ||
          (metric == best_metric && pref > best_pref) ||
          (metric == best_metric && pref == best_pref &&
           best_next != ~std::size_t{0} &&
           nodes_[next].asn < nodes_[best_next].asn)) {
        best_next = next;
        best_metric = metric;
        best_pref = pref;
        best_phase = next_phase;
      }
    };

    // Downhill (customer) steps are always allowed.
    for (const std::uint32_t c : nodes_[at].customers) {
      const std::size_t ci = index_of(c);
      consider(ci, t.down[ci], /*pref=*/2, /*next_phase=*/1);
    }
    if (phase == 0) {
      // One peer edge allowed, then strictly downhill.
      for (const std::uint32_t q : nodes_[at].peers) {
        const std::size_t qi = index_of(q);
        consider(qi, t.down[qi], /*pref=*/1, /*next_phase=*/1);
      }
      // Climbing to a provider keeps all options open.
      for (const std::uint32_t p : nodes_[at].providers) {
        const std::size_t pi = index_of(p);
        consider(pi, t.up[pi], /*pref=*/0, /*next_phase=*/0);
      }
    }

    if (best_next == ~std::size_t{0}) return {};  // unreachable
    at = best_next;
    phase = best_phase;
    path.push_back(nodes_[at].asn);
  }
  return path;
}

bool AsGraph::fully_connected() const {
  for (const std::uint32_t src : order_) {
    for (const std::uint32_t dst : order_) {
      if (src != dst && route(src, dst).empty()) return false;
    }
  }
  return true;
}

}  // namespace mum::gen
