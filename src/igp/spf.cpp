#include "igp/spf.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

#include "obs/stage.h"
#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace mum::igp {

namespace {

struct QueueItem {
  std::uint32_t dist;
  topo::RouterId router;
  friend bool operator>(const QueueItem& a, const QueueItem& b) {
    return a.dist > b.dist;
  }
};

// IGP costs are small integers, so the pending Dijkstra frontier spans at
// most max_cost distinct distances: a cyclic bucket ("dial") queue settles
// routers in O(V + E + max_dist) with no heap. Above this cost bound the
// bucket ring would outgrow its benefit and we fall back to a binary heap.
inline constexpr std::uint32_t kMaxDialCost = 4096;

// Dijkstra via dial queue into `dist` (pre-filled with kUnreachable).
// Preconditions: 1 <= every arc cost <= max_cost. The bucket ring is
// thread_local worker scratch: reused across columns, never across threads,
// and drained when the queue empties.
void dijkstra_dial(const topo::CsrAdjacency& csr, topo::RouterId src,
                   const std::vector<bool>* down,
                   std::vector<std::uint32_t>& dist) {
  const std::uint32_t ring = csr.max_cost() + 1;
  thread_local std::vector<std::vector<topo::RouterId>> buckets;
  if (buckets.size() < ring) buckets.resize(ring);
  dist[src] = 0;
  buckets[0].push_back(src);
  std::size_t pending = 1;
  std::uint32_t cur = 0;
  while (pending > 0) {
    std::vector<topo::RouterId>& bucket = buckets[cur % ring];
    // Relaxations from distance `cur` land in (cur, cur + max_cost], never
    // back into this bucket, so draining it is safe.
    while (!bucket.empty()) {
      const topo::RouterId u = bucket.back();
      bucket.pop_back();
      --pending;
      if (dist[u] != cur) continue;  // stale entry, improved meanwhile
      for (const topo::CsrArc& arc : csr.out(u)) {
        if (down != nullptr && (*down)[arc.link]) continue;
        const std::uint32_t nd = cur + arc.cost;
        if (nd < dist[arc.to]) {
          dist[arc.to] = nd;
          buckets[nd % ring].push_back(arc.to);
          ++pending;
        }
      }
    }
    ++cur;
  }
}

void dijkstra_heap(const topo::CsrAdjacency& csr, topo::RouterId src,
                   const std::vector<bool>* down,
                   std::vector<std::uint32_t>& dist) {
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const topo::CsrArc& arc : csr.out(u)) {
      if (down != nullptr && (*down)[arc.link]) continue;
      const std::uint32_t nd = d + arc.cost;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        pq.push({nd, arc.to});
      }
    }
  }
}

topo::CsrAdjacency make_overlay_csr(const topo::AsTopology& topo,
                                    const LinkOverlay& overlay) {
  return overlay.cost.empty() ? topo.make_csr()
                              : topo.make_csr(&overlay.cost);
}

const std::vector<bool>* down_mask(const LinkOverlay& overlay) {
  return overlay.down.empty() ? nullptr : &overlay.down;
}

}  // namespace

void IgpState::solve_column(const topo::CsrAdjacency& csr,
                            topo::RouterId egress,
                            const std::vector<bool>* down,
                            EgressColumn& col) {
  const std::size_t n = csr.router_count();
  col.dist_.assign(n, kUnreachable);
  if (csr.max_cost() >= 1 && csr.max_cost() <= kMaxDialCost) {
    dijkstra_dial(csr, egress, down, col.dist_);
  } else {
    dijkstra_heap(csr, egress, down, col.dist_);
  }

  // Costs are symmetric, so dist_ is every router's distance TO the egress,
  // and an arc u->v starts a shortest path toward it iff it is up and
  // dist[v] + cost == dist[u]. CSR arcs are in ascending link order, which
  // is the next-hop order every reader (ecmp_pick indexes by position)
  // depends on. Hops gather in thread_local scratch, then land in an
  // exactly sized vector.
  thread_local std::vector<NextHop> nh;
  nh.clear();
  col.off_.resize(n + 1);
  const std::uint32_t* dist = col.dist_.data();
  for (topo::RouterId u = 0; u < n; ++u) {
    col.off_[u] = static_cast<std::uint32_t>(nh.size());
    const std::uint32_t du = dist[u];
    if (du == kUnreachable || u == egress) continue;
    for (const topo::CsrArc& arc : csr.out(u)) {
      if (down != nullptr && (*down)[arc.link]) continue;
      const std::uint32_t dv = dist[arc.to];
      if (dv != kUnreachable && dv + arc.cost == du) {
        nh.push_back(NextHop{arc.link, arc.to});
      }
    }
  }
  col.off_[n] = static_cast<std::uint32_t>(nh.size());
  col.nh_.assign(nh.begin(), nh.end());
}

const EgressColumn& IgpState::column(topo::RouterId egress) const {
  if (egress >= n_ || columns_[egress].dist_.empty()) {
    throw std::logic_error("igp: egress column " + std::to_string(egress) +
                           " is not held by this state");
  }
  return columns_[egress];
}

IgpState IgpState::compute(const topo::AsTopology& topo,
                           const LinkOverlay& overlay,
                           util::ThreadPool* pool) {
  // Call-site wall clock: nested per-column parallelism joins before the
  // span ends, so the duration covers the whole computation. The stage
  // span attributes it as SPF work of whichever cycle is current (no-op
  // during the initial internet build, which runs outside any cycle).
  const obs::StageSpan span(obs::Stage::kSpf);
  static obs::Counter& sources =
      obs::registry().counter("igp.spf_sources_computed");
  static obs::Counter& computes = obs::registry().counter("igp.computes");
  static obs::Histogram& duration =
      obs::registry().histogram("igp.compute_ns");
  const obs::ScopedTimer timer(duration);

  const topo::CsrAdjacency csr = make_overlay_csr(topo, overlay);
  const std::vector<bool>* down = down_mask(overlay);
  IgpState out;
  out.n_ = csr.router_count();
  out.columns_.resize(out.n_);
  util::parallel_for(pool, out.n_, [&](std::size_t e) {
    solve_column(csr, static_cast<topo::RouterId>(e), down, out.columns_[e]);
  });
  computes.inc();
  sources.add(out.n_);
  return out;
}

IgpState IgpState::reconverge(const topo::AsTopology& topo,
                              const IgpState& prev,
                              const LinkOverlay& prev_overlay,
                              const LinkOverlay& now_overlay,
                              std::span<const topo::RouterId> egresses,
                              ReconvergeStats* stats) {
  const obs::StageSpan span(obs::Stage::kSpf);
  static obs::Histogram& duration =
      obs::registry().histogram("igp.reconverge_ns");
  const obs::ScopedTimer timer(duration);

  // Effective per-link state transition across the overlay change.
  struct Change {
    topo::RouterId a, b;
    std::uint32_t was, now;  // kUnreachable = link absent
  };
  std::vector<Change> changes;
  for (const topo::Link& link : topo.links()) {
    const std::uint32_t was = prev_overlay.is_down(link.id)
                                  ? kUnreachable
                                  : prev_overlay.cost_of(link);
    const std::uint32_t now = now_overlay.is_down(link.id)
                                  ? kUnreachable
                                  : now_overlay.cost_of(link);
    if (was != now) changes.push_back(Change{link.a, link.b, was, now});
  }

  // A column is clean iff its previous state is still valid: no removed or
  // repriced link was tight under its old distances (case a), and no added
  // or cheapened link can reach an endpoint at <= its old distance (case
  // b — `<=` also catches new equal-cost ties joining an ECMP set).
  std::vector<std::uint8_t> rerun(egresses.size(), 0);
  std::size_t n_rerun = 0;
  for (std::size_t i = 0; i < egresses.size(); ++i) {
    const std::vector<std::uint32_t>& d = prev.column(egresses[i]).dist_;
    for (const Change& c : changes) {
      const std::uint32_t da = d[c.a];
      const std::uint32_t db = d[c.b];
      bool dirty = false;
      if (c.was != kUnreachable) {
        dirty = (da != kUnreachable && da + c.was == db) ||
                (db != kUnreachable && db + c.was == da);
      }
      if (!dirty && c.now != kUnreachable &&
          (c.was == kUnreachable || c.now < c.was)) {
        dirty = (da != kUnreachable && (db == kUnreachable || da + c.now <= db)) ||
                (db != kUnreachable && (da == kUnreachable || db + c.now <= da));
      }
      if (dirty) {
        rerun[i] = 1;
        ++n_rerun;
        break;
      }
    }
  }
  if (stats != nullptr) {
    stats->sources_total = prev.n_;
    stats->sources_recomputed = n_rerun;
  }

  IgpState out;
  out.n_ = prev.n_;
  out.columns_.resize(out.n_);
  const topo::CsrAdjacency csr = n_rerun > 0
                                     ? make_overlay_csr(topo, now_overlay)
                                     : topo::CsrAdjacency{};
  const std::vector<bool>* down = down_mask(now_overlay);
  for (std::size_t i = 0; i < egresses.size(); ++i) {
    const topo::RouterId e = egresses[i];
    if (rerun[i]) {
      solve_column(csr, e, down, out.columns_[e]);
    } else {
      out.columns_[e] = prev.columns_[e];
    }
  }
  return out;
}

std::uint64_t IgpState::path_count(topo::RouterId src, topo::RouterId dst,
                                   std::uint64_t cap) const {
  const EgressColumn& col = column(dst);
  if (src == dst) return 1;
  if (!col.reachable(src)) return 0;
  // Memoized DP over the next-hop DAG: memo[v] = min(#paths v->dst, cap).
  // kUnset must stay distinct from any legal value, so clamp cap below ~0.
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  cap = std::min(cap, kUnset - 1);
  std::vector<std::uint64_t> memo(n_, kUnset);
  memo[dst] = 1;

  // Iterative DFS (explicit stack) so deep DAGs cannot overflow the C stack.
  std::vector<topo::RouterId> stack{src};
  while (!stack.empty()) {
    const topo::RouterId v = stack.back();
    if (memo[v] != kUnset) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const NextHop& nh : col.nexthops(v)) {
      if (memo[nh.neighbor] == kUnset) {
        stack.push_back(nh.neighbor);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    std::uint64_t total = 0;
    for (const NextHop& nh : col.nexthops(v)) {
      const std::uint64_t c = memo[nh.neighbor];
      total = c >= cap - total ? cap : total + c;
      if (total >= cap) break;
    }
    memo[v] = total;
  }
  return memo[src];
}

}  // namespace mum::igp
