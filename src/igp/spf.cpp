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
                   const std::vector<bool>* link_down,
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
        if (link_down != nullptr && (*link_down)[arc.link]) continue;
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
                   const std::vector<bool>* link_down,
                   std::vector<std::uint32_t>& dist) {
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const topo::CsrArc& arc : csr.out(u)) {
      if (link_down != nullptr && (*link_down)[arc.link]) continue;
      const std::uint32_t nd = d + arc.cost;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        pq.push({nd, arc.to});
      }
    }
  }
}

// Union of the transient down set and the overlay's down links, as the mask
// the column SPF consumes. Returns nullptr when nothing is down.
const std::vector<bool>* merge_down(const std::vector<bool>* link_down,
                                    const LinkOverlay* overlay,
                                    std::vector<bool>& scratch) {
  if (overlay == nullptr || overlay->down.empty()) return link_down;
  if (link_down == nullptr) return &overlay->down;
  scratch = *link_down;
  for (std::size_t l = 0; l < scratch.size(); ++l) {
    if (overlay->down[l]) scratch[l] = true;
  }
  return &scratch;
}

topo::CsrAdjacency make_overlay_csr(const topo::AsTopology& topo,
                                    const LinkOverlay* overlay) {
  return overlay != nullptr && !overlay->cost.empty()
             ? topo.make_csr(&overlay->cost)
             : topo.make_csr();
}

}  // namespace

void IgpState::solve_column(const topo::CsrAdjacency& csr,
                            topo::RouterId egress,
                            const std::vector<bool>* link_down,
                            EgressColumn& col) {
  const std::size_t n = csr.router_count();
  col.dist_.assign(n, kUnreachable);
  if (csr.max_cost() >= 1 && csr.max_cost() <= kMaxDialCost) {
    dijkstra_dial(csr, egress, link_down, col.dist_);
  } else {
    dijkstra_heap(csr, egress, link_down, col.dist_);
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
      if (link_down != nullptr && (*link_down)[arc.link]) continue;
      const std::uint32_t dv = dist[arc.to];
      if (dv != kUnreachable && dv + arc.cost == du) {
        nh.push_back(NextHop{arc.link, arc.to});
      }
    }
  }
  col.off_[n] = static_cast<std::uint32_t>(nh.size());
  col.nh_.assign(nh.begin(), nh.end());
}

void IgpState::solve_or_copy(const topo::AsTopology& topo,
                             const IgpState& prev,
                             std::span<const topo::RouterId> egresses,
                             const std::vector<std::uint8_t>& rerun,
                             const std::vector<bool>* link_down,
                             const LinkOverlay* overlay,
                             util::ThreadPool* pool) {
  const bool any =
      std::find(rerun.begin(), rerun.end(), 1) != rerun.end();
  const topo::CsrAdjacency csr =
      any ? make_overlay_csr(topo, overlay) : topo::CsrAdjacency{};
  util::parallel_for(pool, egresses.size(), [&](std::size_t i) {
    const topo::RouterId e = egresses[i];
    if (rerun[i]) {
      solve_column(csr, e, link_down, columns_[e]);
    } else {
      columns_[e] = prev.columns_[e];
    }
  });
}

const EgressColumn& IgpState::column(topo::RouterId egress) const {
  if (egress >= n_ || columns_[egress].dist_.empty()) {
    throw std::logic_error("igp: egress column " + std::to_string(egress) +
                           " is not held by this state");
  }
  return columns_[egress];
}

IgpState IgpState::compute(const topo::AsTopology& topo,
                           const std::vector<bool>* link_down,
                           util::ThreadPool* pool,
                           const LinkOverlay* overlay) {
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
  std::vector<bool> merged;
  const std::vector<bool>* mask = merge_down(link_down, overlay, merged);
  IgpState out;
  out.n_ = csr.router_count();
  out.columns_.resize(out.n_);
  util::parallel_for(pool, out.n_, [&](std::size_t e) {
    solve_column(csr, static_cast<topo::RouterId>(e), mask, out.columns_[e]);
  });
  computes.inc();
  sources.add(out.n_);
  return out;
}

IgpState IgpState::reconverge(const topo::AsTopology& topo,
                              const IgpState& baseline,
                              const std::vector<bool>& link_down,
                              std::span<const topo::RouterId> egresses,
                              util::ThreadPool* pool,
                              ReconvergeStats* stats,
                              const LinkOverlay* overlay) {
  const obs::StageSpan span(obs::Stage::kSpf);
  static obs::Counter& recomputed =
      obs::registry().counter("igp.reconverge_sources_recomputed");
  static obs::Counter& skipped =
      obs::registry().counter("igp.reconverge_sources_skipped");
  static obs::Counter& reconverges =
      obs::registry().counter("igp.reconverges");
  static obs::Histogram& duration =
      obs::registry().histogram("igp.reconverge_ns");
  const obs::ScopedTimer timer(duration);

  const std::size_t n = baseline.n_;
  struct Down {
    topo::RouterId a, b;
    std::uint32_t cost;
  };
  std::vector<Down> downed;
  for (topo::LinkId l = 0; l < link_down.size(); ++l) {
    if (!link_down[l]) continue;
    // Overlay-down links are already absent from the baseline; only the
    // transient failures on top of it can perturb baseline shortest paths.
    if (overlay != nullptr && overlay->is_down(l)) continue;
    const topo::Link& link = topo.link(l);
    const std::uint32_t cost =
        overlay != nullptr ? overlay->cost_of(link) : link.igp_cost;
    downed.push_back(Down{link.a, link.b, cost});
  }

  // A column is affected iff some downed link lies on one of its shortest
  // paths, i.e. is tight under its baseline distances in either direction.
  std::vector<std::uint8_t> rerun(egresses.size(), 0);
  std::size_t n_rerun = 0;
  for (std::size_t i = 0; i < egresses.size(); ++i) {
    const EgressColumn& base = baseline.column(egresses[i]);
    for (const Down& l : downed) {
      const std::uint32_t da = base.dist_[l.a];
      const std::uint32_t db = base.dist_[l.b];
      if ((da != kUnreachable && da + l.cost == db) ||
          (db != kUnreachable && db + l.cost == da)) {
        rerun[i] = 1;
        ++n_rerun;
        break;
      }
    }
  }
  if (stats != nullptr) {
    stats->sources_total = n;
    stats->sources_recomputed = n_rerun;
  }
  reconverges.inc();
  recomputed.add(n_rerun);
  skipped.add(n - n_rerun);

  IgpState out;
  out.n_ = n;
  out.columns_.resize(n);
  out.solve_or_copy(topo, baseline, egresses, rerun, &link_down, overlay,
                    pool);
  return out;
}

IgpState IgpState::reconverge_delta(const topo::AsTopology& topo,
                                    const IgpState& prev,
                                    const LinkOverlay& prev_overlay,
                                    const LinkOverlay& now_overlay,
                                    util::ThreadPool* pool,
                                    ReconvergeStats* stats) {
  const obs::StageSpan span(obs::Stage::kSpf);
  static obs::Counter& recomputed =
      obs::registry().counter("igp.delta_sources_recomputed");
  static obs::Counter& skipped =
      obs::registry().counter("igp.delta_sources_skipped");
  static obs::Counter& deltas = obs::registry().counter("igp.delta_reconverges");
  static obs::Histogram& duration =
      obs::registry().histogram("igp.delta_reconverge_ns");
  const obs::ScopedTimer timer(duration);

  const std::size_t n = prev.n_;
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
  std::vector<topo::RouterId> all(n);
  std::vector<std::uint8_t> rerun(n, 0);
  std::size_t n_rerun = 0;
  for (topo::RouterId e = 0; e < n; ++e) {
    all[e] = e;
    const std::vector<std::uint32_t>& d = prev.column(e).dist_;
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
        rerun[e] = 1;
        ++n_rerun;
        break;
      }
    }
  }
  if (stats != nullptr) {
    stats->sources_total = n;
    stats->sources_recomputed = n_rerun;
  }
  deltas.inc();
  recomputed.add(n_rerun);
  skipped.add(n - n_rerun);

  IgpState out;
  out.n_ = n;
  out.columns_.resize(n);
  out.solve_or_copy(topo, prev, all, rerun,
                    now_overlay.down.empty() ? nullptr : &now_overlay.down,
                    &now_overlay, pool);
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
