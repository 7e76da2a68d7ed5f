#include "igp/spf.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/stage.h"
#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace mum::igp {

namespace {

// IGP costs are small integers, so the pending Dijkstra frontier spans at
// most max_cost distinct distances: a cyclic bucket ("dial") queue settles
// routers in O(V + E + max_dist) with no heap. Above this cost bound the
// bucket ring would outgrow its benefit and we fall back to a binary heap.
inline constexpr std::uint32_t kMaxDialCost = 4096;

// The one pass over a router's arcs, run when it settles. Arcs cost >= 1
// (`AsTopology::add_link`), so when `u` settles at `cur` every neighbour
// closer to the source is final: the scan relaxes the arcs and records the
// tight ones (dist[v] + cost == cur), in ascending link-id order, into u's
// own arc range of `slots`, and their number into `count[u]`.
struct Settler {
  const topo::CsrAdjacency& csr;
  std::uint32_t* dist;
  std::uint32_t* count;
  NextHop* slots;

  template <typename Push>
  void settle(topo::RouterId u, std::uint32_t cur, Push&& push) const {
    NextHop* const hops = slots + csr.arc_offset(u);
    std::uint32_t k = 0;
    for (const topo::CsrArc& arc : csr.out(u)) {
      const std::uint32_t nd = cur + arc.cost;
      const std::uint32_t dv = dist[arc.to];
      if (nd < dv) {
        dist[arc.to] = nd;
        push(nd, arc.to);
      }
      // Branch-free: every arc is written, only a tight one is kept. The
      // 64-bit sum keeps an unreached dv (kUnreachable) from wrapping.
      hops[k] = NextHop{arc.link, arc.to};
      k += std::uint64_t{dv} + arc.cost == cur;
    }
    count[u] = k;
  }
};

// Dijkstra via dial queue. The ring is max_cost + 1 rounded up to a power
// of two, so a bucket index is a mask. The buckets are thread_local worker
// scratch: reused across columns, never across threads, and drained when
// the queue empties.
void dijkstra_dial(const Settler& s, topo::RouterId src) {
  const std::uint32_t mask = std::bit_ceil(s.csr.max_cost() + 1) - 1;
  thread_local std::vector<std::vector<topo::RouterId>> buckets;
  if (buckets.size() <= mask) buckets.resize(mask + 1);
  s.dist[src] = 0;
  buckets[0].push_back(src);
  std::size_t pending = 1;
  const auto push = [&](std::uint32_t d, topo::RouterId v) {
    buckets[d & mask].push_back(v);
    ++pending;
  };
  for (std::uint32_t cur = 0; pending > 0; ++cur) {
    std::vector<topo::RouterId>& bucket = buckets[cur & mask];
    // Relaxations from distance `cur` land in (cur, cur + max_cost], never
    // back into this bucket, so draining it is safe.
    while (!bucket.empty()) {
      const topo::RouterId u = bucket.back();
      bucket.pop_back();
      --pending;
      if (s.dist[u] == cur) s.settle(u, cur, push);  // else stale
    }
  }
}

void dijkstra_heap(const Settler& s, topo::RouterId src) {
  using Item = std::pair<std::uint32_t, topo::RouterId>;  // (dist, router)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  s.dist[src] = 0;
  pq.push({0, src});
  const auto push = [&](std::uint32_t d, topo::RouterId v) {
    pq.push({d, v});
  };
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d == s.dist[u]) s.settle(u, d, push);  // else stale
  }
}

}  // namespace

void IgpState::solve_column(const topo::CsrAdjacency& csr,
                            topo::RouterId egress, EgressColumn& col) {
  // Costs are symmetric: the Dijkstra from the egress yields distances TO
  // it, and its tight arcs are next hops toward it. Hops land in
  // thread_local slots by arc index, counts in off_; the prefix pass below
  // compacts them in router order into an exactly sized vector.
  const std::size_t n = csr.router_count();
  col.dist_.assign(n, kUnreachable);
  col.off_.assign(n + 1, 0);
  thread_local std::vector<NextHop> slots;
  if (slots.size() < csr.arc_count()) slots.resize(csr.arc_count());
  const Settler settler{csr, col.dist_.data(), col.off_.data(), slots.data()};
  if (csr.max_cost() <= kMaxDialCost) {
    dijkstra_dial(settler, egress);
  } else {
    dijkstra_heap(settler, egress);
  }
  std::exclusive_scan(col.off_.begin(), col.off_.end(), col.off_.begin(),
                      std::uint32_t{0});
  col.nh_.resize(col.off_[n]);
  for (topo::RouterId u = 0; u < n; ++u) {
    std::copy_n(slots.data() + csr.arc_offset(u), col.off_[u + 1] - col.off_[u],
                col.nh_.data() + col.off_[u]);
  }
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

  const topo::CsrAdjacency csr = topo.make_csr(overlay.cost, overlay.down);
  IgpState out;
  out.n_ = csr.router_count();
  out.columns_.resize(out.n_);
  util::parallel_for(pool, out.n_, [&](std::size_t e) {
    solve_column(csr, static_cast<topo::RouterId>(e), out.columns_[e]);
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
  const topo::CsrAdjacency csr =
      n_rerun > 0 ? topo.make_csr(now_overlay.cost, now_overlay.down)
                  : topo::CsrAdjacency{};
  for (std::size_t i = 0; i < egresses.size(); ++i) {
    const topo::RouterId e = egresses[i];
    if (rerun[i]) {
      solve_column(csr, e, out.columns_[e]);
    } else {
      out.columns_[e] = prev.columns_[e];
    }
  }
  return out;
}

}  // namespace mum::igp
