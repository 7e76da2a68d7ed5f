// Test helpers for the columnar trace form every library path consumes:
// hand-written lab traces appended through the TraceBatch protocol, one
// traceroute into a batch, and a column-by-column comparison of two batches
// or snapshots. The SnapshotBatch overloads append into the snapshot's
// last block, made on first use.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dataset/trace_batch.h"
#include "net/lse.h"
#include "probe/traceroute.h"

namespace mum::testing {

// One hand-written hop: addr 0 is an anonymous hop ('*'); `labels` is the
// quoted stack, top first.
struct Hop {
  std::uint32_t addr = 0;
  net::LabelStack labels = {};
  double rtt_ms = 1.0;
};

inline Hop plain(std::uint32_t addr) { return {addr}; }
// A hop quoting a one-entry stack (TC 0, TTL 1).
inline Hop labeled(std::uint32_t addr, std::uint32_t label) {
  Hop hop{addr};
  hop.labels.push(label, 0, 1);
  return hop;
}
inline Hop anonymous() { return {0, {}, 0.0}; }

// The per-trace fields of a hand-written trace.
struct TraceHead {
  std::uint32_t monitor_id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  bool reached = true;
};

// Append one trace through begin_trace / add_hop / add_label / end_trace.
inline void add_trace(dataset::TraceBatch& batch, const TraceHead& head,
                      const std::vector<Hop>& hops) {
  batch.begin_trace(head.monitor_id, net::Ipv4Addr(head.src),
                    net::Ipv4Addr(head.dst));
  for (const Hop& hop : hops) {
    batch.add_hop(net::Ipv4Addr(hop.addr), hop.rtt_ms);
    for (const auto& lse : hop.labels.entries()) batch.add_label(lse.encode());
  }
  batch.end_trace(head.reached);
}

inline dataset::TraceBatch& last_block(dataset::SnapshotBatch& snap) {
  if (snap.blocks.empty()) snap.blocks.emplace_back();
  return snap.blocks.back();
}

inline void add_trace(dataset::SnapshotBatch& snap, const TraceHead& head,
                      const std::vector<Hop>& hops) {
  add_trace(last_block(snap), head, hops);
}

// One traceroute over `path` into `out`: walk_path + observe_walk_into.
inline void trace_into(const probe::Monitor& monitor,
                       const probe::PathSpec& path,
                       const probe::TraceOptions& options, util::Rng& rng,
                       dataset::TraceBatch& out) {
  const probe::WalkResult walk =
      probe::walk_path(path, probe::paris_flow_id(monitor, path.dst));
  probe::observe_walk_into(monitor, path.dst, options, rng, walk, out);
}

inline void trace_into(const probe::Monitor& monitor,
                       const probe::PathSpec& path,
                       const probe::TraceOptions& options, util::Rng& rng,
                       dataset::SnapshotBatch& out) {
  trace_into(monitor, path, options, rng, last_block(out));
}

// Every column field of every trace of `a` equals `b`'s, in trace order:
// monitor, src, dst, dst_asn, reached, and per hop addr, rtt, asn and the
// quoted LSE words. Either side is a TraceBatch or a SnapshotBatch (where
// its block boundaries fall does not matter). RTTs compare to within
// `rtt_tolerance` (0 = exact; wire forms quantize to microseconds).
template <class A, class B>
void expect_batches_equal(const A& a, const B& b, double rtt_tolerance = 0.0) {
  ASSERT_EQ(a.trace_count(), b.trace_count());
  auto next_b = b.begin();
  std::size_t i = 0;
  for (const dataset::TraceView ta : a) {
    SCOPED_TRACE("trace " + std::to_string(i++));
    const dataset::TraceView tb = *next_b;
    ++next_b;
    EXPECT_EQ(ta.monitor_id(), tb.monitor_id());
    EXPECT_EQ(ta.src(), tb.src());
    EXPECT_EQ(ta.dst(), tb.dst());
    EXPECT_EQ(ta.dst_asn(), tb.dst_asn());
    EXPECT_EQ(ta.reached(), tb.reached());
    ASSERT_EQ(ta.hop_count(), tb.hop_count());
    for (std::size_t k = 0; k < ta.hop_count(); ++k) {
      SCOPED_TRACE("hop " + std::to_string(k));
      const dataset::HopView ha = ta.hop(k);
      const dataset::HopView hb = tb.hop(k);
      EXPECT_EQ(ha.addr(), hb.addr());
      EXPECT_NEAR(ha.rtt_ms(), hb.rtt_ms(), rtt_tolerance);
      EXPECT_EQ(ha.asn(), hb.asn());
      const auto wa = ha.lse_words();
      const auto wb = hb.lse_words();
      EXPECT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
    }
  }
}

}  // namespace mum::testing
