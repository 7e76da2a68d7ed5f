// Test helpers bridging hand-written single-trace values (dataset::Trace)
// and the columnar snapshot form every library path consumes.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataset/trace.h"
#include "dataset/trace_batch.h"

namespace mum::testing {

// A snapshot holding `traces` in order (annotations included).
inline dataset::SnapshotBatch make_snapshot(
    const std::vector<dataset::Trace>& traces, std::uint32_t cycle_id = 0,
    std::uint32_t sub_index = 0, std::string date = "") {
  dataset::SnapshotBatch snap;
  snap.cycle_id = cycle_id;
  snap.sub_index = sub_index;
  snap.date = std::move(date);
  for (const dataset::Trace& trace : traces) snap.traces.append(trace);
  return snap;
}

// Every field of every trace, read through the views, equals `traces`.
// RTTs compare to within `rtt_tolerance` (0 = exact; wire forms quantize to
// microseconds).
inline void expect_views_match(const dataset::TraceBatch& batch,
                               const std::vector<dataset::Trace>& traces,
                               double rtt_tolerance = 0.0) {
  ASSERT_EQ(batch.trace_count(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const dataset::Trace& t = traces[i];
    const dataset::TraceView v = batch.view(i);
    EXPECT_EQ(v.monitor_id(), t.monitor_id);
    EXPECT_EQ(v.src(), t.src);
    EXPECT_EQ(v.dst(), t.dst);
    EXPECT_EQ(v.dst_asn(), t.dst_asn);
    EXPECT_EQ(v.reached(), t.reached);
    ASSERT_EQ(v.hop_count(), t.hops.size());
    for (std::size_t k = 0; k < t.hops.size(); ++k) {
      const dataset::TraceHop& hop = t.hops[k];
      const dataset::HopView hv = v.hop(k);
      EXPECT_EQ(hv.addr(), hop.addr);
      if (rtt_tolerance == 0.0) {
        EXPECT_DOUBLE_EQ(hv.rtt_ms(), hop.rtt_ms);
      } else {
        EXPECT_NEAR(hv.rtt_ms(), hop.rtt_ms, rtt_tolerance);
      }
      EXPECT_EQ(hv.asn(), hop.asn);
      EXPECT_EQ(hv.anonymous(), hop.anonymous());
      EXPECT_EQ(hv.label_depth(), hop.labels.depth());
      EXPECT_EQ(hv.labels(), hop.labels.labels());
      EXPECT_TRUE(hv.label_stack() == hop.labels);
    }
  }
}

}  // namespace mum::testing
