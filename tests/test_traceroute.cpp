#include "probe/traceroute.h"

#include <gtest/gtest.h>

#include "batch_testing.h"
#include "mpls/ldp.h"

namespace mum::probe {
namespace {

using dataset::TraceBatch;
using dataset::TraceView;
using topo::RouterId;
using topo::Vendor;

net::Ipv4Addr ip(std::uint32_t v) { return net::Ipv4Addr(v); }

// Line AS: a - b - c with LDP, PHP.
struct TraceFixture {
  TraceFixture() : topo(65001) {
    a = topo.add_router(ip(0x10000001), Vendor::kCisco, true);
    b = topo.add_router(ip(0x10000002), Vendor::kCisco, false);
    c = topo.add_router(ip(0x10000003), Vendor::kCisco, true);
    topo.add_link(a, b, ip(0x10010001), ip(0x10010002), 1);
    topo.add_link(b, c, ip(0x10010003), ip(0x10010004), 1);
    igp = igp::IgpState::compute(topo);
    for (std::size_t i = 0; i < topo.router_count(); ++i) {
      pools.emplace_back(Vendor::kCisco);
    }
    ldp = mpls::LdpPlane::build(topo, igp, {}, pools);
    plane.asn = 65001;
    plane.topo = &topo;
    plane.igp = &igp;
    plane.ldp = &*ldp;

    monitor.id = 3;
    monitor.addr = ip(0x30000001);
  }

  PathSpec path() const {
    PathSpec p;
    p.pre_hops = {ip(0x30000002)};
    SegmentSpec seg;
    seg.plane = &plane;
    seg.ingress = a;
    seg.egress = c;
    seg.entry_iface = ip(0x10020000);
    p.segments.push_back(seg);
    p.post_hops = {ip(0x40000001)};
    p.dst = ip(0x40000002);
    return p;
  }

  // One traceroute over `p`, appended to `traces`; returns its view.
  TraceView trace(const PathSpec& p, const TraceOptions& options,
                  util::Rng& rng) {
    testing::trace_into(monitor, p, options, rng, traces);
    return traces.view(traces.trace_count() - 1);
  }

  topo::AsTopology topo;
  igp::IgpState igp;
  std::vector<mpls::LabelPool> pools;
  std::optional<mpls::LdpPlane> ldp;
  AsDataPlane plane;
  Monitor monitor;
  RouterId a, b, c;
  TraceBatch traces;
};

TEST(ParisFlowId, StablePerDestination) {
  Monitor m;
  m.addr = ip(1);
  EXPECT_EQ(paris_flow_id(m, ip(100)), paris_flow_id(m, ip(100)));
  EXPECT_NE(paris_flow_id(m, ip(100)), paris_flow_id(m, ip(101)));
}

TEST(ParisFlowId, DiffersAcrossMonitors) {
  Monitor m1, m2;
  m1.addr = ip(1);
  m2.addr = ip(2);
  EXPECT_NE(paris_flow_id(m1, ip(100)), paris_flow_id(m2, ip(100)));
}

TEST(TraceRoute, FullCleanTrace) {
  TraceFixture f;
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng rng(1);
  const TraceView trace = f.trace(f.path(), options, rng);

  EXPECT_EQ(trace.monitor_id(), 3u);
  EXPECT_EQ(trace.src(), f.monitor.addr);
  EXPECT_EQ(trace.dst(), ip(0x40000002));
  EXPECT_TRUE(trace.reached());
  // pre(1) + entry + interior + egress + post(1) + destination = 6 hops.
  ASSERT_EQ(trace.hop_count(), 6u);
  EXPECT_EQ(trace.hop(0).addr(), ip(0x30000002));
  EXPECT_EQ(trace.hop(1).addr(), ip(0x10020000));
  EXPECT_TRUE(trace.hop(2).has_labels());   // the single interior LSR
  EXPECT_FALSE(trace.hop(3).has_labels());  // PHP at egress
  EXPECT_EQ(trace.hop(5).addr(), trace.dst());
}

TEST(TraceRoute, RttsMonotonicallyIncrease) {
  TraceFixture f;
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng rng(2);
  const TraceView trace = f.trace(f.path(), options, rng);
  double prev = 0.0;
  for (std::size_t k = 0; k < trace.hop_count(); ++k) {
    ASSERT_FALSE(trace.hop(k).anonymous());
    EXPECT_GT(trace.hop(k).rtt_ms(), prev - 0.5);  // tolerates jitter
    prev = trace.hop(k).rtt_ms();
  }
}

TEST(TraceRoute, AnonymousRouterProducesStarHop) {
  TraceFixture f;
  f.topo.router(f.b).response_prob = 0.0;  // b never answers
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng rng(3);
  const TraceView trace = f.trace(f.path(), options, rng);
  ASSERT_EQ(trace.hop_count(), 6u);
  EXPECT_TRUE(trace.hop(2).anonymous());
  EXPECT_FALSE(trace.hop(2).has_labels());  // no reply => no quoted stack
}

TEST(TraceRoute, Rfc4950OffSuppressesLabelsNotHops) {
  TraceFixture f;
  f.plane.rfc4950 = false;
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng rng(4);
  const TraceView trace = f.trace(f.path(), options, rng);
  ASSERT_EQ(trace.hop_count(), 6u);
  EXPECT_FALSE(trace.hop(2).anonymous());   // hop responds...
  EXPECT_FALSE(trace.hop(2).has_labels());  // ...but quotes nothing
  EXPECT_FALSE(trace.crosses_explicit_tunnel());
}

TEST(TraceRoute, TtlPropagateOffShortensTrace) {
  TraceFixture f;
  f.plane.ttl_propagate = false;
  TraceOptions options;
  options.reply_loss = 0.0;
  util::Rng rng(5);
  const TraceView trace = f.trace(f.path(), options, rng);
  // Interior LSR invisible: pre + entry + egress + post + dst = 5 hops.
  ASSERT_EQ(trace.hop_count(), 5u);
  EXPECT_FALSE(trace.crosses_explicit_tunnel());
}

TEST(TraceRoute, MaxTtlTruncates) {
  TraceFixture f;
  TraceOptions options;
  options.max_ttl = 2;
  options.reply_loss = 0.0;
  util::Rng rng(6);
  const TraceView trace = f.trace(f.path(), options, rng);
  EXPECT_EQ(trace.hop_count(), 2u);
  EXPECT_FALSE(trace.reached());
}

TEST(TraceRoute, ReplyLossCreatesAnonymousHops) {
  TraceFixture f;
  TraceOptions options;
  options.reply_loss = 1.0;  // everything lost
  util::Rng rng(7);
  const TraceView trace = f.trace(f.path(), options, rng);
  for (std::size_t i = 0; i + 1 < trace.hop_count(); ++i) {
    EXPECT_TRUE(trace.hop(i).anonymous());
  }
}

TEST(TraceRoute, RetriesBeatTransientReplyLoss) {
  // With heavy transient loss and generous attempts, nearly every hop
  // should still answer (routers ARE willing to respond).
  TraceFixture f;
  TraceOptions options;
  options.reply_loss = 0.5;
  options.attempts = 12;
  util::Rng rng(8);
  int anonymous = 0, total = 0;
  for (int i = 0; i < 40; ++i) {
    const TraceView trace = f.trace(f.path(), options, rng);
    for (std::size_t k = 0; k < trace.hop_count(); ++k) {
      ++total;
      anonymous += trace.hop(k).anonymous() ? 1 : 0;
    }
  }
  EXPECT_LT(anonymous, total / 20);
}

TEST(TraceRoute, RetriesDoNotBeatUnresponsiveRouters) {
  // response_prob is a per-trace policy, not a transient: retries must not
  // resurrect a router that does not answer traceroute.
  TraceFixture f;
  f.topo.router(f.b).response_prob = 0.0;
  TraceOptions options;
  options.reply_loss = 0.0;
  options.attempts = 10;
  util::Rng rng(9);
  const TraceView trace = f.trace(f.path(), options, rng);
  ASSERT_GE(trace.hop_count(), 3u);
  EXPECT_TRUE(trace.hop(2).anonymous());
}

TEST(TraceRoute, GapLimitTruncatesDeadPaths) {
  TraceFixture f;
  // Every router silent: with gap_limit 3 the trace stops after 3 stars
  // instead of probing all hops.
  for (topo::RouterId r = 0; r < f.topo.router_count(); ++r) {
    f.topo.router(r).response_prob = 0.0;
  }
  TraceOptions options;
  options.reply_loss = 0.0;
  options.gap_limit = 3;
  util::Rng rng(10);
  PathSpec p = f.path();
  p.pre_hops.clear();          // pre-hops always answer; drop them
  const TraceView trace = f.trace(p, options, rng);
  EXPECT_EQ(trace.hop_count(), 3u);
  EXPECT_FALSE(trace.reached());
  for (std::size_t k = 0; k < trace.hop_count(); ++k) {
    EXPECT_TRUE(trace.hop(k).anonymous());
  }
}

TEST(TraceRoute, ObservationNoiseDoesNotChangeForwarding) {
  // Two traces with different observation RNG streams must reveal the same
  // addresses (forwarding is flow-deterministic); only anonymity may differ.
  TraceFixture f;
  TraceOptions options;
  options.reply_loss = 0.3;
  util::Rng rng1(100), rng2(200);
  const TraceView t1 = f.trace(f.path(), options, rng1);
  const TraceView t2 = f.trace(f.path(), options, rng2);
  ASSERT_EQ(t1.hop_count(), t2.hop_count());
  for (std::size_t i = 0; i < t1.hop_count(); ++i) {
    if (!t1.hop(i).anonymous() && !t2.hop(i).anonymous()) {
      EXPECT_EQ(t1.hop(i).addr(), t2.hop(i).addr());
    }
  }
}

}  // namespace
}  // namespace mum::probe
