// A monitor's probe plan: the month-invariant half of every probe it sends,
// routed once and kept for the whole campaign.
//
// Paris traceroute fixes the flow id per (monitor, destination), and the AS
// graph, peering points and destination attachments never change across
// cycles — so a probe's AS path, border routers, entry interfaces, edge hops
// and flow id are the same in every snapshot. Only the data plane each
// transit AS forwards with is per-month. The plan stores the invariant part
// as flat arrays (no vector per probe); a snapshot looks each segment's
// plane up by dense AS index in a table filled once per snapshot
// (MonthContext::plane_table) and walks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "probe/forwarder.h"
#include "topo/topology.h"

namespace mum::gen {

struct ProbePlan {
  // One modelled AS on a probe's route; `as_index` is ModeledAs::index.
  struct Segment {
    std::uint32_t as_index = 0;
    topo::RouterId ingress = topo::kInvalidRouter;
    topo::RouterId egress = topo::kInvalidRouter;
    net::Ipv4Addr entry_iface;
  };
  // One routed probe. Its edge hops and segments are the ranges of the
  // pools below that end at these offsets and start where the previous
  // probe's end (at 0 for the first probe).
  struct Probe {
    net::Ipv4Addr dst;
    bool dst_responds = true;
    std::uint64_t flow_id = 0;  // probe::paris_flow_id(monitor, dst)
    std::uint32_t pre_end = 0;
    std::uint32_t seg_end = 0;
    std::uint32_t post_end = 0;
  };

  // Campaign probe order; probes with no AS-level route are absent.
  std::vector<Probe> probes;
  std::vector<net::Ipv4Addr> pre_hops;
  std::vector<Segment> segments;
  std::vector<net::Ipv4Addr> post_hops;

  std::size_t size() const noexcept { return probes.size(); }

  // Probe `i` as a PathSpec, each segment's plane taken from `planes`
  // (indexed by as_index). Refills `out`, keeping its capacity. False when
  // an AS on the route has no data plane this month: the probe is not sent.
  bool resolve(std::size_t i,
               std::span<const probe::AsDataPlane* const> planes,
               probe::PathSpec& out) const {
    const Probe& p = probes[i];
    const Probe* prev = i > 0 ? &probes[i - 1] : nullptr;
    out.pre_hops.assign(pre_hops.begin() + (prev ? prev->pre_end : 0),
                        pre_hops.begin() + p.pre_end);
    out.post_hops.assign(post_hops.begin() + (prev ? prev->post_end : 0),
                         post_hops.begin() + p.post_end);
    out.segments.clear();
    for (std::uint32_t s = prev ? prev->seg_end : 0; s < p.seg_end; ++s) {
      const Segment& seg = segments[s];
      const probe::AsDataPlane* plane = planes[seg.as_index];
      if (plane == nullptr) return false;
      out.segments.push_back(probe::SegmentSpec{plane, seg.ingress,
                                                seg.egress, seg.entry_iface});
    }
    out.dst = p.dst;
    out.dst_responds = p.dst_responds;
    return true;
  }
};

}  // namespace mum::gen
