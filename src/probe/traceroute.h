// Paris-traceroute engine on top of the forwarding-plane walk.
//
// Paris traceroute keeps the flow identifier constant across TTLs for a given
// destination (so one trace sees one coherent path through ECMP), while
// different destinations naturally land on different ECMP branches — which is
// how Archipelago-style campaigns expose the branch structure of an IOTP.
//
// The engine also applies the observation model: anonymous routers (a router
// answers probes with probability Router::response_prob), RFC 4950 quoting,
// and hidden hops (ttl-propagate disabled => interior LSRs never expire the
// probe and vanish from the trace).
#pragma once

#include <cstdint>

#include "dataset/trace.h"
#include "dataset/trace_batch.h"
#include "probe/forwarder.h"
#include "util/rng.h"

namespace mum::probe {

// The measurement plane emits into dataset::TraceBatch; alias it into this
// namespace as the probe-side spelling (probe sits above dataset in the
// layering, so the type lives there).
using dataset::HopView;
using dataset::SnapshotBatch;
using dataset::TraceBatch;
using dataset::TraceView;

struct Monitor {
  std::uint32_t id = 0;
  net::Ipv4Addr addr;
  std::string name;
};

// Paris flow identifier for (monitor, destination): stable per destination,
// independent across destinations.
std::uint64_t paris_flow_id(const Monitor& monitor, net::Ipv4Addr dst);

struct TraceOptions {
  int max_ttl = 40;
  // Extra per-probe loss applied on top of router response probabilities
  // (ICMP rate limiting along the reverse path). Retried (see attempts).
  double reply_loss = 0.005;
  // Probes sent per TTL before declaring the hop anonymous (scamper default
  // is 2-3). Retries beat transient reply loss but NOT a router that does
  // not answer traceroute at all (Router::response_prob is a per-trace
  // policy draw, persistent across attempts).
  int attempts = 2;
  // Stop probing after this many consecutive anonymous hops (scamper's gap
  // limit): dead paths produce short traces, not max_ttl rows of '*'.
  int gap_limit = 6;
};

// Run one traceroute over a precomputed path. `rng` drives only the
// observation noise (anonymous hops, reply loss, RTT jitter) — forwarding
// itself is deterministic in the flow id.
dataset::Trace trace_route(const Monitor& monitor, const PathSpec& path,
                           const TraceOptions& options, util::Rng& rng);

// Observation model over an already-computed forwarding walk (trace_route
// == walk_path + observe_walk). Exposed so benches and oracle tests can
// separate the forwarding simulation from the measurement path proper.
dataset::Trace observe_walk(const Monitor& monitor, net::Ipv4Addr dst,
                            const TraceOptions& options, util::Rng& rng,
                            const WalkResult& walk);
// Batch form: the same RNG draw sequence (the two share one
// observation-model core), but the trace lands as columns appended to
// `out`, with no per-hop heap allocation. The campaign probe loop's sink.
void observe_walk_into(const Monitor& monitor, net::Ipv4Addr dst,
                       const TraceOptions& options, util::Rng& rng,
                       const WalkResult& walk, dataset::TraceBatch& out);

}  // namespace mum::probe
