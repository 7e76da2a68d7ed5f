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

#include "dataset/trace_batch.h"
#include "probe/forwarder.h"
#include "util/rng.h"

namespace mum::probe {

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

// Observation model over an already-computed forwarding walk (a traceroute
// is walk_path + observe_walk_into). `rng` drives only the observation
// noise (anonymous hops, reply loss, RTT jitter): forwarding itself is
// deterministic in the flow id. The trace lands as columns appended to
// `out`, with no per-hop heap allocation; this is the campaign probe loop.
void observe_walk_into(const Monitor& monitor, net::Ipv4Addr dst,
                       const TraceOptions& options, util::Rng& rng,
                       const WalkResult& walk, dataset::TraceBatch& out);

}  // namespace mum::probe
