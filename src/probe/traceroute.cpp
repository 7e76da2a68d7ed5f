#include "probe/traceroute.h"

namespace mum::probe {

std::uint64_t paris_flow_id(const Monitor& monitor, net::Ipv4Addr dst) {
  // Src/dst addresses and the (per-destination) UDP source port Paris
  // traceroute derives from them; collapsing to a hash keeps ECMP decisions
  // deterministic per (monitor, destination).
  return util::hash_combine(monitor.addr.value(),
                            util::mix64(dst.value()));
}

void observe_walk_into(const Monitor& monitor, net::Ipv4Addr dst,
                       const TraceOptions& options, util::Rng& rng,
                       const WalkResult& walk, dataset::TraceBatch& out) {
  out.begin_trace(monitor.id, monitor.addr, dst);
  double cumulative_ms = 0.0;
  int ttl = 0;
  int gap = 0;  // consecutive anonymous hops (scamper-style gap limit)
  for (const HopRecord& hop : walk.hops) {
    cumulative_ms += hop.latency_ms;
    if (!hop.ttl_visible) continue;  // hidden LSR (no ttl-propagate)
    if (++ttl > options.max_ttl) break;

    // Whether the router answers traceroute at all is a per-trace policy
    // draw; transient reply loss is retried up to `attempts` times.
    bool answers = rng.chance(hop.response_prob);
    if (answers) {
      bool delivered = false;
      for (int attempt = 0; attempt < std::max(1, options.attempts);
           ++attempt) {
        if (!rng.chance(options.reply_loss)) {
          delivered = true;
          break;
        }
      }
      answers = delivered;
    }
    if (answers) {
      gap = 0;
      out.add_hop(hop.addr, 2.0 * cumulative_ms + rng.uniform01() * 0.4);
      if (hop.rfc4950) {  // RFC 4950: a quoting router exposes its stack
        for (const auto& lse : hop.labels.entries()) {
          out.add_label(lse.encode());
        }
      }
    } else {
      out.add_hop(net::kAnonymousAddr, 0.0);
      if (++gap >= options.gap_limit) {
        out.end_trace(false);  // give up: trace ends in stars
        return;
      }
    }
  }

  const bool reached = walk.reached && ttl < options.max_ttl;
  if (reached) {
    out.add_hop(dst, 2.0 * (cumulative_ms + 1.0) + rng.uniform01() * 0.4);
  }
  out.end_trace(reached);
}

}  // namespace mum::probe
