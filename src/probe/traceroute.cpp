#include "probe/traceroute.h"

namespace mum::probe {

std::uint64_t paris_flow_id(const Monitor& monitor, net::Ipv4Addr dst) {
  // Src/dst addresses and the (per-destination) UDP source port Paris
  // traceroute derives from them; collapsing to a hash keeps ECMP decisions
  // deterministic per (monitor, destination).
  return util::hash_combine(monitor.addr.value(),
                            util::mix64(dst.value()));
}

namespace {

// The observation model, shared verbatim between the single-trace heap sink
// and the batch sink: one definition means one RNG draw sequence, which is
// what makes the two sinks byte-identical by construction. The sink receives
// each emitted hop (labels == nullptr for anonymous or unquoted hops) and
// finally the reached flag.
template <class Sink>
void run_observation(net::Ipv4Addr dst, const TraceOptions& options,
                     util::Rng& rng, const WalkResult& walk, Sink&& sink) {
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
      const double rtt = 2.0 * cumulative_ms + rng.uniform01() * 0.4;
      const net::LabelStack* labels =
          (hop.rfc4950 && !hop.labels.empty()) ? &hop.labels : nullptr;
      sink.hop(hop.addr, rtt, labels);
    } else {
      sink.hop(net::kAnonymousAddr, 0.0, nullptr);
      if (++gap >= options.gap_limit) {
        sink.finish(false);  // give up: trace ends in stars
        return;
      }
    }
  }

  const bool reached = walk.reached && ttl < options.max_ttl;
  if (reached) {
    sink.hop(dst, 2.0 * (cumulative_ms + 1.0) + rng.uniform01() * 0.4,
             nullptr);
  }
  sink.finish(reached);
}

struct TraceSink {
  dataset::Trace& trace;
  void hop(net::Ipv4Addr addr, double rtt_ms, const net::LabelStack* labels) {
    dataset::TraceHop out;
    out.addr = addr;
    out.rtt_ms = rtt_ms;
    if (labels != nullptr) out.labels = *labels;
    trace.hops.push_back(std::move(out));
  }
  void finish(bool reached) { trace.reached = reached; }
};

struct BatchSink {
  dataset::TraceBatch& batch;
  void hop(net::Ipv4Addr addr, double rtt_ms, const net::LabelStack* labels) {
    batch.add_hop(addr, rtt_ms);
    if (labels != nullptr) {
      for (const auto& lse : labels->entries()) batch.add_label(lse.encode());
    }
  }
  void finish(bool reached) { batch.end_trace(reached); }
};

}  // namespace

dataset::Trace observe_walk(const Monitor& monitor, net::Ipv4Addr dst,
                            const TraceOptions& options, util::Rng& rng,
                            const WalkResult& walk) {
  dataset::Trace trace;
  trace.monitor_id = monitor.id;
  trace.src = monitor.addr;
  trace.dst = dst;
  run_observation(dst, options, rng, walk, TraceSink{trace});
  return trace;
}

void observe_walk_into(const Monitor& monitor, net::Ipv4Addr dst,
                       const TraceOptions& options, util::Rng& rng,
                       const WalkResult& walk, dataset::TraceBatch& out) {
  out.begin_trace(monitor.id, monitor.addr, dst);
  run_observation(dst, options, rng, walk, BatchSink{out});
}

dataset::Trace trace_route(const Monitor& monitor, const PathSpec& path,
                           const TraceOptions& options, util::Rng& rng) {
  const WalkResult walk = walk_path(path, paris_flow_id(monitor, path.dst));
  return observe_walk(monitor, path.dst, options, rng, walk);
}

}  // namespace mum::probe
