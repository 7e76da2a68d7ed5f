#include "run/manifest.h"

#include "util/json.h"

namespace mum::run {

const char* to_cstring(CycleOutcome outcome) noexcept {
  switch (outcome) {
    case CycleOutcome::kOk: return "ok";
    case CycleOutcome::kFromCheckpoint: return "from_checkpoint";
    case CycleOutcome::kFailed: return "failed";
    case CycleOutcome::kSkipped: return "skipped";
    case CycleOutcome::kFromData: return "from_data";
    case CycleOutcome::kTimedOut: return "timed_out";
  }
  return "unknown";
}

std::size_t RunManifest::count(CycleOutcome outcome) const noexcept {
  std::size_t n = 0;
  for (const CycleStatus& status : cycles) {
    if (status.outcome == outcome) ++n;
  }
  return n;
}

chaos::ChaosStats RunManifest::chaos_total() const noexcept {
  chaos::ChaosStats total;
  for (const CycleStatus& status : cycles) total.merge(status.chaos);
  return total;
}

std::uint64_t RunManifest::checkpoint_write_failures_total() const noexcept {
  std::uint64_t total = 0;
  for (const CycleStatus& status : cycles) {
    total += status.checkpoint_write_failures;
  }
  return total;
}

std::size_t RunManifest::quarantined_total() const noexcept {
  std::size_t total = 0;
  for (const CycleStatus& status : cycles) total += status.quarantined.size();
  return total;
}

std::uint64_t RunManifest::retries_total() const noexcept {
  std::uint64_t total = 0;
  for (const CycleStatus& status : cycles) {
    if (status.attempts > 1) {
      total += static_cast<std::uint64_t>(status.attempts - 1);
    }
  }
  return total;
}

namespace {

void write_chaos(util::JsonWriter& json, const chaos::ChaosStats& stats) {
  json.begin_object();
  json.field("total", stats.total());
  json.field("stacks_truncated", stats.stacks_truncated);
  json.field("extensions_dropped", stats.extensions_dropped);
  json.field("hops_duplicated", stats.hops_duplicated);
  json.field("hops_reordered", stats.hops_reordered);
  json.field("asns_scrambled", stats.asns_scrambled);
  json.field("monitors_blacked_out", stats.monitors_blacked_out);
  json.field("traces_dropped", stats.traces_dropped);
  json.field("bytes_flipped", stats.bytes_flipped);
  json.field("cycles_failed", stats.cycles_failed);
  json.end_object();
}

}  // namespace

std::string RunManifest::to_json() const {
  util::JsonWriter json;
  json.begin_object();
  json.field("first_cycle", first_cycle + 1);  // 1-based, as the paper counts
  json.field("last_cycle", last_cycle + 1);
  json.field("threads", static_cast<std::uint64_t>(threads));
  json.field("wall_ns", wall_ns);
  json.field("minor_faults", minor_faults);
  json.field("peak_rss_bytes", peak_rss_bytes);
  json.field("complete", complete());
  json.field("degraded", degraded());
  json.field("checkpoints_degraded", checkpoints_degraded);
  if (!degraded_reason.empty()) json.field("degraded_reason", degraded_reason);
  json.field("failure_budget_exceeded", failure_budget_exceeded);
  json.field("ok", static_cast<std::uint64_t>(count(CycleOutcome::kOk)));
  json.field("from_checkpoint", static_cast<std::uint64_t>(
                                    count(CycleOutcome::kFromCheckpoint)));
  json.field("from_data",
             static_cast<std::uint64_t>(count(CycleOutcome::kFromData)));
  json.field("failed",
             static_cast<std::uint64_t>(count(CycleOutcome::kFailed)));
  json.field("skipped",
             static_cast<std::uint64_t>(count(CycleOutcome::kSkipped)));
  json.field("timed_out",
             static_cast<std::uint64_t>(count(CycleOutcome::kTimedOut)));
  json.field("retries", retries_total());
  json.field("checkpoint_write_failures", checkpoint_write_failures_total());
  json.field("quarantined",
             static_cast<std::uint64_t>(quarantined_total()));
  json.key("chaos_total");
  write_chaos(json, chaos_total());
  if (io.ops > 0) {
    json.key("io");
    json.begin_object();
    json.field("ops", io.ops);
    json.field("injected_total", io.total_injected());
    for (std::size_t f = 0; f < util::io::kFaultClassCount; ++f) {
      json.field(util::io::to_cstring(static_cast<util::io::FaultClass>(f)),
                 io.injected[f]);
    }
    json.end_object();
  }
  json.key("cycles");
  json.begin_array();
  for (const CycleStatus& status : cycles) {
    json.begin_object();
    json.field("cycle", status.cycle + 1);
    json.field("outcome", to_cstring(status.outcome));
    json.field("duration_ns", status.duration_ns);
    if (status.stages.total() > 0) {
      json.key("stages");
      json.begin_object();
      for (std::size_t s = 0; s < obs::kStageCount; ++s) {
        json.field(std::string(to_cstring(static_cast<obs::Stage>(s))) +
                       "_ns",
                   status.stages.ns[s]);
      }
      json.end_object();
    }
    if (status.delta.cycle >= 0) {
      const gen::CycleDeltaStats& d = status.delta;
      json.key("delta");
      json.begin_object();
      json.field("full_build", d.full_build);
      json.field("ases_total", static_cast<std::uint64_t>(d.ases_total));
      json.field("ases_rebuilt", static_cast<std::uint64_t>(d.ases_rebuilt));
      json.field("ases_te_rebuilt",
                 static_cast<std::uint64_t>(d.ases_te_rebuilt));
      json.field("ases_restored",
                 static_cast<std::uint64_t>(d.ases_restored));
      json.field("links_down", static_cast<std::uint64_t>(d.links_down));
      json.field("links_cost_changed",
                 static_cast<std::uint64_t>(d.links_cost_changed));
      json.field("spf_sources_total",
                 static_cast<std::uint64_t>(d.spf_sources_total));
      json.field("spf_sources_recomputed",
                 static_cast<std::uint64_t>(d.spf_sources_recomputed));
      json.field("lsps_signalled",
                 static_cast<std::uint64_t>(d.lsps_signalled));
      json.end_object();
    }
    if (!status.error.empty()) json.field("error", status.error);
    if (status.attempts > 1) {
      json.field("attempts", static_cast<std::uint64_t>(status.attempts));
    }
    if (status.checkpoint_write_failures > 0) {
      json.field("checkpoint_write_failures",
                 status.checkpoint_write_failures);
    }
    if (!status.quarantined.empty()) {
      json.key("quarantined");
      json.begin_array();
      for (const QuarantineRecord& record : status.quarantined) {
        json.begin_object();
        json.field("file", record.file);
        json.field("reason", record.reason);
        json.end_object();
      }
      json.end_array();
    }
    if (status.chaos.total() > 0) {
      json.key("chaos");
      write_chaos(json, status.chaos);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace mum::run
