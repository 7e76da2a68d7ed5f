#include "gen/campaign.h"

#include <algorithm>
#include <optional>

#include "obs/telemetry.h"
#include "probe/forwarder.h"
#include "probe/traceroute.h"

namespace mum::gen {

namespace {
// Column counts of one trace block.
struct BlockSize {
  std::size_t traces = 0, hops = 0, lses = 0;
};

// The layout of a monitor's next block: its last block's counts plus
// headroom. Between snapshots a monitor's traces change only where flaps,
// failures, label dynamics and deployments moved a path. On the default
// study its hops mostly move by under 5% from one snapshot to the next and
// its LSE words (4 B each) by up to 50% when a new cycle's deployments
// change; a block that outgrows a count grows that column as a vector
// does.
BlockSize next_block_size(const dataset::TraceBatch& last) {
  const auto grow = [](std::size_t n, unsigned shift) {
    return n + (n >> shift) + 64;
  };
  return {grow(last.trace_count(), 4), grow(last.hop_count(), 4),
          grow(last.lse_count(), 1)};
}
}  // namespace

struct CampaignRunner::MonitorState {
  ProbePlan plan;
  // The layout of the monitor's next block, from its last one (none before
  // its first snapshot).
  std::optional<BlockSize> next;
  probe::PathSpec path;
  probe::WalkResult walk;
  // addr -> asn memo, warm for the runner's lifetime (the ip2as table is
  // fixed).
  dataset::AsnCache asn_cache;
};

CampaignRunner::CampaignRunner(const Internet& internet,
                               const dataset::Ip2As& ip2as,
                               CampaignConfig config, util::ThreadPool* pool)
    : internet_(&internet),
      ip2as_(&ip2as),
      config_(std::move(config)),
      pool_(pool) {}

CampaignRunner::~CampaignRunner() = default;
CampaignRunner::CampaignRunner(CampaignRunner&&) noexcept = default;
CampaignRunner& CampaignRunner::operator=(CampaignRunner&&) noexcept =
    default;

void CampaignRunner::plan_all() const {
  if (planned_) return;
  const Internet& internet = *internet_;
  const std::size_t n_monitors = internet.monitors().size();
  std::vector<ProbePlan> plans(n_monitors);
  util::parallel_for(pool_, n_monitors, [&](std::size_t mi) {
    plans[mi] = internet.probe_plan(mi);
  });
  EgressDemand demand(internet.modeled_asns().size());
  for (const ProbePlan& plan : plans) {
    for (const ProbePlan::Segment& seg : plan.segments) {
      demand[seg.as_index].push_back(seg.egress);
    }
  }
  for (std::vector<topo::RouterId>& egresses : demand) {
    std::sort(egresses.begin(), egresses.end());
    egresses.erase(std::unique(egresses.begin(), egresses.end()),
                   egresses.end());
  }
  for (ProbePlan& plan : plans) {
    states_.push_back(std::make_unique<MonitorState>());
    states_.back()->plan = std::move(plan);
  }
  demand_ = std::move(demand);
  planned_ = true;
}

const EgressDemand& CampaignRunner::egress_demand() const {
  plan_all();
  return demand_;
}

dataset::SnapshotBatch CampaignRunner::snapshot(MonthContext& ctx, int cycle,
                                                int sub_index) const {
  return snapshot(ctx, cycle, sub_index, config_);
}

dataset::SnapshotBatch CampaignRunner::snapshot(
    MonthContext& ctx, int cycle, int sub_index,
    const CampaignConfig& config) const {
  const Internet& internet = *internet_;
  dataset::SnapshotBatch snap;
  snap.cycle_id = static_cast<std::uint32_t>(cycle);
  snap.sub_index = static_cast<std::uint32_t>(sub_index);
  snap.date = cycle_date(cycle);

  ctx.apply_flaps(sub_index, internet.config().ecmp_flap_prob,
                  egress_demand());

  const auto& monitors = internet.monitors();
  const std::size_t n_monitors = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(monitors.size()) * config.monitor_share));

  // Observation-noise seed lineage: (seed, cycle, sub_index). Each monitor
  // forks its own stream below, so monitors can run in any order — or in
  // parallel — without perturbing each other's draws.
  const util::Rng noise_base(util::hash_combine(
      internet.config().seed,
      util::hash_combine(0xABCDull + cycle, sub_index)));

  // Each monitor probes its plan (Internet::probe_plan: the Ark-style split
  // of the destination list, stable across snapshots so the Persistence
  // filter compares like with like) into its own block and annotates it
  // through its own AsnCache; the blocks, in monitor order, are the
  // snapshot, identical to a serial run.
  //
  // A block's columns are reserved from the monitor's previous block plus
  // headroom, so a snapshot holds its columns and little slack. A
  // monitor's first block has no size to go by: its columns grow as
  // vectors do.
  snap.blocks.reserve(n_monitors);
  for (std::size_t mi = 0; mi < n_monitors; ++mi) {
    const std::optional<BlockSize>& next = states_[mi]->next;
    if (next) {
      snap.blocks.emplace_back(next->traces, next->hops, next->lses);
    } else {
      snap.blocks.emplace_back();
    }
  }
  ctx.plane_table(planes_);

  util::parallel_for(pool_, n_monitors, [&](std::size_t mi) {
    const probe::Monitor& monitor = monitors[mi];
    MonitorState& state = *states_[mi];
    const ProbePlan& plan = state.plan;
    util::Rng rng = noise_base.fork(mi);
    dataset::TraceBatch& out = snap.blocks[mi];
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!plan.resolve(i, planes_, state.path)) continue;
      probe::walk_path(state.path, plan.probes[i].flow_id, state.walk);
      probe::observe_walk_into(monitor, state.path.dst, config.trace, rng,
                               state.walk, out);
    }
    ip2as_->annotate(out, state.asn_cache);
    state.next = next_block_size(out);
  });

  // Block memory telemetry — observed state only (obs/telemetry.h
  // contract), summed over this snapshot's blocks: the column bytes
  // reserved, the column bytes in use and the blocks started (the
  // probe.arena.* names predate the vector columns). The soak test asserts
  // the gauges stop climbing after warm-up.
  static obs::Gauge& arena_capacity =
      obs::registry().gauge("probe.arena.capacity_bytes");
  static obs::Gauge& arena_high_water =
      obs::registry().gauge("probe.arena.high_water_bytes");
  static obs::Counter& arena_resets =
      obs::registry().counter("probe.arena.resets");
  static obs::Counter& batch_traces =
      obs::registry().counter("probe.batch.traces");
  static obs::Counter& batch_hops =
      obs::registry().counter("probe.batch.hops");
  std::uint64_t capacity = 0, high_water = 0;
  for (const dataset::TraceBatch& block : snap.blocks) {
    capacity += block.capacity_bytes();
    high_water += block.used_bytes();
  }
  arena_capacity.max_of(static_cast<std::int64_t>(capacity));
  arena_high_water.max_of(static_cast<std::int64_t>(high_water));
  arena_resets.add(n_monitors);
  batch_traces.add(snap.trace_count());
  batch_hops.add(snap.hop_count());

  return snap;
}

dataset::MonthData CampaignRunner::month(int cycle,
                                         double fleet_share) const {
  MonthContext ctx = internet_->instantiate(cycle, /*day_of_month=*/1, pool_);
  return probe_month(ctx, cycle, fleet_share);
}

dataset::MonthData CampaignRunner::month(DeltaEvolver& evolver, int cycle,
                                         double fleet_share) const {
  return probe_month(evolver.evolve_to(cycle, /*day_of_month=*/1), cycle,
                     fleet_share);
}

dataset::MonthData CampaignRunner::probe_month(MonthContext& ctx, int cycle,
                                               double fleet_share) const {
  CampaignConfig config = config_;
  config.monitor_share *= fleet_share;
  dataset::MonthData month;
  month.cycle_id = static_cast<std::uint32_t>(cycle);
  month.date = cycle_date(cycle);
  for (int s = 0; s <= config.extra_snapshots; ++s) {
    if (s > 0) ctx.advance_dynamics();
    month.snapshots.push_back(snapshot(ctx, cycle, s, config));
  }
  return month;
}

std::vector<dataset::SnapshotBatch> CampaignRunner::daily_month(
    int cycle, int days) const {
  const Internet& internet = *internet_;
  std::vector<dataset::SnapshotBatch> out;
  out.reserve(static_cast<std::size_t>(days));
  // One standing context for the whole month: deployment ramps are
  // day-resolved, but a day is a same-cycle evolver step (pristine rollback
  // + profile re-evaluation) away — byte-identical to the per-day
  // re-instantiate this replaces, whose apply_flaps(0) and dynamics the
  // later days replay.
  DeltaEvolver evolver(internet, pool_);
  for (int day = 1; day <= days; ++day) {
    MonthContext& ctx = evolver.evolve_to(cycle, day);
    if (day > 1) {
      ctx.apply_flaps(/*sub_index=*/0, internet.config().ecmp_flap_prob);
      ctx.advance_dynamics();
    }

    CampaignConfig day_config = config_;
    // Fleet-size wobble (the paper notes "the number of considered
    // Archipelago vantage points differs from one day to another").
    const double wobble =
        0.7 + 0.3 * (static_cast<double>(util::mix64(
                         util::hash_combine(cycle, day)) %
                     1000) /
                     999.0);
    day_config.monitor_share = config_.monitor_share * wobble;

    dataset::SnapshotBatch snap = snapshot(ctx, cycle, day - 1, day_config);
    snap.date = cycle_date(cycle) + (day < 10 ? "-0" : "-") +
                std::to_string(day);
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace mum::gen
