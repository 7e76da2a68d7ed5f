// Archipelago-style probing campaigns over the synthetic internet.
//
// A snapshot = one run of the monitor fleet (each monitor probes its share of
// the destination list, Paris-traceroute style). A month = the cycle snapshot
// plus `extra_snapshots` follow-up runs (consumed by the Persistence filter),
// with routing flaps applied between runs and TE label dynamics advanced for
// dynamic-label ASes. Daily generation (Fig. 16) exposes day-of-month so
// profile ramps and fleet-size variation can play out.
//
// CampaignRunner is the entry point: it holds the campaign configuration
// once and generates snapshots with the monitor fleet fanned out over an
// optional thread pool. Determinism contract: every monitor draws its
// observation noise from an RNG stream keyed by (seed, cycle, sub_index,
// monitor), and per-monitor trace blocks are concatenated in monitor order —
// so output is bit-identical no matter how many threads execute it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataset/ip2as.h"
#include "dataset/trace_batch.h"
#include "gen/evolve.h"
#include "gen/internet.h"
#include "util/thread_pool.h"

namespace mum::gen {

struct CampaignConfig {
  int extra_snapshots = 2;  // snapshots X+1..X+j generated per month
  probe::TraceOptions trace;
  // Fraction of the monitor fleet active (varies day-to-day in Fig. 16).
  double monitor_share = 1.0;
};

class CampaignRunner {
 public:
  // References (not copies) the internet and ip2as table; both must outlive
  // the runner. `pool` is optional shared parallelism — null means serial.
  CampaignRunner(const Internet& internet, const dataset::Ip2As& ip2as,
                 CampaignConfig config = {},
                 util::ThreadPool* pool = nullptr);
  ~CampaignRunner();  // out-of-line: MonitorShard is incomplete here
  CampaignRunner(CampaignRunner&&) noexcept;
  CampaignRunner& operator=(CampaignRunner&&) noexcept;

  const CampaignConfig& config() const noexcept { return config_; }
  const Internet& internet() const noexcept { return *internet_; }

  // One snapshot at (cycle, sub_index). `ctx` must come from
  // internet.instantiate(); flaps for `sub_index` are applied inside.
  // Monitors probe into per-shard arena batches (cached on the runner and
  // reset between snapshots, so the steady state of a month allocates
  // nothing in the probe loop), merged column-wise in monitor order and
  // ip2as-annotated.
  //
  // Not safe to call concurrently on one runner: it mutates `ctx` and
  // reuses the runner's shard arenas.
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle,
                                  int sub_index) const;
  // Same, with a per-call config override (daily fleet-size wobble).
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle, int sub_index,
                                  const CampaignConfig& config) const;

  // Full month: cycle snapshot + extra snapshots, advancing label dynamics
  // between runs.
  dataset::MonthData month(int cycle) const;
  // Same month, generated against `evolver`'s standing world instead of a
  // from-scratch instantiate. Byte-identical to `month(cycle)` (the
  // DeltaEvolver oracle contract), but cycle N+1 is a mutation of cycle N.
  dataset::MonthData month(DeltaEvolver& evolver, int cycle) const;

  // Daily data for one month (Fig. 16): `days` snapshots, profile evaluated
  // at each day, fleet size wobbling deterministically around the configured
  // share.
  std::vector<dataset::SnapshotBatch> daily_month(int cycle, int days) const;

 private:
  // The month body both month() overloads share: the cycle snapshot plus
  // the extra snapshots over `ctx`, advancing label dynamics between runs.
  dataset::MonthData probe_month(MonthContext& ctx, int cycle) const;

  // Per-monitor probe scratch: an arena the shard's TraceBatch carves from
  // plus a reusable forwarder walk buffer. Cached across snapshots so arena
  // high-water stabilizes after the first snapshot (the soak test gates
  // this via the probe.arena.* gauges).
  struct MonitorShard;

  const Internet* internet_;
  const dataset::Ip2As* ip2as_;
  CampaignConfig config_;
  util::ThreadPool* pool_;
  mutable std::vector<std::unique_ptr<MonitorShard>> shards_;
  // Warm addr -> asn memo shared by every snapshot of the campaign (the
  // ip2as table is fixed for the runner's lifetime). Same non-reentrancy
  // contract as shards_: one snapshot at a time per runner.
  mutable dataset::AsnCache asn_cache_;
};

}  // namespace mum::gen
