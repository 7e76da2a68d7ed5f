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
// optional thread pool. Everything it learns is kept for its lifetime: every
// monitor's probe plan (all routed before the first snapshot's flaps), the
// IGP egress demand those plans imply, and per monitor its walk scratch,
// addr -> asn memo and the size of its last trace block.
// A campaign that keeps one runner across its cycles routes every probe once
// and probes from warm memory. Determinism contract: every monitor draws its
// observation noise from an RNG stream keyed by (seed, cycle, sub_index,
// monitor) into its own trace block, and a snapshot is those blocks in
// monitor order — so output is bit-identical no matter how many threads
// execute it, and no matter how many snapshots the runner generated before.
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
  ~CampaignRunner();  // out-of-line: MonitorState is incomplete here
  CampaignRunner(CampaignRunner&&) noexcept;
  CampaignRunner& operator=(CampaignRunner&&) noexcept;

  const CampaignConfig& config() const noexcept { return config_; }
  const Internet& internet() const noexcept { return *internet_; }
  // The IGP egress columns the runner's walks read: the sorted, unique
  // segment egresses of every monitor's plan, by ModeledAs::index (routing
  // the plans on first use). snapshot() hands this to apply_flaps.
  const EgressDemand& egress_demand() const;

  // One snapshot at (cycle, sub_index). `ctx` must come from
  // internet.instantiate() or a DeltaEvolver; flaps for `sub_index` are
  // applied inside, reconverging only egress_demand() (plus the TE
  // re-signal egresses), so until the next apply_flaps `ctx` serves this
  // runner's walks only. The body is two fan-outs over the pool, one per
  // phase: the per-AS flaps (MonthContext::apply_flaps), and the
  // per-monitor probe, where each monitor resolves its probe plan against
  // `ctx`'s data planes, walks and observes into its own block of the
  // snapshot (columns reserved from the monitor's previous block) and
  // ip2as-annotates that block through its own memo. The blocks are the
  // snapshot, in monitor order; nothing is copied after the probe.
  //
  // Not safe to call concurrently on one runner: it mutates `ctx` and
  // reuses the runner's plans, memos and block sizes.
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle,
                                  int sub_index) const;
  // Same, with a per-call config override (daily fleet-size wobble).
  dataset::SnapshotBatch snapshot(MonthContext& ctx, int cycle, int sub_index,
                                  const CampaignConfig& config) const;

  // Full month: cycle snapshot + extra snapshots, advancing label dynamics
  // between runs. `fleet_share` scales config().monitor_share for this
  // month only (the campaign's fleet-size dips).
  dataset::MonthData month(int cycle, double fleet_share = 1.0) const;
  // Same month, generated against `evolver`'s standing world instead of a
  // from-scratch instantiate. Byte-identical to `month(cycle)` (the
  // DeltaEvolver oracle contract), but cycle N+1 is a mutation of cycle N.
  dataset::MonthData month(DeltaEvolver& evolver, int cycle,
                           double fleet_share = 1.0) const;

  // Daily data for one month (Fig. 16): `days` snapshots, profile evaluated
  // at each day, fleet size wobbling deterministically around the configured
  // share.
  std::vector<dataset::SnapshotBatch> daily_month(int cycle, int days) const;

 private:
  // The month body both month() overloads share: the cycle snapshot plus
  // the extra snapshots over `ctx`, advancing label dynamics between runs.
  dataset::MonthData probe_month(MonthContext& ctx, int cycle,
                                 double fleet_share) const;

  // Routes every monitor's probe plan and derives demand_ from them; a no-op
  // once done. A throw leaves nothing behind.
  void plan_all() const;

  // Per-monitor probe state, kept for the runner's lifetime: the monitor's
  // probe plan (see plan_all), the column counts of its last block (which
  // size its next block's columns; the soak test gates this via the
  // probe.arena.* gauges), path/walk scratch and the addr -> asn memo that
  // annotates its blocks.
  struct MonitorState;

  const Internet* internet_;
  const dataset::Ip2As* ip2as_;
  CampaignConfig config_;
  util::ThreadPool* pool_;
  // One snapshot at a time per runner (see snapshot()): these are mutated
  // by the const generation calls.
  mutable std::vector<std::unique_ptr<MonitorState>> states_;
  // Sorted, unique segment egresses of all plans, by ModeledAs::index: the
  // IGP columns a snapshot's walks read. Set with the plans.
  mutable EgressDemand demand_;
  mutable bool planned_ = false;
  // The snapshot's data plane per modelled AS, by ModeledAs::index.
  mutable std::vector<const probe::AsDataPlane*> planes_;
};

}  // namespace mum::gen
