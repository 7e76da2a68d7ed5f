#include "gen/evolve.h"

#include <numeric>
#include <utility>
#include <vector>

#include "gen/profiles.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace mum::gen {

MonthContext& DeltaEvolver::evolve_to(int cycle, int day_of_month) {
  if (!ctx_ || poisoned_ || cycle < ctx_->cycle()) {
    full_build(cycle, day_of_month);
    return *ctx_;
  }
  try {
    step_to(cycle, day_of_month);
  } catch (...) {
    poisoned_ = true;
  }
  if (poisoned_) full_build(cycle, day_of_month);
  return *ctx_;
}

void DeltaEvolver::full_build(int cycle, int day_of_month) {
  ctx_.emplace(internet_->instantiate(cycle, day_of_month, pool_));
  poisoned_ = false;
  stats_ = CycleDeltaStats{};
  stats_.cycle = cycle;
  stats_.full_build = true;
  stats_.ases_total = ctx_->planes_.size();
  stats_.ases_rebuilt = ctx_->planes_.size();
  obs::registry().counter("evolve.full_builds").add(1);
}

void DeltaEvolver::step_to(int cycle, int day_of_month) {
  static obs::Counter& recomputed =
      obs::registry().counter("igp.delta_sources_recomputed");
  static obs::Counter& skipped =
      obs::registry().counter("igp.delta_sources_skipped");
  static obs::Counter& deltas =
      obs::registry().counter("igp.delta_reconverges");
  MonthContext& ctx = *ctx_;
  const GenConfig& config = internet_->config();

  stats_ = CycleDeltaStats{};
  stats_.cycle = cycle;
  stats_.ases_total = ctx.planes_.size();

  // Roll every AS back to its pristine start-of-month state (undoes flap
  // re-signalling, dynamics, failure reroutes; rewinds label counters and
  // truncates RSVP hop vectors), then mutate forward to the target cycle.
  ctx.restore_pristine();
  ctx.cycle_ = cycle;
  ctx.month_seed_ =
      util::hash_combine(config.seed, 0xC1C7Eull + static_cast<std::uint64_t>(
                                                       cycle));

  // Per-AS deltas are independent; fan out and reduce stats serially.
  std::vector<std::pair<std::uint32_t, AsPlanes*>> ases;
  ases.reserve(ctx.planes_.size());
  for (auto& [asn, planes] : ctx.planes_) ases.emplace_back(asn, planes.get());
  std::vector<CycleDeltaStats> per_as(ases.size());

  util::parallel_for(pool_, ases.size(), [&](std::size_t i) {
    const auto [asn, planes] = ases[i];
    CycleDeltaStats& st = per_as[i];
    const ModeledAs& as = *internet_->modeled(asn);
    const ProfileSnapshot profile =
        profile_at(asn, as.shape, cycle, day_of_month);
    igp::LinkOverlay overlay = internet_->overlay_at(as, asn, cycle);
    const std::uint32_t epoch = internet_->label_epoch_at(asn, cycle);

    const bool overlay_changed = !(overlay == planes->overlay);
    if (overlay_changed) {
      if (overlay.trivial()) {
        planes->igp_cycle.reset();  // back on the time-invariant base IGP
      } else {
        // Incremental SPF from the previous cycle's converged state: only
        // sources whose routing the overlay diff can affect are re-run.
        std::vector<topo::RouterId> all(as.topo.router_count());
        std::iota(all.begin(), all.end(), topo::RouterId{0});
        igp::IgpState::ReconvergeStats rs;
        igp::IgpState next = igp::IgpState::reconverge(
            as.topo, planes->cycle_igp(as), planes->overlay, overlay, all,
            &rs);
        planes->igp_cycle = std::move(next);
        st.spf_sources_total += rs.sources_total;
        st.spf_sources_recomputed += rs.sources_recomputed;
        deltas.inc();
        recomputed.add(rs.sources_recomputed);
        skipped.add(rs.sources_total - rs.sources_recomputed);
      }
      planes->overlay = std::move(overlay);
    }
    for (const bool d : planes->overlay.down) st.links_down += d ? 1 : 0;
    for (const std::uint32_t c : planes->overlay.cost) {
      st.links_cost_changed += c != 0 ? 1 : 0;
    }

    const bool epoch_changed = epoch != planes->label_epoch;
    planes->label_epoch = epoch;

    if (ldp_structural_changed(planes->profile, profile)) {
      internet_->build_as_planes(asn, as, profile, *planes);
      ++st.ases_rebuilt;
      if (planes->rsvp) st.lsps_signalled += planes->rsvp->lsp_count();
    } else if (overlay_changed || epoch_changed ||
               te_structural_changed(planes->profile, profile)) {
      internet_->build_te_planes(asn, as, profile, *planes);
      ++st.ases_te_rebuilt;
      if (planes->rsvp) st.lsps_signalled += planes->rsvp->lsp_count();
    } else {
      Internet::apply_profile_scalars(profile, *planes);
      planes->profile = profile;
      planes->plane.igp = &planes->cycle_igp(as);
      ++st.ases_restored;
    }
  });

  for (const CycleDeltaStats& st : per_as) {
    stats_.ases_rebuilt += st.ases_rebuilt;
    stats_.ases_te_rebuilt += st.ases_te_rebuilt;
    stats_.ases_restored += st.ases_restored;
    stats_.links_down += st.links_down;
    stats_.links_cost_changed += st.links_cost_changed;
    stats_.spf_sources_total += st.spf_sources_total;
    stats_.spf_sources_recomputed += st.spf_sources_recomputed;
    stats_.lsps_signalled += st.lsps_signalled;
  }

  obs::registry().counter("evolve.delta_steps").add(1);
  obs::registry().counter("evolve.ases_restored").add(stats_.ases_restored);
  obs::registry()
      .counter("evolve.ases_te_rebuilt")
      .add(stats_.ases_te_rebuilt);
  obs::registry().counter("evolve.ases_rebuilt").add(stats_.ases_rebuilt);
}

}  // namespace mum::gen
