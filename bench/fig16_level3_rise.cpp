// Fig. 16 — The rise of MPLS deployment in AS3356 (Level3): daily data for
// April 2012, the month prior to the paper's 29th cycle.
//
// Paper shapes:
//  * the deployment starts around April 15th and takes about half a month
//    (incremental rollout, not an abrupt transition);
//  * the number of LSPs barely differs before/after filtering while the
//    number of IOTPs does (LSPs are shared by several IOTPs);
//  * day-to-day wobble in the counts from the varying number of vantage
//    points.
//
// No Persistence filter is used here (as in the paper).
#include <iostream>

#include "common.h"
#include "gen/profiles.h"
#include "util/table.h"

int main() {
  using namespace mum;

  run::RunnerConfig config = bench::default_study();
  run::Runner study(config);

  const int april_2012 = gen::cycle_of(2012, 4);
  constexpr int kDays = 30;
  std::cout << "Fig. 16 — AS3356 (Level3) daily deployment, April 2012\n"
            << "(generating " << kDays << " daily campaigns...)\n\n";

  const auto days =
      gen::CampaignRunner(study.internet(), study.ip2as(), config.campaign)
          .daily_month(april_2012, kDays);

  util::TextTable table({"day", "LSPs before", "LSPs after", "IOTPs before",
                         "IOTPs after", ""});
  std::uint64_t first_half_lsps = 0, second_half_lsps = 0;
  std::uint64_t plateau_iotps_after = 0;

  for (int day = 1; day <= kDays; ++day) {
    const auto& snap = days[static_cast<std::size_t>(day - 1)];
    auto extracted = lpr::extract_lsps(snap, study.ip2as());

    // "Before filtering": complete Level3 LSP observations and their IOTPs.
    std::uint64_t lsps_before = 0;
    std::set<lpr::IotpKey> iotps_before;
    for (const auto& obs : extracted.observations) {
      if (obs.lsp.asn != gen::kAsnLevel3) continue;
      ++lsps_before;
      iotps_before.insert(
          lpr::IotpKey{obs.lsp.asn, obs.lsp.ingress, obs.lsp.egress});
    }

    // "After filtering": with no following snapshot Persistence does not
    // run; classify the survivors, then count.
    const lpr::CycleReport report =
        lpr::classify_cycle(lpr::apply_filters(std::move(extracted), {}, {}),
                            {});
    std::uint64_t lsps_after = 0;
    std::uint64_t iotps_after = 0;
    for (const auto& rec : report.iotps) {
      if (rec.key.asn != gen::kAsnLevel3) continue;
      ++iotps_after;
      lsps_after += rec.variants.size();
    }

    table.add_row(
        {std::to_string(day),
         util::TextTable::fmt_int(static_cast<std::int64_t>(lsps_before)),
         util::TextTable::fmt_int(static_cast<std::int64_t>(lsps_after)),
         util::TextTable::fmt_int(static_cast<std::int64_t>(
             iotps_before.size())),
         util::TextTable::fmt_int(static_cast<std::int64_t>(iotps_after)),
         util::ascii_bar(static_cast<double>(lsps_before) / 400.0, 20)});

    if (day <= 14) first_half_lsps += lsps_before;
    if (day >= 16) second_half_lsps += lsps_before;
    if (day >= 28) plateau_iotps_after += iotps_after;
  }
  std::cout << table << '\n';

  std::cout << "LSPs observed April 1-14: " << first_half_lsps
            << "; April 16-30: " << second_half_lsps << '\n';
  std::cout << (first_half_lsps == 0 && second_half_lsps > 100
                    ? "[deployment starts mid-month and ramps up, as in the "
                      "paper]"
                    : "[SHAPE MISMATCH]")
            << '\n';
  std::cout << (plateau_iotps_after > 0
                    ? "[IOTPs visible by end of month]"
                    : "[no IOTPs at end of month]")
            << '\n';
  return 0;
}
