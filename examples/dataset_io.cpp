// dataset_io: the offline workflow — generate an Archipelago-style month,
// persist it in the warts-lite binary format, reload it from disk, and run
// LPR on the reloaded data (what a user with archived campaigns would do).
//
//   $ ./dataset_io [directory=/tmp/mum_dataset]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/report.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mum;
  namespace fs = std::filesystem;

  const fs::path dir = argc > 1 ? argv[1] : "/tmp/mum_dataset";
  fs::create_directories(dir);

  // 1. Generate one month of probing data.
  gen::GenConfig config;
  config.background_transit = 10;
  config.stub_ases = 14;
  config.monitors = 6;
  config.dests_per_monitor = 200;
  gen::Internet internet(config);
  const dataset::Ip2As ip2as = internet.build_ip2as();
  const int cycle = gen::cycle_of(2013, 6);
  const dataset::MonthData month =
      gen::CampaignRunner(internet, ip2as).month(cycle);

  // 2. Persist every snapshot as a warts-lite file.
  std::vector<fs::path> files;
  std::uintmax_t bytes = 0;
  for (const dataset::SnapshotBatch& snap : month.snapshots) {
    const fs::path file =
        dir / ("cycle" + std::to_string(snap.cycle_id) + "_s" +
               std::to_string(snap.sub_index) + ".mumw");
    std::ofstream os(file, std::ios::binary);
    const std::string encoded = dataset::serialize_snapshot(snap);
    os.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    os.close();
    bytes += fs::file_size(file);
    files.push_back(file);
  }
  std::cout << "wrote " << files.size() << " snapshots ("
            << month.cycle().trace_count() << " traces each, " << bytes
            << " bytes total) to " << dir << "\n";

  // 3. Reload from disk — the archived-data workflow. AS annotations are
  //    not persisted; re-annotate with the IP2AS table, as the paper does
  //    with the matching Routeviews snapshot.
  dataset::MonthData reloaded;
  reloaded.cycle_id = month.cycle_id;
  reloaded.date = month.date;
  for (const fs::path& file : files) {
    std::ifstream is(file, std::ios::binary);
    auto snap = dataset::read_snapshot(is);
    if (!snap) {
      std::cerr << "failed to parse " << file << '\n';
      return 1;
    }
    ip2as.annotate(*snap);
    reloaded.snapshots.push_back(std::move(*snap));
  }

  // 4. LPR on the reloaded data must agree with LPR on the in-memory data.
  const lpr::CycleReport direct = lpr::run_pipeline(month, ip2as, {});
  const lpr::CycleReport from_disk = lpr::run_pipeline(reloaded, ip2as, {});

  util::TextTable table({"", "in-memory", "from disk"});
  auto row = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    table.add_row({name, util::TextTable::fmt_int(static_cast<std::int64_t>(a)),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(b))});
  };
  row("LSPs kept", direct.filter_stats.after_persistence,
      from_disk.filter_stats.after_persistence);
  row("IOTPs", direct.global.total(), from_disk.global.total());
  row("Mono-LSP", direct.global.mono_lsp, from_disk.global.mono_lsp);
  row("Multi-FEC", direct.global.multi_fec, from_disk.global.multi_fec);
  row("Mono-FEC", direct.global.mono_fec, from_disk.global.mono_fec);
  std::cout << table;

  const bool identical =
      direct.global.total() == from_disk.global.total() &&
      direct.global.mono_lsp == from_disk.global.mono_lsp &&
      direct.global.multi_fec == from_disk.global.multi_fec &&
      direct.global.mono_fec == from_disk.global.mono_fec;
  std::cout << (identical ? "\nround trip is lossless for LPR\n"
                          : "\nROUND TRIP MISMATCH\n");
  return identical ? 0 : 1;
}
