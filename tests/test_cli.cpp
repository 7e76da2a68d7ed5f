// CLI tests: argument parsing, the generate -> stats/classify/trees
// pipeline over real temp files, and error handling.
#include "cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core/alias.h"
#include "core/report.h"
#include "dataset/ip2as.h"
#include "dataset/snapshot_source.h"

namespace mum::cli {
namespace {

namespace fs = std::filesystem;

// --- Args ----------------------------------------------------------------

TEST(Args, TakeValueAndFlag) {
  Args args({"--out", "/tmp/x", "--small", "file1", "file2"});
  EXPECT_EQ(args.take_value("--out"), "/tmp/x");
  EXPECT_TRUE(args.take_flag("--small"));
  EXPECT_FALSE(args.take_flag("--small"));  // consumed
  EXPECT_EQ(args.positionals(),
            (std::vector<std::string>{"file1", "file2"}));
  EXPECT_FALSE(args.unknown_flag().has_value());
  EXPECT_TRUE(args.ok());
}

TEST(Args, MissingValueIsError) {
  Args args({"--out"});
  EXPECT_FALSE(args.take_value("--out").has_value());
  EXPECT_FALSE(args.ok());
}

TEST(Args, TakeIntDefaultsAndParses) {
  Args args({"--j", "5"});
  EXPECT_EQ(args.take_int("--j", 2), 5);
  EXPECT_EQ(args.take_int("--k", 7), 7);
  EXPECT_TRUE(args.ok());
}

TEST(Args, TakeIntRejectsGarbage) {
  Args args({"--j", "five"});
  EXPECT_EQ(args.take_int("--j", 2), 2);
  EXPECT_FALSE(args.ok());
}

TEST(Args, TakeIntEnforcesInclusiveRange) {
  // Both bounds are inclusive, and the default range is the target type's.
  Args in_range({"--lo", "1", "--hi", "60", "--u32", "4294967295"});
  EXPECT_EQ(in_range.take_int("--lo", 9, 1, 60), 1);
  EXPECT_EQ(in_range.take_int("--hi", 9, 1, 60), 60);
  EXPECT_EQ(in_range.take_int<std::uint32_t>("--u32", 0), 4294967295u);
  EXPECT_TRUE(in_range.ok());
  // Out of range on either side: the default, and an error naming the range.
  Args too_big({"--n", "4294967296"});
  EXPECT_EQ(too_big.take_int("--n", 7), 7);
  EXPECT_EQ(too_big.error(), "--n must be in [0, 2147483647]");
  Args too_small({"--n", "0"});
  EXPECT_EQ(too_small.take_int("--n", 7, 1, 60), 7);
  EXPECT_EQ(too_small.error(), "--n must be in [1, 60]");
}

TEST(Args, UnknownFlagDetected) {
  Args args({"--bogus", "x"});
  EXPECT_TRUE(args.unknown_flag().has_value());
  EXPECT_EQ(*args.unknown_flag(), "--bogus");
}

TEST(Args, ValueFlagAbsent) {
  Args args({"a", "b"});
  EXPECT_FALSE(args.take_value("--out").has_value());
  EXPECT_TRUE(args.ok());  // absence is not an error
}

// --- ip2as text round trip -------------------------------------------------

TEST(Ip2AsText, RoundTrip) {
  dataset::Ip2As table;
  table.add_prefix(*net::Ipv4Prefix::parse("16.0.0.0/15"), 7018);
  table.add_prefix(*net::Ipv4Prefix::parse("16.2.0.0/16"), 30000);
  const auto text = dataset::to_table_text(table);
  const auto back = dataset::ip2as_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->prefix_count(), 2u);
  EXPECT_EQ(back->lookup(*net::Ipv4Addr::parse("16.1.2.3")), 7018u);
  EXPECT_EQ(back->lookup(*net::Ipv4Addr::parse("16.2.2.3")), 30000u);
}

TEST(Ip2AsText, CommentsAndBlanksAllowed) {
  const auto table = dataset::ip2as_from_text(
      "# pfx2as\n\n16.0.0.0/16 100\n   \n16.1.0.0/16\t200\n");
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->prefix_count(), 2u);
}

TEST(Ip2AsText, MalformedRejected) {
  EXPECT_FALSE(dataset::ip2as_from_text("garbage").has_value());
  EXPECT_FALSE(dataset::ip2as_from_text("16.0.0.0/33 5").has_value());
  EXPECT_FALSE(dataset::ip2as_from_text("16.0.0.0/16 notanasn").has_value());
}

// --- end-to-end over temp files -------------------------------------------

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-suffixed so concurrent ctest -j processes cannot collide.
    dir_ = fs::temp_directory_path() /
           ("mum_cli_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int run_cmd(std::vector<std::string> argv_tail, std::string* out_text) {
    std::vector<const char*> argv{"mum"};
    for (const auto& a : argv_tail) argv.push_back(a.c_str());
    std::ostringstream out, err;
    const int code = run(static_cast<int>(argv.size()), argv.data(), out,
                         err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return code;
  }

  std::vector<std::string> snapshot_files() const {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".mumw") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(CliPipeline, GenerateClassifyTreesStats) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "2"},
                    &out),
            0)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 2u);
  const std::string table = (dir_ / "ip2as.txt").string();
  ASSERT_TRUE(fs::exists(table));

  ASSERT_EQ(run_cmd({"stats", files[0], files[1]}, &out), 0) << out;
  EXPECT_NE(out.find("traces"), std::string::npos);

  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, files[0], files[1]},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("Mono-LSP"), std::string::npos);
  EXPECT_NE(out.find("IOTPs"), std::string::npos);

  std::string csv;
  ASSERT_EQ(run_cmd({"classify", "--csv", "--ip2as", table, files[0]},
                    &csv),
            0);
  EXPECT_NE(csv.find("class,IOTPs,share"), std::string::npos);

  std::string router_level;
  ASSERT_EQ(run_cmd({"classify", "--router-level", "--ip2as", table,
                     files[0], files[1]},
                    &router_level),
            0);
  EXPECT_NE(router_level.find("router-level IOTPs"), std::string::npos);
  EXPECT_NE(router_level.find("alias sets inferred"), std::string::npos);

  std::string json;
  ASSERT_EQ(run_cmd({"classify", "--json", "--ip2as", table, files[0]},
                    &json),
            0);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"global\""), std::string::npos);
  EXPECT_EQ(json.find("\"iotps\""), std::string::npos);
  std::string json_iotps;
  ASSERT_EQ(run_cmd({"classify", "--json-iotps", "--ip2as", table,
                     files[0]},
                    &json_iotps),
            0);
  EXPECT_NE(json_iotps.find("\"iotps\""), std::string::npos);

  ASSERT_EQ(run_cmd({"trees", "--ip2as", table, files[0]}, &out), 0) << out;
  EXPECT_NE(out.find("egress-rooted trees"), std::string::npos);
}

// The JSON object that follows `"key":` (no nested braces inside).
std::string json_object(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":{");
  if (at == std::string::npos) return "";
  return json.substr(at, json.find('}', at) - at + 1);
}

// The ASNs a report's per_as array tags dynamic.
std::set<std::string> dynamic_tags(const std::string& json) {
  static const std::regex tag("\"asn\":([0-9]+),\"dynamic\":true");
  std::set<std::string> out;
  for (std::sregex_iterator it(json.begin(), json.end(), tag), end;
       it != end; ++it) {
    out.insert((*it)[1]);
  }
  return out;
}

TEST_F(CliPipeline, RouterLevelMatchesLibraryBuiltReport) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small"},
                    &out),
            0)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 3u);
  const std::string table = (dir_ / "ip2as.txt").string();

  std::string router_level;
  ASSERT_EQ(run_cmd({"classify", "--router-level", "--json-iotps", "--ip2as",
                     table, files[0], files[1], files[2]},
                    &router_level),
            0)
      << router_level;
  std::string ip_level;
  ASSERT_EQ(run_cmd({"classify", "--json", "--ip2as", table, files[0],
                     files[1], files[2]},
                    &ip_level),
            0)
      << ip_level;

  // The same report, built by hand through the library.
  std::ifstream table_in(table);
  std::stringstream table_text;
  table_text << table_in.rdbuf();
  const auto ip2as = dataset::ip2as_from_text(table_text.str());
  ASSERT_TRUE(ip2as.has_value());
  dataset::MonthData month;
  dataset::SnapshotSource source(files);
  dataset::AsnCache asn_cache;
  while (auto snap = source.next()) {
    ip2as->annotate(*snap, asn_cache);
    month.snapshots.push_back(std::move(*snap));
  }
  ASSERT_EQ(month.snapshots.size(), 3u);
  lpr::ExtractedMonth extracted = lpr::extract_month(month, *ip2as);
  const lpr::FilteredCycle filtered = lpr::apply_filters(
      std::move(extracted.cycle), extracted.following, {});
  const lpr::LabelAliasResolver resolver(filtered.observations,
                                         month.cycle());
  lpr::CycleReport want;
  want.cycle_id = filtered.cycle_id;
  want.date = filtered.date;
  want.extract_stats = filtered.extract;
  want.filter_stats = filtered.stats;
  want.iotps =
      lpr::group_iotps(lpr::to_router_level(filtered.observations, resolver));
  want.global = lpr::classify_all(want.iotps);
  for (const lpr::IotpRecord& rec : want.iotps) {
    want.per_as[rec.key.asn].add(rec);
  }
  for (const std::uint32_t asn : filtered.dynamic_asns) {
    want.dynamic_as[asn] = true;
  }
  ASSERT_FALSE(filtered.dynamic_asns.empty());
  EXPECT_EQ(router_level, "(router-level IOTPs: " +
                              std::to_string(resolver.alias_sets().size()) +
                              " alias sets inferred)\n" +
                              want.to_json(true) + "\n");

  // Router level regroups the one filtered cycle: extraction, filter
  // stats and dynamic tags are the IP-level run's.
  for (const char* key : {"extract", "filters"}) {
    EXPECT_FALSE(json_object(ip_level, key).empty()) << key;
    EXPECT_EQ(json_object(router_level, key), json_object(ip_level, key))
        << key;
  }
  EXPECT_FALSE(dynamic_tags(ip_level).empty());
  EXPECT_EQ(dynamic_tags(router_level), dynamic_tags(ip_level));
  EXPECT_NE(json_object(router_level, "global"),
            json_object(ip_level, "global"));
}

TEST_F(CliPipeline, DeterministicAcrossRuns) {
  std::string out1, out2;
  ASSERT_EQ(run_cmd({"generate", "--out", (dir_ / "a").string(), "--cycle",
                     "40", "--small"},
                    &out1),
            0);
  ASSERT_EQ(run_cmd({"generate", "--out", (dir_ / "b").string(), "--cycle",
                     "40", "--small"},
                    &out2),
            0);
  // Byte-identical snapshot files for the same seed/cycle.
  std::ifstream a(dir_ / "a" / "cycle40_s0.mumw", std::ios::binary);
  std::ifstream b(dir_ / "b" / "cycle40_s0.mumw", std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

TEST_F(CliPipeline, ErrorsAreReported) {
  std::string out;
  EXPECT_NE(run_cmd({"classify", "--ip2as", "/nonexistent", "x.mumw"},
                    &out),
            0);
  EXPECT_NE(run_cmd({"classify", "--ip2as"}, &out), 0);
  EXPECT_NE(run_cmd({"frobnicate"}, &out), 0);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(run_cmd({"generate", "--cycle", "50"}, &out), 0);  // no --out
  EXPECT_NE(run_cmd({"generate", "--out", dir_.string(), "--cycle", "99"},
                    &out),
            0);
}

TEST_F(CliPipeline, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run_cmd({"--help"}, &out), 0);
  EXPECT_NE(out.find("usage: mum"), std::string::npos);
}

TEST_F(CliPipeline, StatsRejectsGarbageFile) {
  const fs::path bogus = dir_ / "bogus.mumw";
  std::ofstream(bogus) << "not a snapshot";
  std::string out;
  EXPECT_NE(run_cmd({"stats", bogus.string()}, &out), 0);
  EXPECT_NE(out.find("not a warts-lite snapshot"), std::string::npos);
}

TEST_F(CliPipeline, GenerateV3PackAndMixedFormatIngest) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "2"},
                    &out),
            kExitOk)
      << out;
  ASSERT_EQ(run_cmd({"generate", "--out", (dir_ / "pack").string(),
                     "--cycle", "50", "--small", "--snapshots", "2",
                     "--format", "v3"},
                    &out),
            kExitOk)
      << out;
  const fs::path p0 = dir_ / "pack" / "cycle50_s0.mump";
  const fs::path p1 = dir_ / "pack" / "cycle50_s1.mump";
  ASSERT_TRUE(fs::exists(p0));
  ASSERT_TRUE(fs::exists(p1));
  const std::string table = (dir_ / "ip2as.txt").string();
  const fs::path w0 = dir_ / "cycle50_s0.mumw";
  const fs::path w1 = dir_ / "cycle50_s1.mumw";

  // Same generation either container: classification output is identical,
  // and a mixed v2+v3 file list reads transparently (readers sniff magic).
  std::string via_v2, via_v3, mixed;
  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, w0.string(), w1.string()},
                    &via_v2),
            kExitOk)
      << via_v2;
  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, p0.string(), p1.string()},
                    &via_v3),
            kExitOk);
  EXPECT_EQ(via_v2, via_v3);
  ASSERT_EQ(run_cmd({"classify", "--ip2as", table, w0.string(), p1.string()},
                    &mixed),
            kExitOk);
  EXPECT_EQ(mixed, via_v2);
  EXPECT_EQ(run_cmd({"stats", p0.string()}, &out), kExitOk);
  EXPECT_NE(out.find("traces"), std::string::npos);

  // Bad --format values are usage errors, on both subcommands.
  EXPECT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--format", "v9"},
                    &out),
            kExitUsage);
  EXPECT_NE(out.find("--format"), std::string::npos);
  EXPECT_EQ(run_cmd({"campaign", "--cycles", "1", "--small", "--format",
                     "banana"},
                    &out),
            kExitUsage);
  // --checkpoint-data only makes sense with a checkpoint directory.
  EXPECT_EQ(run_cmd({"campaign", "--cycles", "1", "--small",
                     "--checkpoint-data"},
                    &out),
            kExitUsage);
}

// --- exit codes ------------------------------------------------------------

TEST_F(CliPipeline, UsageErrorsExitOne) {
  std::string out;
  EXPECT_EQ(run_cmd({"frobnicate"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"generate", "--cycle", "5"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "99"},
                    &out),
            kExitUsage);
  EXPECT_EQ(run_cmd({"classify"}, &out), kExitUsage);  // --ip2as missing
  EXPECT_EQ(run_cmd({"stats", "--bogus-flag", "x.mumw"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--cycles", "0"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--chaos", "bogus=1"}, &out), kExitUsage);
  // The per-cycle rebuild is a test oracle (Runner::run_cycle), not a mode.
  EXPECT_EQ(run_cmd({"campaign", "--evolve", "off"}, &out), kExitUsage);
  EXPECT_NE(out.find("unknown flag --evolve"), std::string::npos) << out;
  EXPECT_EQ(run_cmd({"stats", "--tolerant", "--strict", "x.mumw"}, &out),
            kExitUsage);
}

TEST_F(CliPipeline, OutOfRangeIntegerFlagsExitOne) {
  // 2^32 is 0 once narrowed to a u32 or to the low half of an int; each
  // flag must refuse it, or its own out-of-range value, up front.
  const std::string big = "4294967296";
  const std::string in_int = " must be in [0, 2147483647]";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"campaign", "--small", "--failure-budget", big},
        "--failure-budget" + in_int},
       {{"campaign", "--small", "--retry", big}, "--retry" + in_int},
       {{"campaign", "--small", "--cycle-deadline", big},
        "--cycle-deadline must be in [0, 4294967295]"},
       {{"campaign", "--small", "--threads", big}, "--threads" + in_int},
       {{"generate", "--out", (dir_ / "gen").string(), "--snapshots", "0"},
        "--snapshots must be in [1, 2147483647]"},
       {{"classify", "--j", big}, "--j" + in_int}};
  for (const auto& [argv, message] : cases) {
    std::string out;
    EXPECT_EQ(run_cmd(argv, &out), kExitUsage) << message;
    EXPECT_NE(out.find(message), std::string::npos) << out;
  }
}

TEST_F(CliPipeline, DataErrorsExitThree) {
  std::string out;
  EXPECT_EQ(run_cmd({"stats", (dir_ / "missing.mumw").string()}, &out),
            kExitFatal);
  const fs::path bogus = dir_ / "bogus.mumw";
  std::ofstream(bogus) << "not a snapshot";
  EXPECT_EQ(run_cmd({"stats", bogus.string()}, &out), kExitFatal);
  // Tolerant mode cannot save a file that is not a container at all.
  EXPECT_EQ(run_cmd({"stats", "--tolerant", bogus.string()}, &out),
            kExitFatal);
}

TEST_F(CliPipeline, TolerantSalvagesTruncatedSnapshot) {
  std::string out;
  ASSERT_EQ(run_cmd({"generate", "--out", dir_.string(), "--cycle", "50",
                     "--small", "--snapshots", "1"},
                    &out),
            kExitOk)
      << out;
  const auto files = snapshot_files();
  ASSERT_EQ(files.size(), 1u);

  // Chop the tail off the file: the last record's frame now overruns.
  std::string bytes;
  {
    std::ifstream is(files[0], std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  const fs::path cut = dir_ / "cut.mumw";
  std::ofstream(cut, std::ios::binary)
      << bytes.substr(0, bytes.size() - 40);

  // Strict (default) refuses; tolerant salvages and reports what it skipped.
  EXPECT_EQ(run_cmd({"stats", cut.string()}, &out), kExitFatal);
  EXPECT_EQ(run_cmd({"stats", "--tolerant", cut.string()}, &out), kExitOk);
  EXPECT_NE(out.find("salvaged"), std::string::npos);
}

TEST_F(CliPipeline, CampaignExitCodesAndManifest) {
  std::string out;
  // A clean small campaign: every cycle computes, exit 0.
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--quiet"},
                    &out),
            kExitOk)
      << out;

  // Injected failure on every cycle: contained, but the run is partial.
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "2", "--keep-going",
                     "--chaos", "fail=1", "--json", "--quiet"},
                    &json),
            kExitPartial);
  EXPECT_NE(json.find("\"manifest\""), std::string::npos);
  EXPECT_NE(json.find("\"failed\":2"), std::string::npos);
  EXPECT_NE(json.find("injected failure"), std::string::npos);
}

TEST_F(CliPipeline, CampaignAbortedExitCode) {
  // Fail-fast (no --keep-going) on a guaranteed failure: remaining cycles
  // are skipped, which is an abort (5), not a mere partial (2).
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "3", "--chaos",
                     "fail=1", "--json", "--quiet"},
                    &json),
            kExitAborted);
  EXPECT_NE(json.find("\"skipped\":"), std::string::npos);
}

TEST_F(CliPipeline, CampaignDegradedExitCode) {
  // Persistent disk-full: the report completes but checkpoint persistence
  // is dropped — degraded-complete (4), and the manifest says why.
  const std::string ckpt = (dir_ / "ck_enospc").string();
  std::string json;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "4", "--quiet",
                     "--checkpoints", ckpt, "--chaos", "io.enospc=1",
                     "--json"},
                    &json),
            kExitDegraded);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints_degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("persistent enospc"), std::string::npos);
}

// A file that fails only when flushed (a full disk) loses telemetry or
// trace bytes; the run must say so and exit fatal (3), not ok.
TEST_F(CliPipeline, CampaignTelemetryToFullDiskIsFatal) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::string out;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--telemetry=/dev/full"},
                    &out),
            kExitFatal);
  EXPECT_NE(out.find("cannot write /dev/full"), std::string::npos) << out;
}

TEST_F(CliPipeline, CampaignTraceToFullDiskIsFatal) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::string out;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--trace-out", "/dev/full"},
                    &out),
            kExitFatal);
  EXPECT_NE(out.find("cannot write /dev/full"), std::string::npos) << out;
}

TEST_F(CliPipeline, CampaignSupervisionFlags) {
  // --retry and --cycle-deadline parse and validate.
  std::string out;
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--retry", "2", "--cycle-deadline", "60000"},
                    &out),
            kExitOk)
      << out;
  EXPECT_EQ(run_cmd({"campaign", "--retry", "-1"}, &out), kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--cycle-deadline", "-5"}, &out),
            kExitUsage);
  EXPECT_EQ(run_cmd({"campaign", "--chaos", "io.bogus=1"}, &out),
            kExitUsage);
  EXPECT_NE(out.find("unknown fault"), std::string::npos);
  // A hopeless deadline with slow io: every cycle times out; cycles were
  // attempted (none skipped), so the run is partial, not aborted.
  EXPECT_EQ(run_cmd({"campaign", "--small", "--cycles", "1", "--quiet",
                     "--keep-going", "--checkpoints",
                     (dir_ / "ck_slow").string(), "--chaos",
                     "io.slow=1,io.slow_ms=200", "--cycle-deadline", "1",
                     "--json"},
                    &out),
            kExitPartial);
  EXPECT_NE(out.find("\"timed_out\":1"), std::string::npos);
}

TEST_F(CliPipeline, CampaignIoChaosKeepsReportBytes) {
  // Same seed, io chaos on/off: stdout (the science) must be identical;
  // only the exit code and manifest reflect the weather.
  std::string clean;
  ASSERT_EQ(run_cmd({"campaign", "--small", "--cycles", "3", "--quiet"},
                    &clean),
            kExitOk);
  std::string stormy;
  const int code = run_cmd(
      {"campaign", "--small", "--cycles", "3", "--quiet", "--retry", "2",
       "--checkpoints", (dir_ / "ck_io").string(), "--checkpoint-data",
       "--chaos", "io.all=2%"},
      &stormy);
  EXPECT_TRUE(code == kExitOk || code == kExitDegraded) << code;
  // run_cmd concatenates out+err; --quiet keeps err to warnings only, so
  // compare the table prefix (stdout comes first).
  EXPECT_EQ(stormy.substr(0, clean.size()), clean);
}

TEST(Usage, DocumentsSupervision) {
  const std::string text = usage();
  EXPECT_NE(text.find("--retry"), std::string::npos);
  EXPECT_NE(text.find("--cycle-deadline"), std::string::npos);
  EXPECT_NE(text.find("io.eio"), std::string::npos);
  EXPECT_NE(text.find("io.kill_at"), std::string::npos);
  EXPECT_NE(text.find("4 degraded-complete"), std::string::npos);
  EXPECT_NE(text.find("5 aborted"), std::string::npos);
}

}  // namespace
}  // namespace mum::cli
