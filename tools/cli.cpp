#include "cli.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "chaos/chaos.h"
#include "core/alias.h"
#include "core/report.h"
#include "core/tree.h"
#include "dataset/pack.h"
#include "dataset/snapshot_source.h"
#include "dataset/warts_lite.h"
#include "gen/campaign.h"
#include "gen/internet.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "run/runner.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace mum::cli {

namespace fs = std::filesystem;

// ----------------------------------------------------------------------
// Args
// ----------------------------------------------------------------------

Args::Args(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) tokens_.emplace_back(argv[i]);
  consumed_.assign(tokens_.size(), false);
}

Args::Args(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {
  consumed_.assign(tokens_.size(), false);
}

std::optional<std::string> Args::take_value(const std::string& name) {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (consumed_[i] || tokens_[i] != name) continue;
    if (i + 1 >= tokens_.size() || consumed_[i + 1]) {
      error_ = name + " requires a value";
      return std::nullopt;
    }
    consumed_[i] = consumed_[i + 1] = true;
    return tokens_[i + 1];
  }
  return std::nullopt;
}

bool Args::take_flag(const std::string& name) {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (!consumed_[i] && tokens_[i] == name) {
      consumed_[i] = true;
      return true;
    }
  }
  return false;
}

std::optional<std::optional<std::string>> Args::take_eq_flag(
    const std::string& name) {
  const std::string prefix = name + "=";
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (consumed_[i]) continue;
    if (tokens_[i] == name) {
      consumed_[i] = true;
      return std::optional<std::string>{};  // bare flag, no value
    }
    if (util::starts_with(tokens_[i], prefix)) {
      consumed_[i] = true;
      std::string value = tokens_[i].substr(prefix.size());
      if (value.empty()) return std::optional<std::string>{};
      return std::optional<std::string>(std::move(value));
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Args::take_u64(const std::string& name,
                                             std::uint64_t lo,
                                             std::uint64_t hi) {
  const auto value = take_value(name);
  if (!value) return std::nullopt;
  const auto parsed = util::parse_u64(*value);
  if (!parsed) {
    error_ = name + " expects an integer, got '" + *value + "'";
    return std::nullopt;
  }
  if (*parsed < lo || *parsed > hi) {
    error_ = name + " must be in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
    return std::nullopt;
  }
  return parsed;
}

std::vector<std::string> Args::positionals() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (!consumed_[i] && !util::starts_with(tokens_[i], "--")) {
      out.push_back(tokens_[i]);
    }
  }
  return out;
}

std::optional<std::string> Args::unknown_flag() const {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (!consumed_[i] && util::starts_with(tokens_[i], "--")) {
      return tokens_[i];
    }
  }
  return std::nullopt;
}

// ----------------------------------------------------------------------
// shared helpers
// ----------------------------------------------------------------------

namespace {

// --format v2|v3: container format for files this command writes. An
// absent flag leaves `format` as it is; a bad value is a usage error
// (written to `err`, returns false).
bool apply_format(const std::optional<std::string>& spec,
                  std::uint8_t& format, std::ostream& err) {
  if (!spec) return true;
  if (*spec == "v2" || *spec == "2") {
    format = dataset::kWartsLiteVersion;
  } else if (*spec == "v3" || *spec == "3") {
    format = dataset::kPackVersion;
  } else {
    err << "--format must be v2 or v3, got '" << *spec << "'\n";
    return false;
  }
  return true;
}

// --small: a world a few hundred traces big, for smoke runs and tests.
void apply_small_world(gen::GenConfig& gen) {
  gen.background_transit = 8;
  gen.stub_ases = 12;
  gen.monitors = 6;
  gen.dests_per_monitor = 150;
}

// Flush a file the command wrote and check that every byte landed: a full
// disk (or /dev/full) only fails at flush time. On failure the error goes
// to `err` and the command exits kExitFatal.
bool finish_file(std::ofstream& os, const fs::path& path, std::ostream& err) {
  os.close();
  if (os) return true;
  err << "cannot write " << path.string() << '\n';
  return false;
}

// --scale routers=N[,lsps=M]: world-size targets; k/m suffixes accepted
// (routers=100k, lsps=1m). Returns false + error message on bad input.
bool parse_scale_spec(const std::string& text, gen::GenConfig& gen,
                      std::string* error) {
  for (const std::string_view part : util::split(text, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string_view::npos) {
      *error = "--scale expects key=value pairs, got '" + std::string(part) +
               "'";
      return false;
    }
    const std::string key(part.substr(0, eq));
    std::string value(part.substr(eq + 1));
    std::uint64_t mult = 1;
    if (!value.empty() && (value.back() == 'k' || value.back() == 'K')) {
      mult = 1000;
      value.pop_back();
    } else if (!value.empty() && (value.back() == 'm' || value.back() == 'M')) {
      mult = 1000000;
      value.pop_back();
    }
    const auto parsed = util::parse_u64(value);
    if (!parsed) {
      *error = "--scale " + key + " expects an integer, got '" +
               std::string(part.substr(eq + 1)) + "'";
      return false;
    }
    if (key == "routers") {
      gen.scale_routers = *parsed * mult;
    } else if (key == "lsps") {
      gen.scale_lsps = *parsed * mult;
    } else {
      *error = "--scale knows routers=/lsps=, got '" + key + "'";
      return false;
    }
  }
  return true;
}

// --churn link=P,metric=P,router=P,resignal=P: per-cycle delta
// probabilities (plain decimals, e.g. link=0.02).
bool parse_churn_spec(const std::string& text, gen::GenConfig& gen,
                      std::string* error) {
  for (const std::string_view part : util::split(text, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string_view::npos) {
      *error = "--churn expects key=value pairs, got '" + std::string(part) +
               "'";
      return false;
    }
    const std::string key(part.substr(0, eq));
    const std::string value(part.substr(eq + 1));
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
      *error = "--churn " + key + " expects a probability in [0,1], got '" +
               value + "'";
      return false;
    }
    if (key == "link") {
      gen.churn.link_down_prob = p;
    } else if (key == "metric") {
      gen.churn.metric_change_prob = p;
    } else if (key == "router") {
      gen.churn.router_down_prob = p;
    } else if (key == "resignal") {
      gen.churn.te_resignal_prob = p;
    } else {
      *error = "--churn knows link=/metric=/router=/resignal=, got '" + key +
               "'";
      return false;
    }
  }
  return true;
}

std::optional<dataset::Ip2As> load_ip2as(const std::string& path,
                                         std::ostream& err) {
  std::ifstream is(path);
  if (!is) {
    err << "cannot open " << path << '\n';
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  auto table = dataset::ip2as_from_text(buffer.str());
  if (!table) err << path << ": malformed ip2as table\n";
  return table;
}

// Load + annotate the snapshots named on the command line. The first file
// is the cycle; the rest feed the Persistence filter.
struct LoadedData {
  dataset::Ip2As ip2as;
  std::vector<dataset::SnapshotBatch> snapshots;
  // What the decoder skipped across all files (clean in strict mode).
  dataset::DecodeDiagnostics decode;
};

struct LoadResult {
  std::optional<LoadedData> data;
  int fail_code = kExitFatal;  // meaningful only when !data
};

// Consumes --tolerant/--strict along with the input flags. Strict (the
// default) aborts on the first malformed record; tolerant skips and counts.
// Files stream through a dataset::SnapshotSource, so both container
// formats (and mixes of them) load through one path, with shard N+1
// prefetched while shard N decodes when a pool is supplied.
LoadResult load_inputs(Args& args, std::ostream& err, bool need_ip2as,
                       util::ThreadPool* pool = nullptr) {
  const bool tolerant = args.take_flag("--tolerant");
  const bool strict = args.take_flag("--strict");
  if (tolerant && strict) {
    err << "--tolerant and --strict are mutually exclusive\n";
    return {std::nullopt, kExitUsage};
  }

  LoadedData data;
  if (need_ip2as) {
    const auto ip2as_path = args.take_value("--ip2as");
    if (!ip2as_path) {
      err << "--ip2as FILE is required\n";
      return {std::nullopt, kExitUsage};
    }
    auto table = load_ip2as(*ip2as_path, err);
    if (!table) return {std::nullopt, kExitFatal};
    data.ip2as = std::move(*table);
  }
  const auto files = args.positionals();
  if (files.empty()) {
    err << "no snapshot files given\n";
    return {std::nullopt, kExitUsage};
  }
  dataset::SnapshotSource source(
      files, dataset::DecodeOptions{.tolerant = tolerant}, pool);
  dataset::AsnCache asn_cache;
  while (auto snap = source.next()) {
    const dataset::DecodeDiagnostics& diag = source.last_diagnostics();
    if (!diag.clean()) {
      err << source.last_path() << ": salvaged " << diag.records_decoded
          << " records, skipped " << diag.records_skipped << " ("
          << diag.faults_total() << " faults)\n";
    }
    data.ip2as.annotate(*snap, asn_cache);
    data.snapshots.push_back(std::move(*snap));
  }
  if (source.failed()) {
    err << source.error();
    const dataset::DecodeDiagnostics& diag = source.last_diagnostics();
    if (!diag.samples.empty()) {
      const dataset::DecodeFault& first = diag.samples.front();
      err << " (" << dataset::to_cstring(first.fault) << " at offset "
          << first.offset << ": " << first.detail << ")";
    }
    err << '\n';
    return {std::nullopt, kExitFatal};
  }
  data.decode = source.diagnostics();
  return {std::move(data), kExitOk};
}

// Unknown flags are a usage error for every subcommand (they used to be
// warned about and silently ignored). Each subcommand calls this once all
// its known flags have been consumed.
bool reject_unknown(const Args& args, std::ostream& err) {
  if (const auto unknown = args.unknown_flag()) {
    err << "error: unknown flag " << *unknown << '\n';
    return true;
  }
  return false;
}

// --threads N: 0 (default) = one per hardware thread, 1 = serial. Output is
// identical at any thread count (the generation/classification layers merge
// per-worker results deterministically).
util::ThreadPool make_pool(Args& args) {
  return util::ThreadPool(
      static_cast<unsigned>(args.take_int("--threads", 0)));
}

// Route the engine's obs::log output into this invocation's err stream at
// the requested level; restore the process defaults on scope exit (tests
// call cli::run repeatedly against short-lived ostringstreams).
class ScopedLogConfig {
 public:
  ScopedLogConfig(std::ostream* sink, obs::LogLevel level) {
    obs::set_log_sink(sink);
    obs::set_log_level(level);
  }
  ~ScopedLogConfig() {
    obs::set_log_sink(&std::cerr);
    obs::set_log_level(obs::LogLevel::kInfo);
  }
};

// Install a JSONL trace sink process-wide; uninstall before the log's own
// destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(std::unique_ptr<obs::TraceLog> log)
      : log_(std::move(log)) {
    if (log_) obs::set_trace(log_.get());
  }
  ~ScopedTrace() {
    if (log_) obs::set_trace(nullptr);
  }
  // False when the installed log lost a write.
  bool flush() { return !log_ || log_->flush(); }

 private:
  std::unique_ptr<obs::TraceLog> log_;
};

}  // namespace

// ----------------------------------------------------------------------
// generate
// ----------------------------------------------------------------------

int run_generate(Args& args, std::ostream& out, std::ostream& err) {
  const auto out_dir = args.take_value("--out");
  const int cycle = args.take_int("--cycle", 60, 1, gen::kCycles);
  const auto seed = args.take_int<std::uint64_t>("--seed", 20151028);
  const int snapshots = args.take_int(
      "--snapshots", 3, 1, std::numeric_limits<int>::max());
  const bool small = args.take_flag("--small");
  const auto format_spec = args.take_value("--format");
  util::ThreadPool pool = make_pool(args);
  if (!args.ok()) {
    err << args.error() << '\n';
    return kExitUsage;
  }
  if (reject_unknown(args, err)) return kExitUsage;
  if (!out_dir) {
    err << "--out DIR is required\n";
    return kExitUsage;
  }
  std::uint8_t format = dataset::kWartsLiteVersion;
  if (!apply_format(format_spec, format, err)) return kExitUsage;

  gen::GenConfig config;
  config.seed = seed;
  if (small) apply_small_world(config);
  gen::Internet internet(config);
  const auto ip2as = internet.build_ip2as();

  gen::CampaignConfig campaign;
  campaign.extra_snapshots = snapshots - 1;
  const auto month = gen::CampaignRunner(internet, ip2as, campaign, &pool)
                         .month(cycle - 1);

  fs::create_directories(*out_dir);
  for (const auto& snap : month.snapshots) {
    const fs::path file =
        fs::path(*out_dir) /
        ("cycle" + std::to_string(snap.cycle_id + 1) + "_s" +
         std::to_string(snap.sub_index) + dataset::snapshot_extension(format));
    std::ofstream os(file, std::ios::binary);
    const std::string bytes = dataset::serialize_snapshot(snap, format);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!finish_file(os, file, err)) return kExitFatal;
    out << "wrote " << file.string() << " (" << snap.trace_count()
        << " traces)\n";
  }
  const fs::path table_file = fs::path(*out_dir) / "ip2as.txt";
  std::ofstream ts(table_file);
  ts << dataset::to_table_text(ip2as);
  if (!finish_file(ts, table_file, err)) return kExitFatal;
  out << "wrote " << table_file.string() << " (" << ip2as.prefix_count()
      << " prefixes)\n";
  return kExitOk;
}

// ----------------------------------------------------------------------
// classify
// ----------------------------------------------------------------------

int run_classify(Args& args, std::ostream& out, std::ostream& err) {
  const int j = args.take_int("--j", 2);
  const bool alias = args.take_flag("--alias");
  const bool router_level = args.take_flag("--router-level");
  const bool csv = args.take_flag("--csv");
  const bool json = args.take_flag("--json");
  const bool json_iotps = args.take_flag("--json-iotps");
  util::ThreadPool pool = make_pool(args);
  auto loaded = load_inputs(args, err, /*need_ip2as=*/true, &pool);
  if (!args.ok()) {
    err << args.error() << '\n';
    return kExitUsage;
  }
  if (reject_unknown(args, err)) return kExitUsage;
  if (!loaded.data) return loaded.fail_code;
  LoadedData& data = *loaded.data;

  dataset::MonthData month;
  month.cycle_id = data.snapshots.front().cycle_id;
  month.date = data.snapshots.front().date;
  month.snapshots = std::move(data.snapshots);

  // One pass: extract and filter once; --router-level only rewrites the
  // filtered observations (Sec.-5 extension: passive alias inference over
  // the cycle data, endpoints canonicalized) before the one classify tail.
  lpr::ExtractedMonth extracted = lpr::extract_month(month, data.ip2as, &pool);
  lpr::FilteredCycle filtered = lpr::apply_filters(
      std::move(extracted.cycle), extracted.following, {.persistence_j = j});
  std::size_t alias_sets = 0;
  if (router_level) {
    const lpr::LabelAliasResolver resolver(filtered.observations,
                                           month.cycle());
    alias_sets = resolver.alias_sets().size();
    filtered.observations =
        lpr::to_router_level(std::move(filtered.observations), resolver);
  }
  lpr::CycleReport report = lpr::classify_cycle(
      std::move(filtered), {.alias_resolution_heuristic = alias}, &pool);
  report.decode = std::move(data.decode);
  if (router_level && !csv) {
    out << "(router-level IOTPs: " << alias_sets << " alias sets inferred)\n";
  }

  if (json || json_iotps) {
    out << report.to_json(json_iotps) << '\n';
    return kExitOk;
  }

  if (csv) {
    lpr::write_class_table(out, report.global, /*csv=*/true);
  } else {
    report.to_table(out);
  }
  return kExitOk;
}

// ----------------------------------------------------------------------
// trees
// ----------------------------------------------------------------------

int run_trees(Args& args, std::ostream& out, std::ostream& err) {
  auto loaded = load_inputs(args, err, /*need_ip2as=*/true);
  if (reject_unknown(args, err)) return kExitUsage;
  if (!loaded.data) return loaded.fail_code;
  LoadedData& data = *loaded.data;

  // Same filtering as classify (Persistence runs only with following
  // snapshots), grouped by egress instead of by IOTP.
  dataset::MonthData month;
  month.snapshots = std::move(data.snapshots);
  lpr::ExtractedMonth extracted = lpr::extract_month(month, data.ip2as);
  const auto filtered = lpr::apply_filters(std::move(extracted.cycle),
                                           extracted.following, {});

  const auto trees = lpr::build_egress_trees(filtered.observations);
  const auto stats = lpr::summarize(trees);
  out << stats.trees << " egress-rooted trees over " << stats.branches_total
      << " branches\n";
  util::TextTable table({"tree class", "count"});
  table.add_row({"Single-Branch", util::TextTable::fmt_int(
                                      static_cast<std::int64_t>(
                                          stats.single_branch))});
  table.add_row({"LDP-Consistent", util::TextTable::fmt_int(
                                       static_cast<std::int64_t>(
                                           stats.ldp_consistent))});
  table.add_row({"Multi-FEC", util::TextTable::fmt_int(
                                  static_cast<std::int64_t>(
                                      stats.multi_fec))});
  out << table;
  return kExitOk;
}

// ----------------------------------------------------------------------
// stats
// ----------------------------------------------------------------------

int run_stats(Args& args, std::ostream& out, std::ostream& err) {
  auto loaded = load_inputs(args, err, /*need_ip2as=*/false);
  if (reject_unknown(args, err)) return kExitUsage;
  if (!loaded.data) return loaded.fail_code;
  LoadedData& data = *loaded.data;

  util::TextTable table({"snapshot", "traces", "w/ tunnel", "share",
                         "LSPs", "incomplete"});
  auto add_row = [&](const std::string& label, const lpr::ExtractStats& s) {
    table.add_row(
        {label,
         util::TextTable::fmt_int(static_cast<std::int64_t>(s.traces_total)),
         util::TextTable::fmt_int(static_cast<std::int64_t>(
             s.traces_with_explicit_tunnel)),
         s.traces_total
             ? util::TextTable::fmt(
                   static_cast<double>(s.traces_with_explicit_tunnel) /
                       static_cast<double>(s.traces_total),
                   3)
             : "-",
         util::TextTable::fmt_int(static_cast<std::int64_t>(
             s.lsps_observed)),
         util::TextTable::fmt_int(static_cast<std::int64_t>(
             s.lsps_incomplete))});
  };
  lpr::ExtractStats total;
  for (const auto& snap : data.snapshots) {
    dataset::Ip2As empty;
    const auto extracted = lpr::extract_lsps(snap, empty);
    add_row(snap.date + "#" + std::to_string(snap.sub_index),
            extracted.stats);
    total.merge(extracted.stats);
  }
  if (data.snapshots.size() > 1) add_row("total", total);
  out << table;
  return kExitOk;
}

// ----------------------------------------------------------------------
// campaign
// ----------------------------------------------------------------------

int run_campaign(Args& args, std::ostream& out, std::ostream& err) {
  const int cycles = args.take_int("--cycles", 12, 1, gen::kCycles);
  const auto seed = args.take_int<std::uint64_t>("--seed", 20151028);
  const int threads = args.take_int("--threads", 0);
  const int failure_budget = args.take_int("--failure-budget", -1);
  const int retry = args.take_int("--retry", 0);
  const auto cycle_deadline =
      args.take_int<std::uint32_t>("--cycle-deadline", 0);
  const bool small = args.take_flag("--small");
  const bool keep_going = args.take_flag("--keep-going");
  const bool json = args.take_flag("--json");
  const bool quiet = args.take_flag("--quiet");
  const bool verbose = args.take_flag("--verbose");
  const bool checkpoint_data = args.take_flag("--checkpoint-data");
  const auto chaos_spec = args.take_value("--chaos");
  const auto checkpoint_dir = args.take_value("--checkpoints");
  const auto resume_dir = args.take_value("--resume");
  const auto format_spec = args.take_value("--format");
  const auto telemetry = args.take_eq_flag("--telemetry");
  const auto trace_out = args.take_value("--trace-out");
  const auto scale_spec = args.take_value("--scale");
  const auto churn_spec = args.take_value("--churn");
  if (!args.ok()) {
    err << args.error() << '\n';
    return kExitUsage;
  }
  if (reject_unknown(args, err)) return kExitUsage;
  if (quiet && verbose) {
    err << "--quiet and --verbose are mutually exclusive\n";
    return kExitUsage;
  }
  if (checkpoint_dir && resume_dir && *checkpoint_dir != *resume_dir) {
    err << "--checkpoints and --resume name different directories\n";
    return kExitUsage;
  }

  run::RunnerConfig config;
  config.gen.seed = seed;
  if (scale_spec) {
    std::string error;
    if (!parse_scale_spec(*scale_spec, config.gen, &error)) {
      err << error << '\n';
      return kExitUsage;
    }
  }
  if (churn_spec) {
    std::string error;
    if (!parse_churn_spec(*churn_spec, config.gen, &error)) {
      err << error << '\n';
      return kExitUsage;
    }
  }
  if (small) apply_small_world(config.gen);
  config.first_cycle = 0;
  config.last_cycle = cycles - 1;
  config.threads = threads;
  config.keep_going = keep_going;
  config.failure_budget = failure_budget;
  config.retries = retry;
  config.cycle_deadline_ms = cycle_deadline;
  if (resume_dir) {
    config.checkpoint_dir = *resume_dir;
    config.resume = true;
  } else if (checkpoint_dir) {
    config.checkpoint_dir = *checkpoint_dir;
  }
  config.checkpoint_data = checkpoint_data;
  if (checkpoint_data && config.checkpoint_dir.empty()) {
    err << "--checkpoint-data requires --checkpoints or --resume\n";
    return kExitUsage;
  }
  if (!apply_format(format_spec, config.snapshot_format, err)) {
    return kExitUsage;
  }
  if (chaos_spec) {
    std::string error;
    const auto chaos = chaos::parse_chaos_spec(*chaos_spec, &error);
    if (!chaos) {
      err << error << '\n';
      return kExitUsage;
    }
    config.chaos = *chaos;
  }

  // Telemetry is observed state only: the registry, trace and log sinks
  // never feed back into the pipeline, so reports stay byte-identical with
  // any combination of these flags.
  const ScopedLogConfig log_config(
      quiet ? nullptr : &err,
      verbose ? obs::LogLevel::kDebug : obs::LogLevel::kInfo);
  std::unique_ptr<obs::TraceLog> trace_log;
  if (trace_out) {
    trace_log = obs::TraceLog::open(*trace_out);
    if (!trace_log) {
      err << "cannot write " << *trace_out << '\n';
      return kExitFatal;
    }
  }
  ScopedTrace trace_scope(std::move(trace_log));
  // Fresh counters: the dump below covers this campaign alone, even when
  // several invocations share the process (tests drive cli::run directly).
  obs::registry().reset();

  run::RunOutcome outcome;
  try {
    const run::Runner runner(config);
    outcome = runner.run_all_contained();
  } catch (const std::exception& e) {
    err << "fatal: " << e.what() << '\n';
    return kExitFatal;
  }

  if (json) {
    out << "{\"report\":" << outcome.report.to_json()
        << ",\"manifest\":" << outcome.manifest.to_json() << "}\n";
  } else {
    outcome.report.to_table(out);
  }
  if (!config.checkpoint_dir.empty()) {
    // A run whose cycles never persisted anything (all timed out, say)
    // still owes the directory its manifest.
    std::error_code ec;
    fs::create_directories(config.checkpoint_dir, ec);
    const fs::path manifest_file =
        fs::path(config.checkpoint_dir) / "manifest.json";
    std::ofstream ms(manifest_file);
    ms << outcome.manifest.to_json() << '\n';
    if (!finish_file(ms, manifest_file, err)) return kExitFatal;
  }
  if (telemetry) {
    // Registry snapshot at end of run: to the named file, or to the err
    // stream when the flag is bare (stdout stays machine-parsed report).
    const std::string snapshot = obs::registry().to_json();
    if (*telemetry) {
      std::ofstream ts(**telemetry);
      ts << snapshot << '\n';
      if (!finish_file(ts, **telemetry, err)) return kExitFatal;
    } else {
      err << snapshot << '\n';
    }
  }
  if (!trace_scope.flush()) {
    err << "cannot write " << *trace_out << '\n';
    return kExitFatal;
  }

  const run::RunManifest& manifest = outcome.manifest;
  if (!quiet) {
    err << "cycles: " << manifest.count(run::CycleOutcome::kOk) << " ok, "
        << manifest.count(run::CycleOutcome::kFromCheckpoint)
        << " from checkpoint, ";
    if (const auto from_data = manifest.count(run::CycleOutcome::kFromData)) {
      err << from_data << " from data, ";
    }
    err << manifest.count(run::CycleOutcome::kFailed) << " failed, "
        << manifest.count(run::CycleOutcome::kSkipped) << " skipped";
    if (const auto timed_out = manifest.count(run::CycleOutcome::kTimedOut)) {
      err << ", " << timed_out << " timed out";
    }
    if (const auto retries = manifest.retries_total()) {
      err << "; " << retries << " retries";
    }
    const std::uint64_t injected = manifest.chaos_total().total();
    if (injected > 0) err << "; " << injected << " chaos faults injected";
    if (manifest.io.total_injected() > 0) {
      err << "; " << manifest.io.total_injected() << "/" << manifest.io.ops
          << " io ops faulted";
    }
    if (manifest.degraded()) {
      err << "; degraded";
      if (!manifest.degraded_reason.empty()) {
        err << " (" << manifest.degraded_reason << ")";
      }
    }
    err << '\n';
  }
  // Exit mapping: the report's completeness first, then operational health.
  // A degraded-complete run (4) produced every report byte; an aborted run
  // (5) never attempted some cycles; a partial run (2) attempted everything
  // but contained failures.
  if (manifest.complete()) {
    return manifest.degraded() ? kExitDegraded : kExitOk;
  }
  return manifest.count(run::CycleOutcome::kSkipped) > 0 ? kExitAborted
                                                         : kExitPartial;
}

// ----------------------------------------------------------------------
// dispatch
// ----------------------------------------------------------------------

std::string usage() {
  return
      "mum — MPLS tunnel classification (LPR) toolkit\n"
      "\n"
      "usage: mum <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate  --out DIR [--cycle N] [--seed S] [--snapshots K]\n"
      "            [--small] [--format v2|v3] [--threads N]\n"
      "                           synthesize an Archipelago-style month\n"
      "  classify  --ip2as FILE SNAP [SNAP...] [--j N] [--alias]\n"
      "            [--router-level] [--csv] [--json | --json-iotps]\n"
      "            [--tolerant | --strict] [--threads N]\n"
      "                           run LPR (filters + Algorithm 1)\n"
      "  trees     --ip2as FILE SNAP [SNAP...] [--tolerant | --strict]\n"
      "                           egress-rooted LSP-tree analysis (Sec. 5)\n"
      "  stats     SNAP [SNAP...] [--tolerant | --strict]\n"
      "                           dataset-level statistics\n"
      "  campaign  [--cycles N] [--seed S] [--small] [--threads N]\n"
      "            [--scale routers=N[,lsps=M]]\n"
      "            [--churn link=P,metric=P,router=P,resignal=P]\n"
      "            [--chaos SPEC] [--keep-going] [--failure-budget N]\n"
      "            [--retry N] [--cycle-deadline MS]\n"
      "            [--checkpoints DIR] [--resume DIR] [--checkpoint-data]\n"
      "            [--format v2|v3] [--json] [--quiet | --verbose]\n"
      "            [--telemetry[=FILE]] [--trace-out FILE]\n"
      "                           end-to-end campaign with containment\n"
      "\n"
      "--strict (the default) aborts on the first malformed record;\n"
      "--tolerant skips malformed records and reports what was dropped.\n"
      "--format picks the container written to disk: v2 is the varint\n"
      "stream (interchange default), v3 the mmap-able columnar pack.\n"
      "Readers sniff the magic, so any command reads either format.\n"
      "--chaos takes fault=rate pairs, e.g. 'all=2%' or\n"
      "'flip=0.01,blackout=5%,fail=0.1,seed=7'. io.* keys inject faults\n"
      "into the I/O layer itself (checkpoint/shard reads and writes):\n"
      "io.eio, io.enospc, io.shortwrite, io.torn, io.stalerename, io.slow\n"
      "(or io.all=RATE for all six), io.slow_ms=N sizes the stall, and\n"
      "io.kill_at=K + io.kill_mode=kill|dead crash or deaden the process\n"
      "at the K-th I/O op (crash-recovery torture). --retry N re-runs a\n"
      "failed cycle up to N times (fresh io fault draws per attempt; report\n"
      "bytes never depend on attempts); --cycle-deadline MS abandons a\n"
      "cycle as timed_out at a cooperative deadline. Corrupt checkpoints\n"
      "and shards are moved to <dir>/quarantine/, never deleted.\n"
      "--threads 0 (the default) uses one thread per hardware thread; any\n"
      "value produces identical output (deterministic parallelism).\n"
      "--scale sizes the world (k/m suffixes: routers=100k,lsps=1m);\n"
      "--churn adds per-cycle topology/label deltas as probabilities\n"
      "(e.g. link=0.02,resignal=0.1).\n"
      "--quiet silences progress, --verbose adds per-cycle detail (both on\n"
      "stderr). --telemetry dumps the metrics registry at end of run (to\n"
      "stderr, or FILE with =FILE); --trace-out writes a JSONL event log.\n"
      "Neither changes a report byte.\n"
      "\n"
      "exit codes: 0 success, 1 usage error, 2 partial run (contained\n"
      "failures), 3 fatal (I/O or undecodable input), 4 degraded-complete\n"
      "(report complete; persistence degraded or state quarantined),\n"
      "5 aborted (failure policy stopped the run; cycles were skipped).\n";
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  if (argc < 2) {
    err << usage();
    return kExitUsage;
  }
  const std::string command = argv[1];
  Args args(argc - 2, argv + 2);

  int code;
  if (command == "generate") {
    code = run_generate(args, out, err);
  } else if (command == "classify") {
    code = run_classify(args, out, err);
  } else if (command == "trees") {
    code = run_trees(args, out, err);
  } else if (command == "stats") {
    code = run_stats(args, out, err);
  } else if (command == "campaign") {
    code = run_campaign(args, out, err);
  } else if (command == "--help" || command == "help") {
    out << usage();
    return kExitOk;
  } else {
    err << "unknown command '" << command << "'\n" << usage();
    return kExitUsage;
  }
  return code;
}

}  // namespace mum::cli
