#include "run/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dataset/pack.h"
#include "dataset/warts_lite.h"  // byte helpers + stream serializer
#include "obs/telemetry.h"
#include "util/io.h"
#include "util/rng.h"  // fnv1a

namespace mum::run {

namespace {

namespace fs = std::filesystem;

using dataset::get_string;
using dataset::get_u32;
using dataset::get_u8;
using dataset::get_varint;
using dataset::put_string;
using dataset::put_u32;
using dataset::put_u8;
using dataset::put_varint;

constexpr char kMagic[4] = {'M', 'U', 'M', 'C'};
// v2: DecodeDiagnostics grew the v3-pack fault classes, changing the counts
// array length baked into the payload. v1 files no longer load (the cycle
// recomputes), which beats misattributing fault counters.
constexpr std::uint8_t kVersion = 2;

// --- primitive writers (the rest are dataset's byte helpers) ---------

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// --- composite writers ---------------------------------------------------

void put_counts(std::string& out, const lpr::ClassCounts& c) {
  put_varint(out, c.mono_lsp);
  put_varint(out, c.multi_fec);
  put_varint(out, c.mono_fec);
  put_varint(out, c.unclassified);
  put_varint(out, c.parallel_links);
  put_varint(out, c.routers_disjoint);
}

std::optional<lpr::ClassCounts> get_counts(const std::string& in,
                                           std::size_t& pos) {
  lpr::ClassCounts c;
  for (std::uint64_t* field :
       {&c.mono_lsp, &c.multi_fec, &c.mono_fec, &c.unclassified,
        &c.parallel_links, &c.routers_disjoint}) {
    const auto v = get_varint(in, pos);
    if (!v) return std::nullopt;
    *field = *v;
  }
  return c;
}

void put_lsp(std::string& out, const lpr::Lsp& lsp) {
  put_varint(out, lsp.asn);
  put_u32(out, lsp.ingress.value());
  put_u32(out, lsp.egress.value());
  put_u8(out, lsp.egress_labeled ? 1 : 0);
  put_varint(out, lsp.lsrs.size());
  for (const lpr::LsrHop& lsr : lsp.lsrs) {
    put_u32(out, lsr.addr.value());
    put_varint(out, lsr.labels.size());
    for (const std::uint32_t label : lsr.labels) put_varint(out, label);
  }
}

std::optional<lpr::Lsp> get_lsp(const std::string& in, std::size_t& pos) {
  lpr::Lsp lsp;
  const auto asn = get_varint(in, pos);
  const auto ingress = get_u32(in, pos);
  const auto egress = get_u32(in, pos);
  const auto labeled = get_u8(in, pos);
  const auto n_lsrs = get_varint(in, pos);
  if (!asn || !ingress || !egress || !labeled || !n_lsrs ||
      *n_lsrs > (in.size() - pos) / 5) {
    return std::nullopt;
  }
  lsp.asn = static_cast<std::uint32_t>(*asn);
  lsp.ingress = net::Ipv4Addr(*ingress);
  lsp.egress = net::Ipv4Addr(*egress);
  lsp.egress_labeled = (*labeled != 0);
  lsp.lsrs.reserve(static_cast<std::size_t>(*n_lsrs));
  for (std::uint64_t i = 0; i < *n_lsrs; ++i) {
    lpr::LsrHop lsr;
    const auto addr = get_u32(in, pos);
    const auto n_labels = get_varint(in, pos);
    if (!addr || !n_labels || *n_labels > in.size() - pos) {
      return std::nullopt;
    }
    lsr.addr = net::Ipv4Addr(*addr);
    lsr.labels.reserve(static_cast<std::size_t>(*n_labels));
    for (std::uint64_t l = 0; l < *n_labels; ++l) {
      const auto label = get_varint(in, pos);
      if (!label) return std::nullopt;
      lsr.labels.push_back(static_cast<std::uint32_t>(*label));
    }
    lsp.lsrs.push_back(std::move(lsr));
  }
  return lsp;
}

void put_iotp(std::string& out, const lpr::IotpRecord& rec) {
  put_varint(out, rec.key.asn);
  put_u32(out, rec.key.ingress.value());
  put_u32(out, rec.key.egress.value());
  put_varint(out, rec.variants.size());
  for (const lpr::Lsp& lsp : rec.variants) put_lsp(out, lsp);
  put_varint(out, rec.dst_asns.size());
  for (const std::uint32_t asn : rec.dst_asns) put_varint(out, asn);
  put_u8(out, static_cast<std::uint8_t>(rec.tunnel_class));
  put_u8(out, static_cast<std::uint8_t>(rec.mono_fec_kind));
  put_u8(out, rec.classified_by_alias_heuristic ? 1 : 0);
  put_varint(out, static_cast<std::uint64_t>(rec.length));
  put_varint(out, static_cast<std::uint64_t>(rec.width));
  put_varint(out, static_cast<std::uint64_t>(rec.symmetry));
}

std::optional<lpr::IotpRecord> get_iotp(const std::string& in,
                                        std::size_t& pos) {
  lpr::IotpRecord rec;
  const auto asn = get_varint(in, pos);
  const auto ingress = get_u32(in, pos);
  const auto egress = get_u32(in, pos);
  if (!asn || !ingress || !egress) return std::nullopt;
  rec.key = {static_cast<std::uint32_t>(*asn), net::Ipv4Addr(*ingress),
             net::Ipv4Addr(*egress)};
  const auto n_variants = get_varint(in, pos);
  if (!n_variants || *n_variants > (in.size() - pos) / 10) {
    return std::nullopt;
  }
  rec.variants.reserve(static_cast<std::size_t>(*n_variants));
  for (std::uint64_t i = 0; i < *n_variants; ++i) {
    auto lsp = get_lsp(in, pos);
    if (!lsp) return std::nullopt;
    rec.variants.push_back(std::move(*lsp));
  }
  const auto n_dsts = get_varint(in, pos);
  if (!n_dsts || *n_dsts > in.size() - pos) return std::nullopt;
  rec.dst_asns.reserve(static_cast<std::size_t>(*n_dsts));
  for (std::uint64_t i = 0; i < *n_dsts; ++i) {
    const auto dst = get_varint(in, pos);
    if (!dst) return std::nullopt;
    rec.dst_asns.push_back(static_cast<std::uint32_t>(*dst));
  }
  const auto tunnel_class = get_u8(in, pos);
  const auto mono_fec = get_u8(in, pos);
  const auto alias = get_u8(in, pos);
  const auto length = get_varint(in, pos);
  const auto width = get_varint(in, pos);
  const auto symmetry = get_varint(in, pos);
  if (!tunnel_class.has_value() || !mono_fec.has_value() ||
      !alias.has_value() || !length.has_value() || !width.has_value() ||
      !symmetry.has_value()) {
    return std::nullopt;
  }
  if (*tunnel_class > 3 || *mono_fec > 2) return std::nullopt;
  rec.tunnel_class = static_cast<lpr::TunnelClass>(*tunnel_class);
  rec.mono_fec_kind = static_cast<lpr::MonoFecKind>(*mono_fec);
  rec.classified_by_alias_heuristic = (*alias != 0);
  rec.length = static_cast<int>(*length);
  rec.width = static_cast<int>(*width);
  rec.symmetry = static_cast<int>(*symmetry);
  return rec;
}

void put_diagnostics(std::string& out,
                     const dataset::DecodeDiagnostics& diag) {
  for (const std::uint64_t c : diag.counts) put_varint(out, c);
  put_varint(out, diag.records_decoded);
  put_varint(out, diag.records_skipped);
  put_varint(out, diag.samples.size());
  for (const dataset::DecodeFault& fault : diag.samples) {
    put_u8(out, static_cast<std::uint8_t>(fault.fault));
    put_varint(out, fault.offset);
    put_varint(out, fault.record);
    put_string(out, fault.detail);
  }
}

std::optional<dataset::DecodeDiagnostics> get_diagnostics(
    const std::string& in, std::size_t& pos) {
  dataset::DecodeDiagnostics diag;
  for (std::uint64_t& c : diag.counts) {
    const auto v = get_varint(in, pos);
    if (!v) return std::nullopt;
    c = *v;
  }
  const auto decoded = get_varint(in, pos);
  const auto skipped = get_varint(in, pos);
  const auto n_samples = get_varint(in, pos);
  if (!decoded || !skipped || !n_samples ||
      *n_samples > dataset::DecodeDiagnostics::kMaxSamples) {
    return std::nullopt;
  }
  diag.records_decoded = *decoded;
  diag.records_skipped = *skipped;
  for (std::uint64_t i = 0; i < *n_samples; ++i) {
    const auto fault = get_u8(in, pos);
    const auto offset = get_varint(in, pos);
    const auto record = get_varint(in, pos);
    auto detail = get_string(in, pos);
    if (!fault || *fault >= dataset::kFaultClassCount || !offset ||
        !record || !detail) {
      return std::nullopt;
    }
    diag.samples.push_back(dataset::DecodeFault{
        static_cast<dataset::FaultClass>(*fault),
        static_cast<std::size_t>(*offset), *record, std::move(*detail)});
  }
  return diag;
}

}  // namespace

std::string serialize_cycle_report(const lpr::CycleReport& report) {
  std::string payload;
  put_varint(payload, report.cycle_id);
  put_string(payload, report.date);

  const lpr::ExtractStats& e = report.extract_stats;
  put_varint(payload, e.traces_total);
  put_varint(payload, e.traces_with_explicit_tunnel);
  put_varint(payload, e.lsps_observed);
  put_varint(payload, e.lsps_incomplete);
  put_varint(payload, e.mpls_ips);
  put_varint(payload, e.non_mpls_ips);

  const lpr::FilterStats& f = report.filter_stats;
  put_varint(payload, f.observed);
  put_varint(payload, f.complete);
  put_varint(payload, f.after_intra_as);
  put_varint(payload, f.after_target_as);
  put_varint(payload, f.after_transit_diversity);
  put_varint(payload, f.after_persistence);

  put_counts(payload, report.global);

  put_varint(payload, report.per_as.size());
  for (const auto& [asn, counts] : report.per_as) {
    put_varint(payload, asn);
    put_counts(payload, counts);
  }
  put_varint(payload, report.dynamic_as.size());
  for (const auto& [asn, dynamic] : report.dynamic_as) {
    put_varint(payload, asn);
    put_u8(payload, dynamic ? 1 : 0);
  }
  put_varint(payload, report.iotps.size());
  for (const lpr::IotpRecord& rec : report.iotps) put_iotp(payload, rec);

  put_diagnostics(payload, report.decode);

  std::string out;
  out.append(kMagic, sizeof kMagic);
  out.push_back(static_cast<char>(kVersion));
  out.append(payload);
  put_u64(out, util::fnv1a(payload));
  return out;
}

std::optional<lpr::CycleReport> parse_cycle_report(const std::string& bytes) {
  if (bytes.size() < sizeof kMagic + 1 + 8 ||
      bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0 ||
      static_cast<std::uint8_t>(bytes[sizeof kMagic]) != kVersion) {
    return std::nullopt;
  }
  const std::string payload =
      bytes.substr(sizeof kMagic + 1, bytes.size() - sizeof kMagic - 1 - 8);
  std::size_t check_pos = bytes.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[check_pos + i]))
              << (8 * i);
  }
  if (stored != util::fnv1a(payload)) return std::nullopt;

  lpr::CycleReport report;
  std::size_t pos = 0;
  const auto cycle_id = get_varint(payload, pos);
  auto date = get_string(payload, pos);
  if (!cycle_id || !date) return std::nullopt;
  report.cycle_id = static_cast<std::uint32_t>(*cycle_id);
  report.date = std::move(*date);

  for (std::uint64_t* field :
       {&report.extract_stats.traces_total,
        &report.extract_stats.traces_with_explicit_tunnel,
        &report.extract_stats.lsps_observed,
        &report.extract_stats.lsps_incomplete,
        &report.extract_stats.mpls_ips,
        &report.extract_stats.non_mpls_ips,
        &report.filter_stats.observed, &report.filter_stats.complete,
        &report.filter_stats.after_intra_as,
        &report.filter_stats.after_target_as,
        &report.filter_stats.after_transit_diversity,
        &report.filter_stats.after_persistence}) {
    const auto v = get_varint(payload, pos);
    if (!v) return std::nullopt;
    *field = *v;
  }

  const auto global = get_counts(payload, pos);
  if (!global) return std::nullopt;
  report.global = *global;

  const auto n_per_as = get_varint(payload, pos);
  if (!n_per_as || *n_per_as > payload.size() - pos) return std::nullopt;
  for (std::uint64_t i = 0; i < *n_per_as; ++i) {
    const auto asn = get_varint(payload, pos);
    const auto counts = get_counts(payload, pos);
    if (!asn || !counts) return std::nullopt;
    report.per_as[static_cast<std::uint32_t>(*asn)] = *counts;
  }
  const auto n_dynamic = get_varint(payload, pos);
  if (!n_dynamic || *n_dynamic > payload.size() - pos) return std::nullopt;
  for (std::uint64_t i = 0; i < *n_dynamic; ++i) {
    const auto asn = get_varint(payload, pos);
    const auto dynamic = get_u8(payload, pos);
    if (!asn || !dynamic) return std::nullopt;
    report.dynamic_as[static_cast<std::uint32_t>(*asn)] = (*dynamic != 0);
  }
  const auto n_iotps = get_varint(payload, pos);
  if (!n_iotps || *n_iotps > payload.size() - pos) return std::nullopt;
  report.iotps.reserve(static_cast<std::size_t>(*n_iotps));
  for (std::uint64_t i = 0; i < *n_iotps; ++i) {
    auto rec = get_iotp(payload, pos);
    if (!rec) return std::nullopt;
    report.iotps.push_back(std::move(*rec));
  }
  const auto diag = get_diagnostics(payload, pos);
  if (!diag) return std::nullopt;
  report.decode = *diag;

  if (pos != payload.size()) return std::nullopt;
  return report;
}

std::string checkpoint_filename(int cycle) {
  return "cycle_" + std::to_string(cycle + 1) + ".mumc";
}

bool write_checkpoint_file(const std::string& dir, int cycle,
                           const lpr::CycleReport& report) {
  static obs::Counter& reports_written =
      obs::registry().counter("checkpoint.reports_written");
  static obs::Counter& bytes_written =
      obs::registry().counter("checkpoint.bytes_written");
  util::io::IoEnv& env = util::io::env();
  if (!env.create_dirs(dir)) return false;
  const std::string name = checkpoint_filename(cycle);
  const std::string final_path = (fs::path(dir) / name).string();
  const std::string tmp_path = (fs::path(dir) / (name + ".tmp")).string();
  const std::string bytes = serialize_cycle_report(report);
  // A failed or torn write leaves its .tmp litter in place — exactly what a
  // real fault leaves, and resume never reads .tmp names. No cleanup op, so
  // env.last_error() still names the failing op when we return.
  if (!env.write_file(tmp_path, bytes)) return false;
  bytes_written.add(bytes.size());
  if (!env.rename_file(tmp_path, final_path)) return false;
  reports_written.inc();
  return true;
}

std::optional<lpr::CycleReport> load_checkpoint_file(const std::string& dir,
                                                     int cycle,
                                                     LoadStatus* status) {
  static obs::Counter& reports_loaded =
      obs::registry().counter("checkpoint.reports_loaded");
  static obs::Counter& load_failures =
      obs::registry().counter("checkpoint.load_failures");
  const auto set = [&](LoadStatus s) {
    if (status != nullptr) *status = s;
  };
  util::io::IoEnv& env = util::io::env();
  const std::string path =
      (fs::path(dir) / checkpoint_filename(cycle)).string();
  const auto bytes = env.read_file(path);
  if (!bytes) {
    // Absent is normal (no failure counted); a failed read is not corrupt —
    // nothing on disk says the file is bad, so it must not be quarantined.
    set(env.last_error() == util::io::Error::kNone ? LoadStatus::kMissing
                                                   : LoadStatus::kIoError);
    return std::nullopt;
  }
  auto report = parse_cycle_report(*bytes);
  set(report ? LoadStatus::kOk : LoadStatus::kCorrupt);
  (report ? reports_loaded : load_failures).inc();
  return report;
}

std::string data_shard_filename(int cycle, std::size_t sub,
                                std::uint8_t format) {
  return "cycle_" + std::to_string(cycle + 1) + "_s" + std::to_string(sub) +
         dataset::snapshot_extension(format);
}

bool write_data_shard(const std::string& dir, int cycle, std::size_t sub,
                      const dataset::SnapshotBatch& snapshot,
                      std::uint8_t format) {
  static obs::Counter& shards_written =
      obs::registry().counter("checkpoint.shards_written");
  static obs::Counter& bytes_written =
      obs::registry().counter("checkpoint.bytes_written");
  util::io::IoEnv& env = util::io::env();
  if (!env.create_dirs(dir)) return false;
  const std::string name = data_shard_filename(cycle, sub, format);
  const std::string final_path = (fs::path(dir) / name).string();
  const std::string tmp_path = (fs::path(dir) / (name + ".tmp")).string();
  const std::string bytes = dataset::serialize_snapshot(snapshot, format);
  if (!env.write_file(tmp_path, bytes)) return false;
  bytes_written.add(bytes.size());
  if (!env.rename_file(tmp_path, final_path)) return false;
  shards_written.inc();
  return true;
}

std::vector<std::string> find_data_shards(const std::string& dir, int cycle) {
  std::vector<std::string> paths;
  for (std::size_t sub = 0;; ++sub) {
    bool found = false;
    for (const std::uint8_t format :
         {dataset::kWartsLiteVersion, dataset::kPackVersion}) {
      const fs::path path =
          fs::path(dir) / data_shard_filename(cycle, sub, format);
      std::error_code ec;
      if (fs::is_regular_file(path, ec)) {
        paths.push_back(path.string());
        found = true;
        break;
      }
    }
    if (!found) break;
  }
  return paths;
}

}  // namespace mum::run
