#include "core/report.h"

#include <ostream>
#include <utility>

#include "core/metrics.h"
#include "obs/telemetry.h"
#include "util/json.h"
#include "util/table.h"

namespace mum::lpr {

ClassCounts CycleReport::as_counts(std::uint32_t asn) const {
  const auto it = per_as.find(asn);
  return it == per_as.end() ? ClassCounts{} : it->second;
}

void write_class_table(std::ostream& os, const ClassCounts& counts,
                       bool csv) {
  util::TextTable table({"class", "IOTPs", "share"});
  const double total = static_cast<double>(counts.total());
  auto row = [&](const char* name, std::uint64_t n) {
    table.add_row({name,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(n)),
                   total > 0 ? util::TextTable::fmt(n / total, 3) : "-"});
  };
  row("Mono-LSP", counts.mono_lsp);
  row("Multi-FEC", counts.multi_fec);
  row("Mono-FEC", counts.mono_fec);
  row("  parallel-links", counts.parallel_links);
  row("  routers-disjoint", counts.routers_disjoint);
  row("Unclassified", counts.unclassified);
  os << (csv ? table.render_csv() : table.render());
}

void CycleReport::to_table(std::ostream& os) const {
  os << "cycle " << cycle_id + 1 << " (" << date << "): "
     << filter_stats.observed << " LSPs observed, "
     << filter_stats.after_persistence << " kept after filtering, "
     << iotps.size() << " IOTPs\n\n";
  write_class_table(os, global);

  os << '\n';
  util::TextTable table({"AS", "IOTPs", "Mono-LSP", "Multi-FEC", "Mono-FEC",
                         "Unclass.", "dynamic"});
  for (const auto& [asn, counts] : per_as) {
    const double t = static_cast<double>(counts.total());
    auto pct = [&](std::uint64_t n) {
      return t > 0 ? util::TextTable::fmt(n / t, 2) : std::string("-");
    };
    const auto dyn = dynamic_as.find(asn);
    table.add_row({"AS" + std::to_string(asn),
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       counts.total())),
                   pct(counts.mono_lsp), pct(counts.multi_fec),
                   pct(counts.mono_fec), pct(counts.unclassified),
                   dyn != dynamic_as.end() && dyn->second ? "yes" : ""});
  }
  os << table;
}

void LongitudinalReport::to_table(std::ostream& os) const {
  util::TextTable table({"cycle", "date", "IOTPs", "Mono-LSP", "Multi-FEC",
                         "Mono-FEC", "Unclass."});
  for (const CycleReport& cycle : cycles) {
    const double total = static_cast<double>(cycle.global.total());
    auto pct = [&](std::uint64_t n) {
      return total > 0 ? util::TextTable::fmt(n / total, 2)
                       : std::string("-");
    };
    table.add_row({std::to_string(cycle.cycle_id + 1), cycle.date,
                   util::TextTable::fmt_int(static_cast<std::int64_t>(
                       cycle.global.total())),
                   pct(cycle.global.mono_lsp), pct(cycle.global.multi_fec),
                   pct(cycle.global.mono_fec),
                   pct(cycle.global.unclassified)});
  }
  os << table;
}

CycleReport classify_cycle(FilteredCycle cycle, const ClassifyConfig& config,
                           util::ThreadPool* pool) {
  static obs::Counter& pipeline_runs =
      obs::registry().counter("lpr.pipeline_runs");
  static obs::Counter& traces = obs::registry().counter("lpr.traces");
  static obs::Counter& lsps = obs::registry().counter("lpr.lsps_observed");
  pipeline_runs.inc();
  traces.add(cycle.extract.traces_total);
  lsps.add(cycle.extract.lsps_observed);

  CycleReport report;
  report.cycle_id = cycle.cycle_id;
  report.date = std::move(cycle.date);
  report.extract_stats = cycle.extract;
  report.filter_stats = cycle.stats;
  report.iotps = group_iotps(std::move(cycle.observations));
  report.global = classify_all(report.iotps, config, pool);
  for (const IotpRecord& rec : report.iotps) {
    report.per_as[rec.key.asn].add(rec);
  }
  for (const std::uint32_t asn : cycle.dynamic_asns) {
    report.dynamic_as[asn] = true;
  }
  return report;
}

CycleReport run_pipeline(const dataset::MonthData& month,
                         const dataset::Ip2As& ip2as,
                         const PipelineConfig& config,
                         util::ThreadPool* pool) {
  ExtractedMonth extracted = extract_month(month, ip2as, pool);
  return classify_cycle(apply_filters(std::move(extracted.cycle),
                                      extracted.following, config.filter),
                        config.classify, pool);
}

std::vector<LongitudinalReport::AsSeriesPoint>
LongitudinalReport::as_series(std::uint32_t asn) const {
  std::vector<AsSeriesPoint> out;
  out.reserve(cycles.size());
  for (const CycleReport& report : cycles) {
    AsSeriesPoint point;
    point.cycle_id = report.cycle_id;
    point.counts = report.as_counts(asn);
    const auto it = report.dynamic_as.find(asn);
    point.dynamic_tag = it != report.dynamic_as.end() && it->second;
    out.push_back(point);
  }
  return out;
}

// --- JSON forms: the machine-readable counterpart of the text tables, for
// external plotting of the paper's figures. ---

namespace {

void write_counts(util::JsonWriter& json, const ClassCounts& counts) {
  const std::uint64_t total = counts.total();
  json.begin_object();
  json.field("total", total);
  json.field("mono_lsp", counts.mono_lsp);
  json.field("multi_fec", counts.multi_fec);
  json.field("mono_fec", counts.mono_fec);
  json.field("parallel_links", counts.parallel_links);
  json.field("routers_disjoint", counts.routers_disjoint);
  json.field("unclassified", counts.unclassified);
  // Class shares, guarded: an empty cycle emits explicit zeros, never NaN.
  json.key("shares");
  json.begin_object();
  json.field("mono_lsp", safe_ratio(counts.mono_lsp, total));
  json.field("multi_fec", safe_ratio(counts.multi_fec, total));
  json.field("mono_fec", safe_ratio(counts.mono_fec, total));
  json.field("unclassified", safe_ratio(counts.unclassified, total));
  json.end_object();
  json.end_object();
}

void write_per_as(util::JsonWriter& json, const CycleReport& report) {
  json.begin_array();
  for (const auto& [asn, counts] : report.per_as) {
    json.begin_object();
    json.field("asn", asn);
    const auto dyn = report.dynamic_as.find(asn);
    json.field("dynamic", dyn != report.dynamic_as.end() && dyn->second);
    json.key("classes");
    write_counts(json, counts);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

std::string CycleReport::to_json(bool include_iotps) const {
  util::JsonWriter json;
  json.begin_object();
  json.field("cycle", cycle_id + 1);  // 1-based, as the paper counts
  json.field("date", date);

  json.key("extract");
  json.begin_object();
  json.field("traces", extract_stats.traces_total);
  json.field("traces_with_tunnel",
             extract_stats.traces_with_explicit_tunnel);
  json.field("mpls_ips", extract_stats.mpls_ips);
  json.field("non_mpls_ips", extract_stats.non_mpls_ips);
  json.end_object();

  json.key("filters");
  json.begin_object();
  const auto& f = filter_stats;
  json.field("observed", f.observed);
  json.field("complete", f.complete);
  json.field("after_intra_as", f.after_intra_as);
  json.field("after_target_as", f.after_target_as);
  json.field("after_transit_diversity", f.after_transit_diversity);
  json.field("after_persistence", f.after_persistence);
  json.end_object();

  json.key("global");
  write_counts(json, global);
  json.key("per_as");
  write_per_as(json, *this);

  if (!decode.clean()) {
    json.key("decode");
    decode.write_json(json);
  }

  if (include_iotps) {
    json.key("iotps");
    json.begin_array();
    for (const IotpRecord& rec : iotps) {
      json.begin_object();
      json.field("asn", rec.key.asn);
      json.field("ingress", rec.key.ingress.to_string());
      json.field("egress", rec.key.egress.to_string());
      json.field("class", to_cstring(rec.tunnel_class));
      if (rec.mono_fec_kind != MonoFecKind::kNotApplicable) {
        json.field("mono_fec_kind", to_cstring(rec.mono_fec_kind));
      }
      json.field("length", rec.length);
      json.field("width", rec.width);
      json.field("symmetry", rec.symmetry);
      json.field("dst_asns", static_cast<std::uint64_t>(
                                 rec.dst_asns.size()));
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  return json.str();
}

std::string LongitudinalReport::to_json() const {
  util::JsonWriter json;
  json.begin_array();
  for (const CycleReport& cycle : cycles) {
    json.begin_object();
    json.field("cycle", cycle.cycle_id + 1);
    json.field("date", cycle.date);
    json.key("global");
    write_counts(json, cycle.global);
    json.key("per_as");
    write_per_as(json, cycle);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

}  // namespace mum::lpr
