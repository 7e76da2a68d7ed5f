#include "core/classify.h"

#include <algorithm>
#include <unordered_map>

#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace mum::lpr {

namespace {

// Classification telemetry: one batch of updates per classify_all call
// (the per-record loop stays untouched). Class tallies feed the registry
// snapshot's traces/s-style rates; the values mirror the returned
// ClassCounts, so publishing them never alters a report byte.
void publish_classify(const ClassCounts& counts, std::size_t records,
                      std::uint64_t dur_ns) {
  obs::Registry& r = obs::registry();
  static obs::Counter& runs = r.counter("classify.runs");
  static obs::Counter& iotps = r.counter("classify.iotps");
  static obs::Counter& mono_lsp = r.counter("classify.class.mono_lsp");
  static obs::Counter& multi_fec = r.counter("classify.class.multi_fec");
  static obs::Counter& mono_fec = r.counter("classify.class.mono_fec");
  static obs::Counter& unclassified =
      r.counter("classify.class.unclassified");
  static obs::Counter& parallel_links =
      r.counter("classify.class.parallel_links");
  static obs::Counter& routers_disjoint =
      r.counter("classify.class.routers_disjoint");
  static obs::Histogram& duration = r.histogram("classify.ns");
  runs.inc();
  iotps.add(records);
  mono_lsp.add(counts.mono_lsp);
  multi_fec.add(counts.multi_fec);
  mono_fec.add(counts.mono_fec);
  unclassified.add(counts.unclassified);
  parallel_links.add(counts.parallel_links);
  routers_disjoint.add(counts.routers_disjoint);
  duration.record(dur_ns);
}

// Metrics of Sec. 4.3, computed over the branch set.
void fill_metrics(IotpRecord& rec) {
  rec.width = static_cast<int>(rec.variants.size());
  int longest = 0;
  int shortest = rec.variants.empty() ? 0 : 1 << 30;
  for (const Lsp& lsp : rec.variants) {
    const int n = lsp.intermediate_lsr_count();
    longest = std::max(longest, n);
    shortest = std::min(shortest, n);
  }
  rec.length = longest;
  rec.symmetry = rec.variants.empty() ? 0 : longest - shortest;
}

// Label-sequence identity across branches: true when every branch shows the
// exact same ordered sequence of label stacks.
bool identical_label_sequences(const IotpRecord& rec) {
  const std::vector<LsrHop>& reference = rec.variants.front().lsrs;
  return std::all_of(
      rec.variants.begin() + 1, rec.variants.end(), [&](const Lsp& lsp) {
        return std::ranges::equal(lsp.lsrs, reference, {}, &LsrHop::labels,
                                  &LsrHop::labels);
      });
}

// Sec. 5 alias heuristic: with point-to-point links, the hop *upstream* of
// the (hidden, PHP) egress convergence point reveals the label the egress's
// neighbour advertised. Same label on every branch's last LSR => one FEC;
// distinct labels => multiple FECs.
TunnelClass alias_heuristic_class(const IotpRecord& rec) {
  std::set<std::vector<std::uint32_t>> last_labels;
  for (const Lsp& lsp : rec.variants) {
    if (lsp.lsrs.empty()) return TunnelClass::kUnclassified;
    last_labels.insert(lsp.lsrs.back().labels);
  }
  return last_labels.size() > 1 ? TunnelClass::kMultiFec
                                : TunnelClass::kMonoFec;
}

}  // namespace

void ClassCounts::add(const IotpRecord& rec) noexcept {
  switch (rec.tunnel_class) {
    case TunnelClass::kMonoLsp: ++mono_lsp; break;
    case TunnelClass::kMultiFec: ++multi_fec; break;
    case TunnelClass::kMonoFec:
      ++mono_fec;
      if (rec.mono_fec_kind == MonoFecKind::kParallelLinks) ++parallel_links;
      if (rec.mono_fec_kind == MonoFecKind::kRoutersDisjoint) {
        ++routers_disjoint;
      }
      break;
    case TunnelClass::kUnclassified: ++unclassified; break;
  }
}

std::set<net::Ipv4Addr> common_ips(const IotpRecord& rec) {
  std::unordered_map<net::Ipv4Addr, int> branch_count;
  for (const Lsp& lsp : rec.variants) {
    // Count each address once per branch.
    std::set<net::Ipv4Addr> in_branch;
    for (const LsrHop& hop : lsp.lsrs) in_branch.insert(hop.addr);
    for (const net::Ipv4Addr addr : in_branch) ++branch_count[addr];
  }
  std::set<net::Ipv4Addr> out;
  for (const auto& [addr, n] : branch_count) {
    if (n >= 2) out.insert(addr);
  }
  return out;
}

std::set<std::uint32_t> labels_at(const IotpRecord& rec, net::Ipv4Addr addr) {
  std::set<std::uint32_t> out;
  for (const Lsp& lsp : rec.variants) {
    for (const LsrHop& hop : lsp.lsrs) {
      if (hop.addr == addr && !hop.labels.empty()) {
        out.insert(hop.labels.front());  // top of the quoted stack
      }
    }
  }
  return out;
}

void classify_iotp(IotpRecord& rec, const ClassifyConfig& config) {
  fill_metrics(rec);
  rec.classified_by_alias_heuristic = false;

  // Algorithm 1 line 10: a single LSP (same addresses AND labels everywhere).
  if (rec.variants.size() <= 1) {
    rec.tunnel_class = TunnelClass::kMonoLsp;
    rec.mono_fec_kind = MonoFecKind::kNotApplicable;
    return;
  }

  const auto common = common_ips(rec);
  if (common.empty()) {
    // Algorithm 1 lines 16-18; optionally rescued by the Sec. 5 heuristic.
    if (config.alias_resolution_heuristic) {
      const TunnelClass by_alias = alias_heuristic_class(rec);
      if (by_alias != TunnelClass::kUnclassified) {
        rec.tunnel_class = by_alias;
        rec.classified_by_alias_heuristic = true;
        rec.mono_fec_kind =
            by_alias == TunnelClass::kMonoFec
                ? (identical_label_sequences(rec)
                       ? MonoFecKind::kParallelLinks
                       : MonoFecKind::kRoutersDisjoint)
                : MonoFecKind::kNotApplicable;
        return;
      }
    }
    rec.tunnel_class = TunnelClass::kUnclassified;
    rec.mono_fec_kind = MonoFecKind::kNotApplicable;
    return;
  }

  // Algorithm 1 lines 20-25: any common IP with >1 label => Multi-FEC.
  for (const net::Ipv4Addr addr : common) {
    if (labels_at(rec, addr).size() > 1) {
      rec.tunnel_class = TunnelClass::kMultiFec;
      rec.mono_fec_kind = MonoFecKind::kNotApplicable;
      return;
    }
  }

  // Lines 26-28: every common IP carries one label => ECMP Mono-FEC.
  rec.tunnel_class = TunnelClass::kMonoFec;
  rec.mono_fec_kind = identical_label_sequences(rec)
                          ? MonoFecKind::kParallelLinks
                          : MonoFecKind::kRoutersDisjoint;
}

ClassCounts classify_all(std::vector<IotpRecord>& records,
                         const ClassifyConfig& config,
                         util::ThreadPool* pool) {
  const std::uint64_t t0 = obs::monotonic_ns();
  util::parallel_for(pool, records.size(),
                     [&](std::size_t i) { classify_iotp(records[i], config); });
  ClassCounts counts;
  for (const IotpRecord& rec : records) counts.add(rec);
  publish_classify(counts, records.size(), obs::monotonic_ns() - t0);
  return counts;
}

}  // namespace mum::lpr
