#include "core/extract.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace mum::lpr {

AddrSet::AddrSet(std::size_t min_capacity) {
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(
      min_capacity, 16));
  slots_.assign(capacity, 0);
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
}

std::size_t AddrSet::slot_of(std::uint32_t addr) const noexcept {
  return static_cast<std::size_t>((addr * 0x9E3779B9u) >> shift_);
}

bool AddrSet::insert(std::uint32_t addr) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(addr);; i = (i + 1) & mask) {
    if (slots_[i] == addr) return false;
    if (slots_[i] == 0) {
      slots_[i] = addr;
      if (++size_ * 2 > slots_.size()) grow();
      return true;
    }
  }
}

bool AddrSet::contains(std::uint32_t addr) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(addr);; i = (i + 1) & mask) {
    if (slots_[i] == addr) return addr != 0;
    if (slots_[i] == 0) return false;
  }
}

void AddrSet::grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint32_t addr : old) {
    if (addr == 0) continue;
    std::size_t i = slot_of(addr);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = addr;
  }
}

namespace {

// ASN of the labeled run [first, last]: its first mapped ASN, or 0 (the
// IntraAS filter's reject mark) once a second distinct mapped ASN appears.
// Same as a majority vote + intra-AS check: 2+ distinct ASNs force 0 anyway.
std::uint32_t run_asn(dataset::TraceView trace, std::size_t first,
                      std::size_t last) {
  std::uint32_t asn = dataset::kUnknownAsn;
  for (std::size_t k = first; k <= last; ++k) {
    const std::uint32_t hop_asn = trace.hop(k).asn();
    if (hop_asn == dataset::kUnknownAsn || hop_asn == asn) continue;
    if (asn != dataset::kUnknownAsn) return 0;
    asn = hop_asn;
  }
  return asn;
}

void extract_from_trace(dataset::TraceView trace, const dataset::Ip2As& ip2as,
                        ExtractedSnapshot& out, AddrSet& mpls_addrs,
                        AddrSet& all_addrs) {
  ++out.stats.traces_total;
  bool saw_tunnel = false;

  const std::size_t n = trace.hop_count();
  for (std::size_t k = 0; k < n; ++k) {
    const dataset::HopView hop = trace.hop(k);
    if (!hop.anonymous()) all_addrs.insert(hop.addr().value());
  }

  const auto labeled = [&](std::size_t k) { return trace.hop(k).has_labels(); };
  const auto anonymous = [&](std::size_t k) {
    return trace.hop(k).anonymous();
  };

  std::size_t i = 0;
  while (i < n) {
    if (!labeled(i)) {
      ++i;
      continue;
    }
    // Maximal labeled run [first, last]. Anonymous hops break the run but
    // make the LSP incomplete (an LSR failed to reply).
    const std::size_t first = i;
    std::size_t last = i;
    bool run_has_anonymous = false;
    while (last + 1 < n) {
      if (labeled(last + 1)) {
        ++last;
      } else if (anonymous(last + 1) && last + 2 < n && labeled(last + 2)) {
        // '*' wedged between labeled hops: the run continues but is
        // incomplete in the traceroute sense.
        run_has_anonymous = true;
        last += 2;
      } else {
        break;
      }
    }
    i = last + 1;

    saw_tunnel = true;
    ++out.stats.lsps_observed;
    for (std::size_t k = first; k <= last; ++k) {
      if (!anonymous(k)) mpls_addrs.insert(trace.hop(k).addr().value());
    }

    // Completeness: need both endpoint hops, responding, and no '*' inside.
    const bool has_ingress = first > 0 && !anonymous(first - 1);
    const bool has_exit = last + 1 < n && !anonymous(last + 1);
    if (run_has_anonymous || !has_ingress || !has_exit) {
      ++out.stats.lsps_incomplete;
      continue;
    }

    LspObservation obs;
    obs.dst_asn = trace.dst_asn() != 0 ? trace.dst_asn()
                                       : ip2as.lookup(trace.dst());
    obs.monitor_id = trace.monitor_id();
    obs.lsp.ingress = trace.hop(first - 1).addr();
    // Multi-AS runs carry asn=0 so the IntraAS filter rejects them.
    obs.lsp.asn = run_asn(trace, first, last);

    // Exit point: the hop after the run when it still belongs to the
    // tunnel's AS (PHP), else the last labeled hop (non-PHP egress).
    const dataset::HopView exit = trace.hop(last + 1);
    if (exit.asn() == obs.lsp.asn && obs.lsp.asn != 0) {
      obs.lsp.egress = exit.addr();
      obs.lsp.egress_labeled = false;
    } else {
      obs.lsp.egress = trace.hop(last).addr();
      obs.lsp.egress_labeled = true;
    }

    obs.lsp.lsrs.reserve(last - first + 1);
    for (std::size_t k = first; k <= last; ++k) {
      const dataset::HopView hop = trace.hop(k);
      if (hop.anonymous()) continue;
      obs.lsp.lsrs.push_back(LsrHop{hop.addr(), hop.labels()});
    }
    out.observations.push_back(std::move(obs));
  }

  if (saw_tunnel) ++out.stats.traces_with_explicit_tunnel;
}

}  // namespace

ExtractStats& ExtractStats::merge(const ExtractStats& other) noexcept {
  traces_total += other.traces_total;
  traces_with_explicit_tunnel += other.traces_with_explicit_tunnel;
  lsps_observed += other.lsps_observed;
  lsps_incomplete += other.lsps_incomplete;
  mpls_ips += other.mpls_ips;
  non_mpls_ips += other.non_mpls_ips;
  return *this;
}

ExtractedSnapshot extract_lsps(const dataset::SnapshotBatch& snapshot,
                               const dataset::Ip2As& ip2as) {
  ExtractedSnapshot out;
  out.cycle_id = snapshot.cycle_id;
  out.sub_index = snapshot.sub_index;
  out.date = snapshot.date;

  AddrSet mpls_addrs;
  AddrSet all_addrs;
  for (const dataset::TraceView trace : snapshot.traces) {
    extract_from_trace(trace, ip2as, out, mpls_addrs, all_addrs);
  }
  // Every labeled-run address is also a responding address of its trace,
  // so the MPLS set is a subset of the full one.
  out.stats.mpls_ips = mpls_addrs.size();
  out.stats.non_mpls_ips = all_addrs.size() - mpls_addrs.size();
  return out;
}

std::unordered_map<std::uint32_t, AsIpCensus> census_by_as(
    const dataset::SnapshotBatch& snapshot) {
  // Per AS: every responding address, and the labeled subset. An address
  // counts as non-MPLS only if it never appeared labeled in that AS.
  struct Sets {
    AddrSet all{64};
    AddrSet mpls{64};
  };
  std::unordered_map<std::uint32_t, Sets> by_as;
  const dataset::TraceBatch& traces = snapshot.traces;
  const auto asns = traces.hop_asn_col();
  const auto addrs = traces.hop_addr_col();
  const auto lse_off = traces.lse_off_col();
  for (std::size_t h = 0; h < addrs.size(); ++h) {
    if (addrs[h] == 0 || asns[h] == dataset::kUnknownAsn) continue;
    Sets& sets = by_as[asns[h]];
    sets.all.insert(addrs[h]);
    if (lse_off[h + 1] != lse_off[h]) sets.mpls.insert(addrs[h]);
  }
  std::unordered_map<std::uint32_t, AsIpCensus> out;
  for (const auto& [asn, sets] : by_as) {
    out[asn] = AsIpCensus{sets.mpls.size(), sets.all.size() - sets.mpls.size()};
  }
  return out;
}

}  // namespace mum::lpr
