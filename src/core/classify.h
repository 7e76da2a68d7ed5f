// LPR classification (paper Sec. 3.2, Algorithm 1) plus the Mono-FEC
// sub-split and the optional Sec.-5 alias-resolution heuristic for IOTPs
// whose LSPs converge only at a PHP egress.
//
// Class semantics:
//  * Mono-LSP    — a single LSP serves every destination: no transit
//                  diversity observable.
//  * Multi-FEC   — some "common IP" (an address traversed by >= 2 distinct
//                  branches) shows more than one label: distinct FECs, i.e.
//                  RSVP-TE style traffic engineering.
//  * Mono-FEC    — every common IP shows exactly one label: one FEC, path
//                  diversity comes from IGP ECMP under LDP. Sub-split:
//                  identical label sequences across branches => Parallel
//                  Links (addresses are aliases / bundled links); otherwise
//                  Routers Disjoint.
//  * Unclassified — no common IP at all (only possible when PHP hides the
//                  converging egress).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/model.h"

namespace mum::util {
class ThreadPool;
}

namespace mum::lpr {

struct ClassifyConfig {
  // Sec. 5 extension: when the common-IP set is empty, fall back to
  // comparing the labels advertised by the *upstream* hops of the egress
  // (point-to-point alias reasoning). Off by default, as in the paper.
  bool alias_resolution_heuristic = false;
};

struct ClassCounts {
  std::uint64_t mono_lsp = 0;
  std::uint64_t multi_fec = 0;
  std::uint64_t mono_fec = 0;
  std::uint64_t unclassified = 0;
  // Mono-FEC sub-split.
  std::uint64_t parallel_links = 0;
  std::uint64_t routers_disjoint = 0;

  std::uint64_t total() const noexcept {
    return mono_lsp + multi_fec + mono_fec + unclassified;
  }
  void add(const IotpRecord& rec) noexcept;
};

// The common-IP set of an IOTP: addresses of LSRs traversed by at least two
// distinct branches (exposed for tests and for the report layer).
std::set<net::Ipv4Addr> common_ips(const IotpRecord& rec);

// Labels observed at `addr` across all branches (top label of the quoted
// stack at that hop).
std::set<std::uint32_t> labels_at(const IotpRecord& rec, net::Ipv4Addr addr);

// Classify one IOTP in place (fills tunnel_class, mono_fec_kind,
// classified_by_alias_heuristic and the length/width/symmetry metrics).
void classify_iotp(IotpRecord& rec, const ClassifyConfig& config = {});

// Classify a whole cycle's IOTPs in place and return the aggregate counts.
// Each IOTP classifies independently, one pool index per record (serial
// without a pool); the counts are tallied afterwards in record order.
ClassCounts classify_all(std::vector<IotpRecord>& records,
                         const ClassifyConfig& config = {},
                         util::ThreadPool* pool = nullptr);

}  // namespace mum::lpr
