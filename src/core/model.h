// Data model of the LPR (Label Pattern Recognition) algorithm — the paper's
// primary contribution.
//
// Terminology (paper Sec. 3):
//  * LSP: one observed Label Switched Path — the maximal run of label-quoting
//    hops in a trace, together with its entry hop (Ingress LER) and exit hop
//    (Egress LER).
//  * IOTP ("In-Out Transit Pair"): the set of LSPs sharing the same
//    <Ingress LER; Egress LER> pair inside one AS. An IOTP may have several
//    "branches" (distinct LSPs), physically different (IP addresses) or only
//    logically different (labels).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "util/rng.h"

namespace mum::lpr {

// One label-revealing hop inside an LSP: the interface address and the label
// values of the quoted stack (top first).
struct LsrHop {
  net::Ipv4Addr addr;
  std::vector<std::uint32_t> labels;

  friend bool operator==(const LsrHop&, const LsrHop&) = default;
  friend auto operator<=>(const LsrHop&, const LsrHop&) = default;
};

// Incremental form of Lsp::content_hash: seed with the endpoints, then per
// labeled hop its address, its label values (top first) and end_hop(). The
// column pass behind persistence_set (extract.h) hashes runs straight from a
// batch through the same routine, so the two cannot drift.
class LspHasher {
 public:
  LspHasher(std::uint32_t asn, std::uint32_t ingress, std::uint32_t egress)
      : h_(util::hash_combine(util::hash_combine(asn, ingress), egress)) {}
  void hop_addr(std::uint32_t addr) { h_ = util::hash_combine(h_, addr); }
  void label(std::uint32_t label) { h_ = util::hash_combine(h_, label); }
  void end_hop() { h_ = util::hash_combine(h_, 0xfeedULL); }  // delimiter
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

// One observed LSP. Equality covers everything the Persistence filter and
// the classifier compare: endpoints plus the full (address, labels) sequence.
struct Lsp {
  std::uint32_t asn = 0;        // AS the tunnel lives in (0 = inconsistent)
  net::Ipv4Addr ingress;        // hop preceding the labeled run
  net::Ipv4Addr egress;         // tunnel exit point (see extract.h)
  std::vector<LsrHop> lsrs;     // the labeled hops, in order
  // True when the last labeled hop is itself the Egress LER (no PHP): it then
  // must not count as an *intermediate* LSR for the length metric.
  bool egress_labeled = false;

  // Number of intermediate LSRs (paper's length unit: LERs excluded).
  int intermediate_lsr_count() const noexcept {
    const int n = static_cast<int>(lsrs.size()) - (egress_labeled ? 1 : 0);
    return n < 0 ? 0 : n;
  }

  // Content identity (ignores which trace/destination revealed it).
  friend bool operator==(const Lsp& a, const Lsp& b) {
    return a.asn == b.asn && a.ingress == b.ingress && a.egress == b.egress &&
           a.lsrs == b.lsrs;
  }

  // Stable content hash for persistence sets / dedup maps.
  std::uint64_t content_hash() const;

  std::string to_string() const;
};

// One LSP observation: the LSP plus which destination AS the covering trace
// was heading to (TargetAS / TransitDiversity need this).
struct LspObservation {
  Lsp lsp;
  std::uint32_t dst_asn = 0;
  std::uint32_t monitor_id = 0;
};

// IOTP identity.
struct IotpKey {
  std::uint32_t asn = 0;
  net::Ipv4Addr ingress;
  net::Ipv4Addr egress;

  friend bool operator==(const IotpKey&, const IotpKey&) = default;
  friend auto operator<=>(const IotpKey&, const IotpKey&) = default;
};

// The paper's four tunnel classes (Fig. 3 / Algorithm 1).
enum class TunnelClass : std::uint8_t {
  kMonoLsp,      // single LSP, no observable diversity
  kMultiFec,     // >1 label for some common IP => RSVP-TE style TE
  kMonoFec,      // multi-LSP, single FEC => IGP ECMP under LDP
  kUnclassified, // no common IP (PHP-converged at the egress only)
};

// Mono-FEC sub-split (Fig. 4(c) vs 4(d)).
enum class MonoFecKind : std::uint8_t {
  kNotApplicable,
  kParallelLinks,    // identical label sequences, different addresses
  kRoutersDisjoint,  // labels AND addresses differ somewhere
};

const char* to_cstring(TunnelClass c) noexcept;
const char* to_cstring(MonoFecKind k) noexcept;

// A classified IOTP with its measured properties.
struct IotpRecord {
  IotpKey key;
  std::vector<Lsp> variants;        // distinct LSPs (the branches)
  // Destination ASes reached through it — sorted, deduplicated. Kept as a
  // flat vector (append during grouping, normalized once): the set is only
  // ever built and iterated, never searched.
  std::vector<std::uint32_t> dst_asns;
  TunnelClass tunnel_class = TunnelClass::kUnclassified;
  MonoFecKind mono_fec_kind = MonoFecKind::kNotApplicable;
  bool classified_by_alias_heuristic = false;  // Sec. 5 extension fired

  // Paper metrics (Sec. 4.3).
  int length = 0;    // intermediate LSRs of the longest branch
  int width = 0;     // number of branches
  int symmetry = 0;  // length(longest) - length(shortest)
};

}  // namespace mum::lpr
