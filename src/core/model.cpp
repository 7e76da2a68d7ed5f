#include "core/model.h"

#include "util/rng.h"

namespace mum::lpr {

std::uint64_t Lsp::content_hash() const {
  LspHasher h(asn, ingress.value(), egress.value());
  for (const LsrHop& hop : lsrs) {
    h.hop_addr(hop.addr.value());
    for (const std::uint32_t label : hop.labels) h.label(label);
    h.end_hop();
  }
  return h.value();
}

std::string Lsp::to_string() const {
  std::string out = "AS" + std::to_string(asn) + " " + ingress.to_string() +
                    " -> [";
  for (std::size_t i = 0; i < lsrs.size(); ++i) {
    if (i) out += ", ";
    out += lsrs[i].addr.to_string() + "(";
    for (std::size_t j = 0; j < lsrs[i].labels.size(); ++j) {
      if (j) out += "/";
      out += std::to_string(lsrs[i].labels[j]);
    }
    out += ")";
  }
  out += "] -> " + egress.to_string();
  return out;
}

const char* to_cstring(TunnelClass c) noexcept {
  switch (c) {
    case TunnelClass::kMonoLsp: return "Mono-LSP";
    case TunnelClass::kMultiFec: return "Multi-FEC";
    case TunnelClass::kMonoFec: return "Mono-FEC";
    case TunnelClass::kUnclassified: return "Unclassified";
  }
  return "?";
}

const char* to_cstring(MonoFecKind k) noexcept {
  switch (k) {
    case MonoFecKind::kNotApplicable: return "n/a";
    case MonoFecKind::kParallelLinks: return "Parallel Links";
    case MonoFecKind::kRoutersDisjoint: return "Routers Disjoint";
  }
  return "?";
}

}  // namespace mum::lpr
