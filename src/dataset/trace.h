// Single-trace value model: one traceroute with its hops, as CAIDA
// Archipelago delivers it after warts decoding. Snapshots and months are
// columnar (dataset/trace_batch.h); a Trace is the one-record form that
// lab tests build by hand and TraceBatch::append(const Trace&) ingests.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "net/lse.h"

namespace mum::dataset {

struct TraceHop {
  // Responding interface; kAnonymousAddr when the hop timed out ('*').
  net::Ipv4Addr addr;
  double rtt_ms = 0.0;
  // Quoted label stack from the RFC 4950 extension, if any.
  net::LabelStack labels;
  // AS the address maps to (filled by Ip2As::annotate); 0 = unmapped.
  std::uint32_t asn = 0;

  bool anonymous() const noexcept { return addr == net::kAnonymousAddr; }
  bool has_labels() const noexcept { return !labels.empty(); }
};

struct Trace {
  std::uint32_t monitor_id = 0;
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint32_t dst_asn = 0;  // filled by Ip2As::annotate
  bool reached = false;       // destination answered
  std::vector<TraceHop> hops;

  // True when any hop carries a quoted label stack (explicit tunnel signal).
  bool crosses_explicit_tunnel() const noexcept;
};

}  // namespace mum::dataset
