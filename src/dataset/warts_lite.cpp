#include "dataset/warts_lite.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dataset/pack.h"

namespace mum::dataset {

namespace {

// Minimum encoded sizes, used to validate count claims before allocating:
// a hop is at least addr(4) + rtt(4) + n_lse(1), a trace at least
// monitor(1) + src(4) + dst(4) + reached(1) + n_hops(1).
constexpr std::size_t kMinHopBytes = 9;
constexpr std::size_t kMinTraceBytes = 11;
constexpr std::size_t kMinLseBytes = 4;

// Decode one trace from [pos, limit) into `out` through the builder
// protocol, leaving the trace open: returns its reached flag for the caller
// to end_trace with once the record framing checks out. On malformation,
// records one fault in `diag` (class, offset of the failing field, record
// index) and returns nullopt; the caller discard_trace()s the partial
// record and decides whether that aborts (strict) or skips (tolerant).
std::optional<bool> decode_trace(std::string_view in, std::size_t& pos,
                                 std::size_t limit, std::uint64_t record,
                                 DecodeDiagnostics& diag, TraceBatch& out) {
  std::size_t field = pos;
  const auto monitor = get_varint(in, pos, limit);
  const auto src = get_u32(in, pos, limit);
  const auto dst = get_u32(in, pos, limit);
  const auto reached = get_u8(in, pos, limit);
  const auto n_hops = get_varint(in, pos, limit);
  if (!monitor || !src || !dst || !reached || !n_hops) {
    diag.add_fault(FaultClass::kBadTraceHeader, field, record,
                   "trace header truncated");
    return std::nullopt;
  }
  if (*n_hops > (limit - pos) / kMinHopBytes) {
    diag.add_fault(FaultClass::kOversizedClaim, field, record,
                   "hop count " + std::to_string(*n_hops) +
                       " exceeds remaining bytes");
    return std::nullopt;
  }
  out.begin_trace(static_cast<std::uint32_t>(*monitor), net::Ipv4Addr(*src),
                  net::Ipv4Addr(*dst));
  for (std::uint64_t h = 0; h < *n_hops; ++h) {
    field = pos;
    const auto addr = get_u32(in, pos, limit);
    const auto rtt = get_u32(in, pos, limit);
    const auto n_lse = get_varint(in, pos, limit);
    if (!addr || !rtt || !n_lse) {
      diag.add_fault(FaultClass::kBadHop, field, record,
                     "hop " + std::to_string(h) + " truncated");
      return std::nullopt;
    }
    if (*n_lse > (limit - pos) / kMinLseBytes) {
      diag.add_fault(FaultClass::kOversizedClaim, field, record,
                     "label stack depth " + std::to_string(*n_lse) +
                         " exceeds remaining bytes");
      return std::nullopt;
    }
    out.add_hop(net::Ipv4Addr(*addr), static_cast<double>(*rtt) / 1000.0);
    for (std::uint64_t s = 0; s < *n_lse; ++s) {
      field = pos;
      const auto word = get_u32(in, pos, limit);
      if (!word) {
        diag.add_fault(FaultClass::kBadLabelStack, field, record,
                       "label stack truncated");
        return std::nullopt;
      }
      out.add_label(*word);
    }
  }
  return *reached != 0;
}

}  // namespace

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_string(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out.append(s);
}

std::optional<std::uint64_t> get_varint(std::string_view in, std::size_t& pos,
                                        std::size_t limit) {
  limit = std::min(limit, in.size());
  std::uint64_t value = 0;
  int shift = 0;
  while (pos < limit) {
    const auto byte = static_cast<unsigned char>(in[pos++]);
    if (shift >= 64 || (shift == 63 && (byte & 0x7e))) return std::nullopt;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // truncated
}

std::optional<std::uint8_t> get_u8(std::string_view in, std::size_t& pos,
                                   std::size_t limit) {
  if (pos >= std::min(limit, in.size())) return std::nullopt;
  return static_cast<std::uint8_t>(in[pos++]);
}

std::optional<std::uint32_t> get_u32(std::string_view in, std::size_t& pos,
                                     std::size_t limit) {
  if (pos + 4 > std::min(limit, in.size())) return std::nullopt;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + i]))
         << (8 * i);
  }
  pos += 4;
  return v;
}

std::optional<std::string> get_string(std::string_view in, std::size_t& pos,
                                      std::size_t limit) {
  limit = std::min(limit, in.size());
  const auto len = get_varint(in, pos, limit);
  if (!len || *len > limit - pos) return std::nullopt;
  std::string s(in.substr(pos, *len));
  pos += *len;
  return s;
}

std::string serialize_snapshot(const SnapshotBatch& snapshot,
                               std::uint8_t version) {
  if (version >= kPackVersion) return serialize_pack(snapshot);
  // v1/v2 encode straight off the batch views (varint framing per record).
  std::string out;
  out.append(kWartsLiteMagic, sizeof kWartsLiteMagic);
  put_u8(out, version);
  put_varint(out, snapshot.cycle_id);
  put_varint(out, snapshot.sub_index);
  put_string(out, snapshot.date);
  put_varint(out, snapshot.trace_count());
  std::string record;
  for (const TraceView t : snapshot) {
    std::string& sink = version >= 2 ? record : out;
    if (version >= 2) record.clear();
    put_varint(sink, t.monitor_id());
    put_u32(sink, t.src().value());
    put_u32(sink, t.dst().value());
    put_u8(sink, t.reached() ? 1 : 0);
    put_varint(sink, t.hop_count());
    for (std::size_t k = 0; k < t.hop_count(); ++k) {
      const HopView h = t.hop(k);
      put_u32(sink, h.addr().value());
      put_u32(sink,
              static_cast<std::uint32_t>(std::lround(h.rtt_ms() * 1000.0)));
      put_varint(sink, h.label_depth());
      for (const std::uint32_t word : h.lse_words()) put_u32(sink, word);
    }
    if (version >= 2) {
      put_varint(out, record.size());
      out.append(record);
    }
  }
  return out;
}

std::string serialize_snapshot(const SnapshotBatch& snapshot) {
  return serialize_snapshot(snapshot, kWartsLiteVersion);
}

const char* snapshot_extension(std::uint8_t version) noexcept {
  return version >= kPackVersion ? ".mump" : ".mumw";
}

std::optional<SnapshotBatch> parse_snapshot_v2(
    std::string_view bytes, const DecodeOptions& options,
    DecodeDiagnostics* diagnostics) {
  DecodeDiagnostics scratch;
  DecodeDiagnostics& diag = diagnostics != nullptr ? *diagnostics : scratch;
  const std::size_t size = bytes.size();

  std::size_t pos = 0;
  if (size < sizeof kWartsLiteMagic + 1 ||
      bytes.compare(0, sizeof kWartsLiteMagic, kWartsLiteMagic,
                    sizeof kWartsLiteMagic) != 0) {
    diag.add_fault(FaultClass::kBadMagic, 0, 0,
                   "missing MUMW magic — not a warts-lite container");
    return std::nullopt;
  }
  pos = sizeof kWartsLiteMagic;
  const std::uint8_t version = static_cast<std::uint8_t>(bytes[pos++]);
  if (version < 1 || version > kWartsLiteVersion) {
    diag.add_fault(FaultClass::kBadVersion, sizeof kWartsLiteMagic, 0,
                   "unsupported version " + std::to_string(version));
    return std::nullopt;
  }
  const bool framed = version >= 2;

  // A decoded snapshot is one block, sized once the header bounds it.
  SnapshotBatch snap;
  TraceBatch& block = snap.blocks.emplace_back();
  std::size_t field = pos;
  const auto cycle_id = get_varint(bytes, pos);
  const auto sub_index = get_varint(bytes, pos);
  // Header faults past the magic/version: the container is recognizable, so
  // tolerant mode keeps its promise and returns what decoded (an empty
  // snapshot) with the fault on record; only strict mode aborts.
  if (!cycle_id || !sub_index) {
    diag.add_fault(FaultClass::kTruncatedHeader, field, 0,
                   "snapshot header truncated");
    if (!options.tolerant) return std::nullopt;
    return snap;
  }
  snap.cycle_id = static_cast<std::uint32_t>(*cycle_id);
  snap.sub_index = static_cast<std::uint32_t>(*sub_index);
  field = pos;
  const auto date = get_string(bytes, pos, size);
  if (!date) {
    diag.add_fault(FaultClass::kTruncatedHeader, field, 0,
                   "date string truncated");
    if (!options.tolerant) return std::nullopt;
    return snap;
  }
  snap.date = *date;

  field = pos;
  const auto n_traces = get_varint(bytes, pos);
  if (!n_traces) {
    diag.add_fault(FaultClass::kTruncatedHeader, field, 0,
                   "trace count truncated");
    if (!options.tolerant) return std::nullopt;
    return snap;
  }
  // Validate the claim before allocating: the remaining bytes bound how many
  // records can possibly follow. An inflated claim is a fault of its own in
  // strict mode; tolerant mode records it and decodes what is actually there.
  const std::uint64_t max_traces = (size - pos) / kMinTraceBytes;
  const bool claim_credible = *n_traces <= max_traces;
  if (!claim_credible) {
    diag.add_fault(FaultClass::kOversizedClaim, field, 0,
                   "trace count " + std::to_string(*n_traces) +
                       " exceeds remaining bytes");
    if (!options.tolerant) return std::nullopt;
  }
  // Column capacity: the trace count is bounded by the claim check; hop
  // and label counts by the bytes left (a minimum-size hop, a label word),
  // so a hostile claim cannot inflate the reservation, and the block never
  // grows. Capacity the records do not fill is never touched.
  block = TraceBatch(
      static_cast<std::size_t>(std::min<std::uint64_t>(*n_traces,
                                                       max_traces)),
      (size - pos) / kMinHopBytes, (size - pos) / 4);

  for (std::uint64_t i = 0; i < *n_traces; ++i) {
    if (pos >= size) {
      // The file ends before the claimed record count. When the claim was
      // credible, the missing tail counts as skipped records; an already
      // flagged oversized claim proves nothing was really there.
      diag.add_fault(FaultClass::kRecordOverrun, pos, i,
                     "file ends at record " + std::to_string(i) + " of " +
                         std::to_string(*n_traces));
      if (claim_credible) diag.records_skipped += *n_traces - i;
      if (!options.tolerant) return std::nullopt;
      break;
    }
    std::size_t limit = size;
    std::size_t record_end = 0;
    if (framed) {
      field = pos;
      const auto frame = get_varint(bytes, pos);
      if (!frame || *frame > size - pos) {
        diag.add_fault(FaultClass::kRecordOverrun, field, i,
                       "record frame exceeds remaining bytes");
        if (claim_credible) diag.records_skipped += *n_traces - i;
        if (!options.tolerant) return std::nullopt;
        break;  // framing is untrustworthy beyond this point
      }
      record_end = pos + static_cast<std::size_t>(*frame);
      limit = record_end;
    }

    DecodeDiagnostics attempt;
    std::size_t trace_pos = pos;
    auto reached =
        decode_trace(bytes, trace_pos, limit, i, attempt, block);
    if (reached && framed && trace_pos != record_end) {
      attempt.add_fault(FaultClass::kTrailingBytes, trace_pos, i,
                        std::to_string(record_end - trace_pos) +
                            " unconsumed bytes in record");
      reached.reset();  // half-trusted payload: treat the record as malformed
    }
    diag.merge(attempt);

    if (!reached) {
      block.discard_trace();
      if (!options.tolerant) return std::nullopt;
      if (!framed) {
        // v1 has no framing: nothing downstream of a fault can be trusted.
        if (claim_credible) diag.records_skipped += *n_traces - i;
        break;
      }
      ++diag.records_skipped;  // resync at the next record boundary
      pos = record_end;
      continue;
    }
    block.end_trace(*reached);
    ++diag.records_decoded;
    pos = framed ? record_end : trace_pos;
  }

  if (pos != size) {
    diag.add_fault(FaultClass::kTrailingBytes, pos, *n_traces,
                   std::to_string(size - pos) + " bytes after last record");
    if (!options.tolerant) return std::nullopt;
  }
  return snap;
}

std::string to_text(TraceView trace) {
  std::ostringstream os;
  os << "trace monitor=" << trace.monitor_id() << " src=" << trace.src()
     << " dst=" << trace.dst() << " reached=" << (trace.reached() ? 1 : 0)
     << '\n';
  for (std::size_t k = 0; k < trace.hop_count(); ++k) {
    const HopView hop = trace.hop(k);
    os << "  " << k + 1 << "  ";
    if (hop.anonymous()) {
      os << "*";
    } else {
      os << hop.addr() << "  " << hop.rtt_ms() << " ms";
      if (hop.asn() != 0) os << "  [AS" << hop.asn() << "]";
      if (hop.has_labels()) os << "  " << hop.label_stack();
    }
    os << '\n';
  }
  return os.str();
}

std::string to_text(const SnapshotBatch& snapshot) {
  std::ostringstream os;
  os << "snapshot cycle=" << snapshot.cycle_id
     << " sub=" << snapshot.sub_index << " date=" << snapshot.date
     << " traces=" << snapshot.trace_count() << "\n\n";
  for (const TraceView trace : snapshot) os << to_text(trace) << '\n';
  return os.str();
}

}  // namespace mum::dataset
