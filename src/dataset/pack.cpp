#include "dataset/pack.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mum::dataset {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Expected element size per section, indexed by PackSection.
constexpr std::array<std::uint32_t, kPackSectionCount> kElemSize = {
    1, 4, 4, 4, 1, 8, 4, 4, 8, 4};

// On little-endian hosts these must be plain loads — they sit inside the
// checksum and offset-scan loops that set ingest throughput.
std::uint32_t le32(const char* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
#else
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
#endif
}

std::uint64_t le64(const char* p) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
#else
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
#endif
}

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::size_t aligned_up(std::size_t n) noexcept {
  return (n + kPackAlignment - 1) & ~(kPackAlignment - 1);
}

std::size_t section_index(PackSection s) noexcept {
  return static_cast<std::size_t>(s);
}

// One host-order value -> little-endian wire bytes at `out`.
template <class T>
void store_le(char* out, T v) noexcept {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(out, &v, sizeof(T));
#else
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                               0xff);
  }
#endif
}

// Host-order column -> little-endian wire bytes. On LE hosts a straight
// memcpy; the generic path keeps BE hosts byte-identical.
template <class T>
void copy_le(char* out, std::span<const T> src) {
  if (src.empty()) return;  // empty column: data() may be null
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(out, src.data(), src.size_bytes());
#else
  for (const T v : src) {
    store_le(out, v);
    out += sizeof(T);
  }
#endif
}

// A block's offset column past its leading zero, shifted by `base` (the
// hops or LSE words of the blocks before it) -> wire bytes.
void copy_rebased_le(char* out, std::span<const std::uint64_t> off,
                     std::uint64_t base) {
  for (std::size_t i = 1; i < off.size(); ++i) {
    store_le(out + (i - 1) * 8, off[i] + base);
  }
}

}  // namespace

std::uint64_t pack_checksum(std::string_view bytes) noexcept {
  // Eight independent FNV-1a chains, each absorbing one little-endian
  // 64-bit word per 64-byte block (explicit LE assembly so the digest is
  // identical across hosts); tail bytes extend the lane their word slot
  // selects. One multiply per 8 bytes instead of plain FNV-1a's one per
  // byte, and the chains have no cross dependency, so the CPU overlaps
  // them — this runs near memory bandwidth, which is what lets tolerant
  // pack validation afford checksumming every section.
  std::uint64_t lane[8];
  for (int j = 0; j < 8; ++j) lane[j] = kFnvOffset ^ static_cast<unsigned>(j);
  const char* p = bytes.data();
  const std::size_t n = bytes.size();
  const std::size_t blocks = n / 64;
  for (std::size_t b = 0; b < blocks; ++b) {
    const char* q = p + b * 64;
    for (int j = 0; j < 8; ++j) {
      lane[j] = (lane[j] ^ le64(q + j * 8)) * kFnvPrime;
    }
  }
  for (std::size_t i = blocks * 64; i < n; ++i) {
    const std::size_t j = (i / 8) % 8;
    lane[j] = (lane[j] ^ static_cast<unsigned char>(p[i])) * kFnvPrime;
  }
  std::uint64_t h = kFnvOffset ^ static_cast<std::uint64_t>(n);
  for (int j = 0; j < 8; ++j) h = (h ^ lane[j]) * kFnvPrime;
  return h;
}

std::string serialize_pack(const SnapshotBatch& snapshot) {
  const std::size_t n_traces = snapshot.trace_count();
  const std::size_t n_hops = snapshot.hop_count();
  const std::size_t n_lses = snapshot.lse_count();

  // Column payload sizes, indexed by PackSection — the batch columns map
  // 1:1 onto the sections (including the leading-zero offset entries).
  std::array<std::size_t, kPackSectionCount> col_bytes{};
  col_bytes[section_index(PackSection::kDate)] = snapshot.date.size();
  col_bytes[section_index(PackSection::kTraceMonitor)] = n_traces * 4;
  col_bytes[section_index(PackSection::kTraceSrc)] = n_traces * 4;
  col_bytes[section_index(PackSection::kTraceDst)] = n_traces * 4;
  col_bytes[section_index(PackSection::kTraceReached)] = n_traces;
  col_bytes[section_index(PackSection::kHopOffset)] = (n_traces + 1) * 8;
  col_bytes[section_index(PackSection::kHopAddr)] = n_hops * 4;
  col_bytes[section_index(PackSection::kHopRtt)] = n_hops * 4;
  col_bytes[section_index(PackSection::kHopLseOffset)] = (n_hops + 1) * 8;
  col_bytes[section_index(PackSection::kLsePool)] = n_lses * 4;

  const std::size_t table_end =
      kPackHeaderBytes + kPackSectionCount * kPackSectionEntryBytes;
  std::array<std::size_t, kPackSectionCount> offsets{};
  std::size_t off = table_end;
  for (std::size_t s = 0; s < kPackSectionCount; ++s) {
    offsets[s] = off;
    off = aligned_up(off + col_bytes[s]);
  }
  const std::size_t total = off;

  std::string out(total, '\0');
  char* base = out.data();

  // Payloads first (the section table wants their checksums). The blocks
  // stream into their ranges of each section, in order. The offset
  // sections' leading zero is the zero fill; each block's entries after
  // its own leading zero shift by the hops and LSE words before it.
  const auto at = [&](PackSection s) { return base + offsets[section_index(s)]; };
  std::memcpy(at(PackSection::kDate), snapshot.date.data(),
              snapshot.date.size());
  std::size_t trace_at = 0, hop_at = 0, lse_at = 0;
  for (const TraceBatch& b : snapshot.blocks) {
    copy_le(at(PackSection::kTraceMonitor) + trace_at * 4, b.monitor_col());
    copy_le(at(PackSection::kTraceSrc) + trace_at * 4, b.src_col());
    copy_le(at(PackSection::kTraceDst) + trace_at * 4, b.dst_col());
    copy_le(at(PackSection::kTraceReached) + trace_at, b.reached_col());
    copy_rebased_le(at(PackSection::kHopOffset) + (trace_at + 1) * 8,
                    b.hop_off_col(), hop_at);
    copy_le(at(PackSection::kHopAddr) + hop_at * 4, b.hop_addr_col());
    copy_rebased_le(at(PackSection::kHopLseOffset) + (hop_at + 1) * 8,
                    b.lse_off_col(), lse_at);
    copy_le(at(PackSection::kLsePool) + lse_at * 4, b.lse_pool_col());
    // The one per-element column: quantize RTT doubles to ms*1000 exactly
    // as the per-record writer does.
    char* rtt_out = at(PackSection::kHopRtt) + hop_at * 4;
    for (const double rtt : b.hop_rtt_col()) {
      store_le(rtt_out, static_cast<std::uint32_t>(std::lround(rtt * 1000.0)));
      rtt_out += 4;
    }
    trace_at += b.trace_count();
    hop_at += b.hop_count();
    lse_at += b.lse_count();
  }

  // Header + section table over the zero-filled prefix.
  std::string head;
  head.reserve(table_end);
  head.append(kPackMagic, sizeof kPackMagic);
  head.push_back(static_cast<char>(kPackVersion));
  head.append(3, '\0');
  put_u32le(head, snapshot.cycle_id);
  put_u32le(head, snapshot.sub_index);
  put_u32le(head, static_cast<std::uint32_t>(kPackSectionCount));
  put_u32le(head, 0);
  put_u64le(head, total);
  for (std::size_t s = 0; s < kPackSectionCount; ++s) {
    put_u32le(head, static_cast<std::uint32_t>(s));
    put_u32le(head, kElemSize[s]);
    put_u64le(head, offsets[s]);
    put_u64le(head, col_bytes[s]);
    put_u64le(head, pack_checksum(
                        std::string_view(base + offsets[s], col_bytes[s])));
  }
  std::memcpy(base, head.data(), head.size());
  return out;
}

std::optional<PackView> PackView::open(std::string_view bytes,
                                       const DecodeOptions& options,
                                       DecodeDiagnostics* diagnostics) {
  DecodeDiagnostics scratch;
  DecodeDiagnostics& diag = diagnostics != nullptr ? *diagnostics : scratch;
  const std::size_t size = bytes.size();
  const bool tolerant = options.tolerant;

  if (size < sizeof kPackMagic + 1 ||
      bytes.compare(0, sizeof kPackMagic, kPackMagic, sizeof kPackMagic) !=
          0) {
    diag.add_fault(FaultClass::kBadMagic, 0, 0,
                   "missing MUMP magic — not a warts-lite pack");
    return std::nullopt;
  }
  const auto version = static_cast<std::uint8_t>(bytes[4]);
  if (version != kPackVersion) {
    diag.add_fault(FaultClass::kBadVersion, 4, 0,
                   "unsupported pack version " + std::to_string(version));
    return std::nullopt;
  }

  PackView view;
  view.bytes_ = bytes;
  // From here on the container is recognizable: tolerant mode always
  // returns a view (possibly with zero usable records), strict mode aborts
  // once any fault has been recorded.
  std::uint64_t faults_before = diag.faults_total();
  const auto fail_strict = [&]() -> std::optional<PackView> {
    return std::nullopt;
  };

  if (size < kPackHeaderBytes) {
    diag.add_fault(FaultClass::kTruncatedHeader, size, 0,
                   "pack header ends mid-field");
    return tolerant ? std::optional<PackView>(view) : fail_strict();
  }
  view.cycle_id_ = le32(bytes.data() + 8);
  view.sub_index_ = le32(bytes.data() + 12);
  const std::uint32_t section_count = le32(bytes.data() + 16);
  const std::uint64_t total = le64(bytes.data() + 24);
  if (total != size) {
    // A short mapping (truncated file) or trailing garbage. Either way the
    // section table decides what is actually readable below.
    diag.add_fault(total > size ? FaultClass::kTruncatedHeader
                                : FaultClass::kTrailingBytes,
                   24, 0,
                   "header claims " + std::to_string(total) + " bytes, " +
                       std::to_string(size) + " present");
    if (!tolerant) return fail_strict();
  }
  // A hostile count would make the table itself overrun the mapping; cap it
  // before computing table_end.
  if (section_count > 1024) {
    diag.add_fault(FaultClass::kOversizedClaim, 16, 0,
                   "section count " + std::to_string(section_count) +
                       " exceeds any valid pack");
    return tolerant ? std::optional<PackView>(view) : fail_strict();
  }
  const std::size_t table_end =
      kPackHeaderBytes +
      static_cast<std::size_t>(section_count) * kPackSectionEntryBytes;
  if (table_end > size) {
    diag.add_fault(FaultClass::kTruncatedHeader, kPackHeaderBytes, 0,
                   "section table exceeds the mapping");
    return tolerant ? std::optional<PackView>(view) : fail_strict();
  }

  // Walk the table; accept each structurally sound section exactly once.
  std::array<bool, kPackSectionCount> present{};
  for (std::uint32_t e = 0; e < section_count; ++e) {
    const std::size_t at = kPackHeaderBytes + e * kPackSectionEntryBytes;
    const std::uint32_t id = le32(bytes.data() + at);
    const std::uint32_t elem = le32(bytes.data() + at + 4);
    const std::uint64_t sec_off = le64(bytes.data() + at + 8);
    const std::uint64_t sec_bytes = le64(bytes.data() + at + 16);
    const std::uint64_t checksum = le64(bytes.data() + at + 24);
    if (id >= kPackSectionCount) {
      // Unknown sections from a future writer would be skippable; random
      // ids in a version-3 pack are damage.
      diag.add_fault(FaultClass::kBadSectionTable, at, 0,
                     "unknown section id " + std::to_string(id));
      continue;
    }
    if (present[id]) {
      diag.add_fault(FaultClass::kBadSectionTable, at, 0,
                     "duplicate section id " + std::to_string(id));
      continue;
    }
    if (elem != kElemSize[id] || sec_bytes % kElemSize[id] != 0 ||
        sec_off % kPackAlignment != 0 || sec_off < table_end) {
      diag.add_fault(FaultClass::kBadSectionTable, at, 0,
                     "section " + std::to_string(id) +
                         " misaligned or mis-sized");
      continue;
    }
    if (sec_off > size || sec_bytes > size - sec_off) {
      diag.add_fault(FaultClass::kOversizedClaim, at, 0,
                     "section " + std::to_string(id) +
                         " claims bytes beyond the mapping");
      continue;
    }
    if (pack_checksum(bytes.substr(sec_off, sec_bytes)) != checksum) {
      diag.add_fault(FaultClass::kChecksumMismatch,
                     static_cast<std::size_t>(sec_off), 0,
                     "section " + std::to_string(id) + " checksum mismatch");
      if (!tolerant) return fail_strict();
      // Bounds-safe to read; values are suspect. The offset-column scans
      // below keep record slicing in range regardless.
    }
    present[id] = true;
    view.section_off_[id] = static_cast<std::size_t>(sec_off);
    view.section_bytes_[id] = static_cast<std::size_t>(sec_bytes);
  }

  // Reject overlapping payloads: sort accepted sections by offset and check
  // adjacent pairs. Overlap means at least one of the claims lies.
  {
    std::array<std::size_t, kPackSectionCount> order{};
    std::size_t n = 0;
    for (std::size_t s = 0; s < kPackSectionCount; ++s) {
      if (present[s]) order[n++] = s;
    }
    std::sort(order.begin(), order.begin() + n,
              [&](std::size_t a, std::size_t b) {
                return view.section_off_[a] < view.section_off_[b];
              });
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const std::size_t a = order[k];
      const std::size_t b = order[k + 1];
      if (view.section_off_[a] + view.section_bytes_[a] >
          view.section_off_[b]) {
        diag.add_fault(FaultClass::kBadSectionTable, view.section_off_[b], 0,
                       "sections " + std::to_string(a) + " and " +
                           std::to_string(b) + " overlap");
        present[a] = present[b] = false;
      }
    }
  }

  if (present[section_index(PackSection::kDate)]) {
    const std::size_t s = section_index(PackSection::kDate);
    view.date_ = bytes.substr(view.section_off_[s], view.section_bytes_[s]);
  }

  // Derive record counts and cross-check that every trace column agrees.
  const auto col_bytes = [&](PackSection s) {
    return present[section_index(s)] ? view.section_bytes_[section_index(s)]
                                     : static_cast<std::size_t>(0);
  };
  bool traces_usable =
      present[section_index(PackSection::kTraceMonitor)] &&
      present[section_index(PackSection::kTraceSrc)] &&
      present[section_index(PackSection::kTraceDst)] &&
      present[section_index(PackSection::kTraceReached)] &&
      present[section_index(PackSection::kHopOffset)];
  std::size_t n_traces = 0;
  if (traces_usable) {
    n_traces = col_bytes(PackSection::kTraceMonitor) / 4;
    if (col_bytes(PackSection::kTraceSrc) / 4 != n_traces ||
        col_bytes(PackSection::kTraceDst) / 4 != n_traces ||
        col_bytes(PackSection::kTraceReached) != n_traces ||
        col_bytes(PackSection::kHopOffset) != (n_traces + 1) * 8) {
      diag.add_fault(FaultClass::kBadSectionTable, 0, 0,
                     "trace columns disagree on record count");
      traces_usable = false;
    }
  } else if (std::count(present.begin(), present.end(), true) > 0) {
    diag.add_fault(FaultClass::kBadSectionTable, 0, 0,
                   "core trace columns missing");
  }
  const bool hops_present = present[section_index(PackSection::kHopAddr)] &&
                            present[section_index(PackSection::kHopRtt)] &&
                            present[section_index(PackSection::kHopLseOffset)];
  const bool hops_usable =
      hops_present &&
      col_bytes(PackSection::kHopRtt) == col_bytes(PackSection::kHopAddr) &&
      col_bytes(PackSection::kHopLseOffset) ==
          col_bytes(PackSection::kHopAddr) / 4 * 8 + 8;
  if (hops_present && !hops_usable) {
    // Hop columns damaged: traces with hops cannot be sliced. Record once;
    // the per-record scan below skips exactly the affected traces.
    diag.add_fault(FaultClass::kBadSectionTable, 0, 0,
                   "hop columns disagree on record count");
  }
  const bool lses_usable = present[section_index(PackSection::kLsePool)];
  view.n_hops_ = hops_usable ? col_bytes(PackSection::kHopAddr) / 4 : 0;
  view.n_lses_ = lses_usable ? col_bytes(PackSection::kLsePool) / 4 : 0;
  view.n_traces_ = traces_usable ? n_traces : 0;

  // Validate the offset columns: monotone prefix sums inside the pools.
  if (traces_usable && n_traces > 0) {
    const char* hop_off_col =
        bytes.data() +
        view.section_off_[section_index(PackSection::kHopOffset)];
    const char* lse_off_col =
        hops_usable
            ? bytes.data() +
                  view.section_off_[section_index(PackSection::kHopLseOffset)]
            : nullptr;
    // Fast path: scan each column once, branch-free, for global
    // monotonicity within its pool bound. When it holds (every undamaged
    // pack), all records are valid and no per-record work happens — this
    // pass vectorizes, so validation runs at memory speed.
    const auto column_monotone = [](const char* col, std::size_t entries,
                                    std::uint64_t bound, bool pool_usable) {
      std::uint64_t prev = le64(col);
      bool mono = true;
      for (std::size_t i = 1; i < entries; ++i) {
        const std::uint64_t cur = le64(col + i * 8);
        mono &= prev <= cur;
        prev = cur;
      }
      // Without a usable pool only empty ranges are valid: with
      // monotonicity established, first == last means all-equal.
      return mono && (pool_usable ? prev <= bound : le64(col) == prev);
    };
    bool fast =
        column_monotone(hop_off_col, n_traces + 1, view.n_hops_, hops_usable);
    if (fast && lse_off_col != nullptr) {
      fast = column_monotone(lse_off_col, view.n_hops_ + 1, view.n_lses_,
                             lses_usable);
    }
    if (fast) {
      diag.records_decoded += n_traces;
    } else {
      // Damaged column: fall back to per-record slicing so individual bad
      // records are skipped instead of the whole snapshot. An empty range
      // reads nothing, so it stays valid even when the pool it nominally
      // indexes is damaged or gone.
      std::size_t skipped = 0;
      for (std::size_t i = 0; i < n_traces; ++i) {
        const std::uint64_t a = le64(hop_off_col + i * 8);
        const std::uint64_t b = le64(hop_off_col + (i + 1) * 8);
        bool ok = a <= b && (a == b || (b <= view.n_hops_ && hops_usable));
        if (ok && a != b && lse_off_col != nullptr) {
          for (std::uint64_t h = a; ok && h < b; ++h) {
            const std::uint64_t la = le64(lse_off_col + h * 8);
            const std::uint64_t lb = le64(lse_off_col + (h + 1) * 8);
            ok = la <= lb &&
                 (la == lb || (lb <= view.n_lses_ && lses_usable));
          }
        }
        if (!ok) {
          if (view.invalid_.empty()) view.invalid_.assign(n_traces, false);
          view.invalid_[i] = true;
          ++skipped;
          diag.add_fault(FaultClass::kBadOffsetIndex, i * 8, i,
                         "record " + std::to_string(i) +
                             " offsets out of range");
        }
      }
      diag.records_skipped += skipped;
      diag.records_decoded += n_traces - skipped;
    }
  }

  if (!tolerant && diag.faults_total() != faults_before) return std::nullopt;
  return view;
}

std::size_t PackView::valid_count() const noexcept {
  if (invalid_.empty()) return n_traces_;
  std::size_t n = 0;
  for (std::size_t i = 0; i < n_traces_; ++i) n += invalid_[i] ? 0 : 1;
  return n;
}

const char* PackView::u32_col(PackSection s) const noexcept {
  return bytes_.data() + section_off_[section_index(s)];
}

void PackView::append_trace(std::size_t i, TraceBatch& out) const {
  out.begin_trace(le32(u32_col(PackSection::kTraceMonitor) + i * 4),
                  net::Ipv4Addr(le32(u32_col(PackSection::kTraceSrc) + i * 4)),
                  net::Ipv4Addr(le32(u32_col(PackSection::kTraceDst) + i * 4)));
  const char* hop_off_col = u32_col(PackSection::kHopOffset);
  const auto a = static_cast<std::size_t>(le64(hop_off_col + i * 8));
  const auto b = static_cast<std::size_t>(le64(hop_off_col + (i + 1) * 8));
  const char* addr_col = u32_col(PackSection::kHopAddr);
  const char* rtt_col = u32_col(PackSection::kHopRtt);
  const char* lse_off_col = u32_col(PackSection::kHopLseOffset);
  const char* pool = u32_col(PackSection::kLsePool);
  for (std::size_t h = a; h < b; ++h) {
    out.add_hop(net::Ipv4Addr(le32(addr_col + h * 4)),
                static_cast<double>(le32(rtt_col + h * 4)) / 1000.0);
    const auto la = static_cast<std::size_t>(le64(lse_off_col + h * 8));
    const auto lb = static_cast<std::size_t>(le64(lse_off_col + (h + 1) * 8));
    for (std::size_t s = la; s < lb; ++s) out.add_label(le32(pool + s * 4));
  }
  out.end_trace(
      bytes_[section_off_[section_index(PackSection::kTraceReached)] + i] !=
      0);
}

SnapshotBatch PackView::to_snapshot_batch() const {
  SnapshotBatch out;
  out.cycle_id = cycle_id_;
  out.sub_index = sub_index_;
  out.date.assign(date_);
  if (n_traces_ == 0) {
    out.blocks.emplace_back();
    return out;
  }

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Fast path: every record valid and the hop/LSE sections structurally
  // sound — the wire columns are exactly the batch columns, so ingest is a
  // handful of bulk copies into the batch columns. (LE only: on the wire the
  // columns are little-endian.)
  const auto sec_ptr = [&](PackSection s) {
    return bytes_.data() + section_off_[section_index(s)];
  };
  const auto aligned8 = [](const char* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
  };
  const bool hop_cols_sound =
      section_bytes_[section_index(PackSection::kHopLseOffset)] ==
          (n_hops_ + 1) * 8 &&
      section_bytes_[section_index(PackSection::kHopAddr)] == n_hops_ * 4 &&
      section_bytes_[section_index(PackSection::kHopRtt)] == n_hops_ * 4;
  if (invalid_.empty() && hop_cols_sound &&
      aligned8(sec_ptr(PackSection::kHopOffset)) &&
      aligned8(sec_ptr(PackSection::kHopLseOffset)) &&
      aligned8(sec_ptr(PackSection::kTraceMonitor)) &&
      aligned8(sec_ptr(PackSection::kHopAddr))) {
    const auto u32s = [&](PackSection s, std::size_t n) {
      return std::span<const std::uint32_t>(
          reinterpret_cast<const std::uint32_t*>(sec_ptr(s)), n);
    };
    const auto u64s = [&](PackSection s, std::size_t n) {
      return std::span<const std::uint64_t>(
          reinterpret_cast<const std::uint64_t*>(sec_ptr(s)), n);
    };
    out.blocks.emplace_back(n_traces_, n_hops_, n_lses_)
        .assign_columns(
        u32s(PackSection::kTraceMonitor, n_traces_),
        u32s(PackSection::kTraceSrc, n_traces_),
        u32s(PackSection::kTraceDst, n_traces_),
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(
                sec_ptr(PackSection::kTraceReached)),
            n_traces_),
        u64s(PackSection::kHopOffset, n_traces_ + 1),
        u32s(PackSection::kHopAddr, n_hops_),
        u32s(PackSection::kHopRtt, n_hops_),
        u64s(PackSection::kHopLseOffset, n_hops_ + 1),
        u32s(PackSection::kLsePool, n_lses_));
    return out;
  }
#endif

  // Damaged (or exotic-host) path: append valid records one by one.
  TraceBatch& block = out.blocks.emplace_back();
  for (std::size_t i = 0; i < n_traces_; ++i) {
    if (trace_valid(i)) append_trace(i, block);
  }
  return out;
}

std::optional<SnapshotBatch> parse_pack(std::string_view bytes,
                                        const DecodeOptions& options,
                                        DecodeDiagnostics* diagnostics) {
  const auto view = PackView::open(bytes, options, diagnostics);
  if (!view) return std::nullopt;
  return view->to_snapshot_batch();
}

}  // namespace mum::dataset
