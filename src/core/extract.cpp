#include "core/extract.h"

#include <algorithm>
#include <array>
#include <bit>
#include <iterator>
#include <span>
#include <utility>

#include "util/thread_pool.h"

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

// The hop columns the run scanner reads.
struct HopColumns {
  explicit HopColumns(const dataset::TraceBatch& batch)
      : hop_off(batch.hop_off_col()),
        addr(batch.hop_addr_col()),
        asn(batch.hop_asn_col()),
        lse_off(batch.lse_off_col()),
        lse(batch.lse_pool_col()) {}

  bool labeled(std::size_t h) const noexcept {
    return lse_off[h + 1] != lse_off[h];
  }
  bool anonymous(std::size_t h) const noexcept { return addr[h] == 0; }
  // Label values of hop h's quoted stack, top first, as f(label).
  template <class F>
  void for_each_label(std::size_t h, F&& f) const {
    for (std::size_t w = lse_off[h]; w < lse_off[h + 1]; ++w) f(lse[w] >> 12);
  }

  std::span<const std::uint64_t> hop_off;
  std::span<const std::uint32_t> addr;
  std::span<const std::uint32_t> asn;
  std::span<const std::uint64_t> lse_off;
  std::span<const std::uint32_t> lse;
};

// One maximal labeled run of a trace, as global hop indices.
struct Run {
  std::size_t first = 0;
  std::size_t last = 0;
  bool complete = false;
  // Set for complete runs only.
  std::uint32_t asn = 0;   // run_asn: 0 marks a multi-AS run
  std::size_t egress = 0;  // last + 1 under PHP, else last (labeled egress)
};

// ASN of the labeled run [first, last]: its first mapped ASN, or 0 (the
// IntraAS filter's reject mark) once a second distinct mapped ASN appears.
// Same as a majority vote + intra-AS check: 2+ distinct ASNs force 0 anyway.
std::uint32_t run_asn(const HopColumns& c, std::size_t first,
                      std::size_t last) {
  std::uint32_t asn = dataset::kUnknownAsn;
  for (std::size_t k = first; k <= last; ++k) {
    const std::uint32_t hop_asn = c.asn[k];
    if (hop_asn == dataset::kUnknownAsn || hop_asn == asn) continue;
    if (asn != dataset::kUnknownAsn) return 0;
    asn = hop_asn;
  }
  return asn;
}

// The run scanner: on_run(run) for every maximal labeled run of the trace
// that owns hops [begin, end), in hop order.
template <class OnRun>
void scan_runs(const HopColumns& c, std::size_t begin, std::size_t end,
               OnRun&& on_run) {
  std::size_t i = begin;
  while (i < end) {
    if (!c.labeled(i)) {
      ++i;
      continue;
    }
    // Maximal labeled run [first, last]. Anonymous hops break the run but
    // make the LSP incomplete (an LSR failed to reply).
    Run run;
    run.first = i;
    std::size_t last = i;
    bool run_has_anonymous = false;
    while (last + 1 < end) {
      if (c.labeled(last + 1)) {
        ++last;
      } else if (c.anonymous(last + 1) && last + 2 < end &&
                 c.labeled(last + 2)) {
        // '*' wedged between labeled hops: the run continues but is
        // incomplete in the traceroute sense.
        run_has_anonymous = true;
        last += 2;
      } else {
        break;
      }
    }
    i = last + 1;
    run.last = last;

    // Completeness: need both endpoint hops, responding, and no '*' inside.
    const bool has_ingress = run.first > begin && !c.anonymous(run.first - 1);
    const bool has_exit = last + 1 < end && !c.anonymous(last + 1);
    run.complete = !run_has_anonymous && has_ingress && has_exit;
    if (run.complete) {
      // Multi-AS runs carry asn=0 so the IntraAS filter rejects them.
      run.asn = run_asn(c, run.first, last);
      // Exit point: the hop after the run when it still belongs to the
      // tunnel's AS (PHP), else the last labeled hop (non-PHP egress).
      const bool php = run.asn != 0 && c.asn[last + 1] == run.asn;
      run.egress = php ? last + 1 : last;
    }
    on_run(run);
  }
}

// The observations and trace/LSP counters of one trace range.
struct Chunk {
  std::vector<LspObservation> observations;
  ExtractStats stats;
};

void extract_traces(const dataset::TraceBatch& batch, const HopColumns& c,
                    const dataset::Ip2As& ip2as, std::size_t first_trace,
                    std::size_t end_trace, Chunk& out) {
  const auto dst = batch.dst_col();
  const auto dst_asn = batch.dst_asn_col();
  const auto monitor = batch.monitor_col();
  for (std::size_t t = first_trace; t < end_trace; ++t) {
    ++out.stats.traces_total;
    bool saw_tunnel = false;
    scan_runs(c, c.hop_off[t], c.hop_off[t + 1], [&](const Run& run) {
      saw_tunnel = true;
      ++out.stats.lsps_observed;
      if (!run.complete) {
        ++out.stats.lsps_incomplete;
        return;
      }
      LspObservation& obs = out.observations.emplace_back();
      obs.dst_asn = dst_asn[t] != 0 ? dst_asn[t]
                                    : ip2as.lookup(net::Ipv4Addr(dst[t]));
      obs.monitor_id = monitor[t];
      obs.lsp.asn = run.asn;
      obs.lsp.ingress = net::Ipv4Addr(c.addr[run.first - 1]);
      obs.lsp.egress = net::Ipv4Addr(c.addr[run.egress]);
      obs.lsp.egress_labeled = run.egress == run.last;
      obs.lsp.lsrs.reserve(run.last - run.first + 1);
      for (std::size_t k = run.first; k <= run.last; ++k) {
        if (c.anonymous(k)) continue;
        LsrHop& hop = obs.lsp.lsrs.emplace_back();
        hop.addr = net::Ipv4Addr(c.addr[k]);
        hop.labels.reserve(c.lse_off[k + 1] - c.lse_off[k]);
        c.for_each_label(k, [&](std::uint32_t l) { hop.labels.push_back(l); });
      }
    });
    if (saw_tunnel) ++out.stats.traces_with_explicit_tunnel;
  }
}

// Census partition of an address: the top bits of a multiplicative hash,
// like AddrSet's slot hash but with another multiplier. With the same one,
// all addresses of a partition would share their top slot bits and crowd
// into one stretch of that partition's table.
std::size_t census_part(std::uint32_t addr) noexcept {
  static_assert(std::has_single_bit(kCensusParts));
  return (addr * 0x85ebca77u) >> (32 - std::countr_zero(kCensusParts));
}

// The unique responding addresses of one partition, and the labeled
// subset. Every address inside a labeled run is a labeled hop (a bridged
// '*' is anonymous), and every labeled hop lies in a run, so the census is
// a pass over the hop columns alone.
struct CensusPart {
  AddrSet all;
  AddrSet mpls;
};

void census_partition(std::span<const HopColumns> blocks, std::size_t part,
                      CensusPart& out) {
  // Whether a hop belongs to this partition is a coin flip, too random to
  // branch on: compact each stretch's members without branches, then insert.
  constexpr std::size_t kStretch = 512;
  std::array<std::uint32_t, kStretch> addrs;
  std::array<bool, kStretch> labeled;
  for (const HopColumns& c : blocks) {
    for (std::size_t base = 0; base < c.addr.size(); base += kStretch) {
      const std::size_t end = std::min(base + kStretch, c.addr.size());
      std::size_t n = 0;
      for (std::size_t h = base; h < end; ++h) {
        const std::uint32_t addr = c.addr[h];
        addrs[n] = addr;
        labeled[n] = c.labeled(h);
        n += static_cast<std::size_t>((addr != 0) &
                                      (census_part(addr) == part));
      }
      for (std::size_t i = 0; i < n; ++i) {
        out.all.insert(addrs[i]);
        if (labeled[i]) out.mpls.insert(addrs[i]);
      }
    }
  }
}

void sort_unique(PersistenceSet& set) {
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
}

// One trace range of one block.
struct TraceRange {
  std::size_t block = 0;
  std::size_t first = 0;
  std::size_t end = 0;
};

// The cycle snapshot's trace chunks, in trace order: each non-empty block
// splits into kExtractChunks / blocks ranges (at least one). The split
// depends on the block count only, never on the thread count.
std::vector<TraceRange> trace_chunks(
    std::span<const dataset::TraceBatch> blocks) {
  const std::size_t splits =
      std::max<std::size_t>(1, kExtractChunks / std::max<std::size_t>(
                                                    1, blocks.size()));
  std::vector<TraceRange> out;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t traces = blocks[b].trace_count();
    if (traces == 0) continue;
    for (std::size_t s = 0; s < splits; ++s) {
      out.push_back({b, traces * s / splits, traces * (s + 1) / splits});
    }
  }
  return out;
}

// The cycle snapshot's extraction (chunks + census partitions) plus the
// following snapshots' persistence sets, as one parallel_for. Index order
// puts the longest tasks first: the whole-snapshot persistence sets, then
// the census partitions, then the trace chunks.
ExtractedMonth extract_all(const dataset::SnapshotBatch& cycle,
                           std::span<const dataset::SnapshotBatch> following,
                           const dataset::Ip2As& ip2as,
                           util::ThreadPool* pool) {
  ExtractedMonth out;
  out.following.resize(following.size());
  std::vector<CensusPart> census(kCensusParts);
  const std::vector<HopColumns> columns(cycle.blocks.begin(),
                                        cycle.blocks.end());
  const std::vector<TraceRange> ranges = trace_chunks(cycle.blocks);
  std::vector<Chunk> chunks(ranges.size());

  const std::size_t census_base = following.size();
  const std::size_t chunk_base = census_base + kCensusParts;
  util::parallel_for(pool, chunk_base + ranges.size(), [&](std::size_t i) {
    if (i < census_base) {
      out.following[i] = persistence_set(following[i]);
    } else if (i < chunk_base) {
      census_partition(columns, i - census_base, census[i - census_base]);
    } else {
      const TraceRange& r = ranges[i - chunk_base];
      extract_traces(cycle.blocks[r.block], columns[r.block], ip2as, r.first,
                     r.end, chunks[i - chunk_base]);
    }
  });

  ExtractedSnapshot& snap = out.cycle;
  snap.cycle_id = cycle.cycle_id;
  snap.sub_index = cycle.sub_index;
  snap.date = cycle.date;
  std::size_t total = 0;
  for (const Chunk& chunk : chunks) total += chunk.observations.size();
  snap.observations.reserve(total);
  for (Chunk& chunk : chunks) {
    std::move(chunk.observations.begin(), chunk.observations.end(),
              std::back_inserter(snap.observations));
    snap.stats.merge(chunk.stats);
  }
  // Partitions are disjoint, so their counts add up to the exact census.
  for (const CensusPart& part : census) {
    snap.stats.mpls_ips += part.mpls.size();
    snap.stats.non_mpls_ips += part.all.size() - part.mpls.size();
  }
  return out;
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
                               const dataset::Ip2As& ip2as,
                               util::ThreadPool* pool) {
  return extract_all(snapshot, {}, ip2as, pool).cycle;
}

PersistenceSet persistence_set(const dataset::SnapshotBatch& snapshot) {
  PersistenceSet out;
  for (const dataset::TraceBatch& block : snapshot.blocks) {
    const HopColumns c(block);
    for (std::size_t t = 0; t < block.trace_count(); ++t) {
      scan_runs(c, c.hop_off[t], c.hop_off[t + 1], [&](const Run& run) {
        if (!run.complete) return;
        LspHasher hash(run.asn, c.addr[run.first - 1], c.addr[run.egress]);
        for (std::size_t k = run.first; k <= run.last; ++k) {
          if (c.anonymous(k)) continue;
          hash.hop_addr(c.addr[k]);
          c.for_each_label(k, [&](std::uint32_t l) { hash.label(l); });
          hash.end_hop();
        }
        out.push_back(hash.value());
      });
    }
  }
  sort_unique(out);
  return out;
}

PersistenceSet persistence_set(const ExtractedSnapshot& snapshot) {
  PersistenceSet out;
  out.reserve(snapshot.observations.size());
  for (const LspObservation& obs : snapshot.observations) {
    out.push_back(obs.lsp.content_hash());
  }
  sort_unique(out);
  return out;
}

ExtractedMonth extract_month(const dataset::MonthData& month,
                             const dataset::Ip2As& ip2as,
                             util::ThreadPool* pool) {
  const std::span<const dataset::SnapshotBatch> snapshots(month.snapshots);
  return extract_all(snapshots.front(), snapshots.subspan(1), ip2as, pool);
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
  for (const dataset::TraceBatch& block : snapshot.blocks) {
    const auto asns = block.hop_asn_col();
    const auto addrs = block.hop_addr_col();
    const auto lse_off = block.lse_off_col();
    for (std::size_t h = 0; h < addrs.size(); ++h) {
      if (addrs[h] == 0 || asns[h] == dataset::kUnknownAsn) continue;
      Sets& sets = by_as[asns[h]];
      sets.all.insert(addrs[h]);
      if (lse_off[h + 1] != lse_off[h]) sets.mpls.insert(addrs[h]);
    }
  }
  std::unordered_map<std::uint32_t, AsIpCensus> out;
  for (const auto& [asn, sets] : by_as) {
    out[asn] = AsIpCensus{sets.mpls.size(), sets.all.size() - sets.mpls.size()};
  }
  return out;
}

}  // namespace mum::lpr
