#include "dataset/trace_batch.h"

#include <utility>

namespace mum::dataset {

namespace {
// A monitor's block of traces runs a few hundred KB of columns; start an
// unsized arena there so it reaches its size in a few chunks.
constexpr std::size_t kGrowingArenaChunk = 256 * 1024;

// Arena bytes the columns of a batch with these counts take, each column
// rounded up to 8-byte alignment (an upper bound on the padding the arena
// inserts between them).
std::size_t column_bytes(std::size_t traces, std::size_t hops,
                         std::size_t lses) noexcept {
  const auto col = [](std::size_t n, std::size_t elem) {
    return (n * elem + 7) & ~std::size_t{7};
  };
  // monitor, src, dst, dst_asn; reached; hop_off; hop_addr, hop_asn;
  // hop_rtt; lse_off; lse_pool.
  return 4 * col(traces, 4) + col(traces, 1) + col(traces + 1, 8) +
         2 * col(hops, 4) + col(hops, 8) + col(hops + 1, 8) + col(lses, 4);
}
}  // namespace

TraceBatch::TraceBatch()
    : TraceBatch(std::make_unique<util::Arena>(kGrowingArenaChunk), 0, 0, 0) {
}

TraceBatch::TraceBatch(std::size_t traces, std::size_t hops,
                       std::size_t lses)
    : TraceBatch(std::make_unique<util::Arena>(
                     column_bytes(traces, hops, lses)),
                 traces, hops, lses) {}

TraceBatch::TraceBatch(std::unique_ptr<util::Arena> arena,
                       std::size_t traces, std::size_t hops,
                       std::size_t lses)
    : arena_(std::move(arena)),
      monitor_(*arena_, traces),
      src_(*arena_, traces),
      dst_(*arena_, traces),
      dst_asn_(*arena_, traces),
      reached_(*arena_, traces),
      hop_off_(*arena_, traces + 1),
      hop_addr_(*arena_, hops),
      hop_rtt_(*arena_, hops),
      hop_asn_(*arena_, hops),
      lse_off_(*arena_, hops + 1),
      lse_pool_(*arena_, lses) {
  hop_off_.push_back(0);
  lse_off_.push_back(0);
}

void TraceBatch::rehome(std::size_t traces, std::size_t hops,
                        std::size_t lses) {
  TraceBatch out(traces, hops, lses);
  out.monitor_.append(monitor_.span());
  out.src_.append(src_.span());
  out.dst_.append(dst_.span());
  out.dst_asn_.append(dst_asn_.span());
  out.reached_.append(reached_.span());
  out.hop_addr_.append(hop_addr_.span());
  out.hop_rtt_.append(hop_rtt_.span());
  out.hop_asn_.append(hop_asn_.span());
  out.lse_pool_.append(lse_pool_.span());
  out.hop_off_.clear();
  out.hop_off_.append(hop_off_.span());
  out.lse_off_.clear();
  out.lse_off_.append(lse_off_.span());
  *this = std::move(out);
}

void TraceBatch::begin_trace(std::uint32_t monitor_id, net::Ipv4Addr src,
                             net::Ipv4Addr dst, std::uint32_t dst_asn) {
  monitor_.push_back(monitor_id);
  src_.push_back(src.value());
  dst_.push_back(dst.value());
  dst_asn_.push_back(dst_asn);
}

void TraceBatch::add_hop(net::Ipv4Addr addr, double rtt_ms,
                         std::uint32_t asn) {
  hop_addr_.push_back(addr.value());
  hop_rtt_.push_back(rtt_ms);
  hop_asn_.push_back(asn);
  // The hop starts label-less; add_label advances this end marker.
  lse_off_.push_back(lse_pool_.size());
}

void TraceBatch::add_label(std::uint32_t lse_word) {
  lse_pool_.push_back(lse_word);
  lse_off_.back() = lse_pool_.size();
}

void TraceBatch::end_trace(bool reached) {
  reached_.push_back(reached ? 1 : 0);
  hop_off_.push_back(hop_addr_.size());
}

void TraceBatch::discard_trace() {
  const std::size_t traces = reached_.size();
  monitor_.truncate(traces);
  src_.truncate(traces);
  dst_.truncate(traces);
  dst_asn_.truncate(traces);
  const auto hops = static_cast<std::size_t>(hop_off_.back());
  hop_addr_.truncate(hops);
  hop_rtt_.truncate(hops);
  hop_asn_.truncate(hops);
  lse_off_.truncate(hops + 1);
  lse_pool_.truncate(static_cast<std::size_t>(lse_off_.back()));
}

void TraceBatch::assign_columns(std::span<const std::uint32_t> monitor,
                                std::span<const std::uint32_t> src,
                                std::span<const std::uint32_t> dst,
                                std::span<const std::uint8_t> reached,
                                std::span<const std::uint64_t> hop_off,
                                std::span<const std::uint32_t> hop_addr,
                                std::span<const std::uint32_t> hop_rtt_q,
                                std::span<const std::uint64_t> lse_off,
                                std::span<const std::uint32_t> lse_pool) {
  monitor_.append(monitor);
  src_.append(src);
  dst_.append(dst);
  reached_.append(reached);
  hop_addr_.append(hop_addr);
  lse_pool_.append(lse_pool);
  hop_off_.clear();
  hop_off_.append(hop_off);
  lse_off_.clear();
  lse_off_.append(lse_off);
  // Annotations are not persisted in the pack; zero-fill like a fresh run.
  for (std::size_t i = 0; i < monitor.size(); ++i) dst_asn_.push_back(0);
  for (std::size_t h = 0; h < hop_addr.size(); ++h) {
    hop_asn_.push_back(0);
    hop_rtt_.push_back(static_cast<double>(hop_rtt_q[h]) / 1000.0);
  }
}

std::size_t SnapshotBatch::trace_count() const noexcept {
  std::size_t n = 0;
  for (const TraceBatch& block : blocks) n += block.trace_count();
  return n;
}

std::size_t SnapshotBatch::hop_count() const noexcept {
  std::size_t n = 0;
  for (const TraceBatch& block : blocks) n += block.hop_count();
  return n;
}

std::size_t SnapshotBatch::lse_count() const noexcept {
  std::size_t n = 0;
  for (const TraceBatch& block : blocks) n += block.lse_count();
  return n;
}

std::vector<std::uint32_t> HopView::labels() const {
  const auto words = lse_words();
  std::vector<std::uint32_t> out;
  out.reserve(words.size());
  for (const std::uint32_t w : words) out.push_back(w >> 12);
  return out;
}

net::LabelStack HopView::label_stack() const {
  const auto words = lse_words();
  std::vector<net::LabelStackEntry> entries;
  entries.reserve(words.size());
  for (const std::uint32_t w : words) {
    entries.push_back(net::LabelStackEntry::decode(w));
  }
  return net::LabelStack(std::move(entries));
}

}  // namespace mum::dataset
