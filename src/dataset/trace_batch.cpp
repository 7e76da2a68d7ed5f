#include "dataset/trace_batch.h"

#include <algorithm>
#include <utility>

namespace mum::dataset {

TraceBatch::TraceBatch(std::size_t traces, std::size_t hops,
                       std::size_t lses) {
  monitor_.reserve(traces);
  src_.reserve(traces);
  dst_.reserve(traces);
  dst_asn_.reserve(traces);
  reached_.reserve(traces);
  hop_off_.reserve(traces + 1);
  hop_addr_.reserve(hops);
  hop_rtt_.reserve(hops);
  hop_asn_.reserve(hops);
  lse_off_.reserve(hops + 1);
  lse_pool_.reserve(lses);
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
  monitor_.resize(traces);
  src_.resize(traces);
  dst_.resize(traces);
  dst_asn_.resize(traces);
  const auto hops = static_cast<std::size_t>(hop_off_.back());
  hop_addr_.resize(hops);
  hop_rtt_.resize(hops);
  hop_asn_.resize(hops);
  lse_off_.resize(hops + 1);
  lse_pool_.resize(static_cast<std::size_t>(lse_off_.back()));
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
  monitor_.assign(monitor.begin(), monitor.end());
  src_.assign(src.begin(), src.end());
  dst_.assign(dst.begin(), dst.end());
  reached_.assign(reached.begin(), reached.end());
  hop_off_.assign(hop_off.begin(), hop_off.end());
  hop_addr_.assign(hop_addr.begin(), hop_addr.end());
  lse_off_.assign(lse_off.begin(), lse_off.end());
  lse_pool_.assign(lse_pool.begin(), lse_pool.end());
  // Annotations are not persisted in the pack; zero-fill like a fresh run.
  dst_asn_.assign(monitor.size(), 0);
  hop_asn_.assign(hop_addr.size(), 0);
  hop_rtt_.resize(hop_rtt_q.size());
  std::ranges::transform(hop_rtt_q, hop_rtt_.begin(), [](std::uint32_t q) {
    return static_cast<double>(q) / 1000.0;
  });
}

template <class F>
std::size_t TraceBatch::sum_columns(F f) const noexcept {
  return f(monitor_) + f(src_) + f(dst_) + f(dst_asn_) + f(reached_) +
         f(hop_off_) + f(hop_addr_) + f(hop_rtt_) + f(hop_asn_) +
         f(lse_off_) + f(lse_pool_);
}

std::size_t TraceBatch::capacity_bytes() const noexcept {
  return sum_columns(
      [](const auto& col) { return col.capacity() * sizeof(col[0]); });
}

std::size_t TraceBatch::used_bytes() const noexcept {
  return sum_columns(
      [](const auto& col) { return col.size() * sizeof(col[0]); });
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
