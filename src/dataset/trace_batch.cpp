#include "dataset/trace_batch.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace mum::dataset {

namespace {
// A shard's worth of traces runs a few hundred KB of columns; start the
// private arena there so single-batch users reach steady state in one chunk.
constexpr std::size_t kOwnedArenaChunk = 256 * 1024;
}  // namespace

TraceBatch::TraceBatch()
    : owned_(std::make_unique<util::Arena>(kOwnedArenaChunk)),
      arena_(owned_.get()) {
  init_columns();
}

TraceBatch::TraceBatch(util::Arena& arena) : arena_(&arena) { init_columns(); }

void TraceBatch::init_columns() {
  monitor_ = util::ArenaVector<std::uint32_t>(*arena_);
  src_ = util::ArenaVector<std::uint32_t>(*arena_);
  dst_ = util::ArenaVector<std::uint32_t>(*arena_);
  dst_asn_ = util::ArenaVector<std::uint32_t>(*arena_);
  reached_ = util::ArenaVector<std::uint8_t>(*arena_);
  hop_off_ = util::ArenaVector<std::uint64_t>(*arena_);
  hop_addr_ = util::ArenaVector<std::uint32_t>(*arena_);
  hop_rtt_ = util::ArenaVector<double>(*arena_);
  hop_asn_ = util::ArenaVector<std::uint32_t>(*arena_);
  lse_off_ = util::ArenaVector<std::uint64_t>(*arena_);
  lse_pool_ = util::ArenaVector<std::uint32_t>(*arena_);
  hop_off_.push_back(0);
  lse_off_.push_back(0);
}

void TraceBatch::reserve(std::size_t traces, std::size_t hops,
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

void TraceBatch::clear() {
  monitor_.clear();
  src_.clear();
  dst_.clear();
  dst_asn_.clear();
  reached_.clear();
  hop_off_.clear();
  hop_addr_.clear();
  hop_rtt_.clear();
  hop_asn_.clear();
  lse_off_.clear();
  lse_pool_.clear();
  hop_off_.push_back(0);
  lse_off_.push_back(0);
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

void TraceBatch::append(std::span<const TraceBatch> blocks,
                        util::ThreadPool* pool) {
  // Where each block lands: its trace, hop and LSE starts in the merged
  // columns (prefix sums over the blocks before it, after this batch's own).
  struct Start {
    std::size_t trace, hop, lse;
  };
  std::vector<Start> starts(blocks.size());
  Start end{trace_count(), hop_count(), lse_count()};
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    starts[b] = end;
    end.trace += blocks[b].trace_count();
    end.hop += blocks[b].hop_count();
    end.lse += blocks[b].lse_count();
  }

  monitor_.grow_uninit(end.trace);
  src_.grow_uninit(end.trace);
  dst_.grow_uninit(end.trace);
  dst_asn_.grow_uninit(end.trace);
  reached_.grow_uninit(end.trace);
  hop_off_.grow_uninit(end.trace + 1);
  hop_addr_.grow_uninit(end.hop);
  hop_rtt_.grow_uninit(end.hop);
  hop_asn_.grow_uninit(end.hop);
  lse_off_.grow_uninit(end.hop + 1);
  lse_pool_.grow_uninit(end.lse);

  // Each block fills only its own ranges, so blocks copy in parallel. The
  // offset columns skip the block's leading zero and shift by its base.
  util::parallel_for(pool, blocks.size(), [&](std::size_t b) {
    const TraceBatch& block = blocks[b];
    const Start at = starts[b];
    std::ranges::copy(block.monitor_col(), monitor_.begin() + at.trace);
    std::ranges::copy(block.src_col(), src_.begin() + at.trace);
    std::ranges::copy(block.dst_col(), dst_.begin() + at.trace);
    std::ranges::copy(block.dst_asn_col(), dst_asn_.begin() + at.trace);
    std::ranges::copy(block.reached_col(), reached_.begin() + at.trace);
    std::ranges::copy(block.hop_addr_col(), hop_addr_.begin() + at.hop);
    std::ranges::copy(block.hop_rtt_col(), hop_rtt_.begin() + at.hop);
    std::ranges::copy(block.hop_asn_col(), hop_asn_.begin() + at.hop);
    std::ranges::copy(block.lse_pool_col(), lse_pool_.begin() + at.lse);
    std::ranges::transform(block.hop_off_col().subspan(1),
                           hop_off_.begin() + at.trace + 1,
                           [&](std::uint64_t off) { return off + at.hop; });
    std::ranges::transform(block.lse_off_col().subspan(1),
                           lse_off_.begin() + at.hop + 1,
                           [&](std::uint64_t off) { return off + at.lse; });
  });
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
  clear();
  reserve(monitor.size(), hop_addr.size(), lse_pool.size());
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
