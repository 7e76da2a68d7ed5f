// Structure-of-arrays trace storage — the measurement-plane mirror of the
// v3 pack layout (pack.h).
//
// A TraceBatch holds a block of traces as contiguous std::vector columns:
// fixed per-trace fields (monitor, src, dst, dst_asn, reached), a
// prefix-sum hop-offset column, per-hop columns (addr, rtt, asn), a
// prefix-sum LSE-offset column, and one shared pool of RFC 3032
// label-stack words replacing per-hop heap-owning LabelStack vectors. The
// column set and ordering deliberately match PackSection, so a block
// serializes into a .mump pack as one memcpy per column (pack.cpp) and
// ingesting a pack is the inverse — no per-record re-encoding on either
// side.
//
// Offsets are ends-exclusive prefix sums with a leading zero (trace i owns
// hops [hop_off[i], hop_off[i+1]); hop h owns LSE words [lse_off[h],
// lse_off[h+1])) — the exact shape the pack's offset sections carry.
//
// RTTs are stored as the raw doubles the trace engine produced, NOT the
// pack's millisecond-quantized u32s: quantization is a serialization
// concern (serialize_pack and the v2 writer both round on the way out).
//
// A SnapshotBatch is a list of these blocks and the only in-memory form of
// a snapshot: each campaign monitor probes into its own block, the chaos
// corruptor and both decoders write one block, and LPR extraction and the
// writers walk the blocks in order. Hand-built lab inputs go through the
// same append protocol (begin_trace / add_hop / add_label / end_trace).
//
// Column memory: a batch of unknown size grows its columns as vectors do;
// a batch constructed from counts reserves every column to them (the
// campaign sizes each monitor's block from that monitor's previous one).
// Columns hold only trivially-copyable data, so moving a batch moves
// eleven vectors and dropping one frees them without per-trace
// destructors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/lse.h"

namespace mum::dataset {

class TraceBatch;

// Lightweight accessor for one hop of a batch (index into the hop columns).
class HopView {
 public:
  HopView(const TraceBatch* batch, std::size_t hop) noexcept
      : batch_(batch), hop_(hop) {}

  net::Ipv4Addr addr() const noexcept;
  double rtt_ms() const noexcept;
  std::uint32_t asn() const noexcept;
  bool anonymous() const noexcept { return addr() == net::kAnonymousAddr; }
  std::size_t label_depth() const noexcept;
  bool has_labels() const noexcept { return label_depth() != 0; }
  // RFC 3032 wire words of the quoted stack, top first.
  std::span<const std::uint32_t> lse_words() const noexcept;
  // Label values, top first (what LPR compares).
  std::vector<std::uint32_t> labels() const;
  // The quoted stack as a LabelStack value (text rendering, tests).
  net::LabelStack label_stack() const;

 private:
  const TraceBatch* batch_;
  std::size_t hop_;  // global hop index within the batch
};

// Lightweight accessor for one trace of a batch.
class TraceView {
 public:
  TraceView(const TraceBatch* batch, std::size_t index) noexcept
      : batch_(batch), index_(index) {}

  std::uint32_t monitor_id() const noexcept;
  net::Ipv4Addr src() const noexcept;
  net::Ipv4Addr dst() const noexcept;
  std::uint32_t dst_asn() const noexcept;
  bool reached() const noexcept;
  std::size_t hop_count() const noexcept;
  // k-th hop of this trace (k in [0, hop_count())).
  HopView hop(std::size_t k) const noexcept;
  // Global index of this trace's first hop in the hop columns.
  std::size_t first_hop() const noexcept;
  // True when any hop carries a quoted label stack (explicit tunnel signal).
  bool crosses_explicit_tunnel() const noexcept;

 private:
  const TraceBatch* batch_;
  std::size_t index_;
};

// Forward iteration over a batch's traces as TraceViews (range-for).
class TraceIterator {
 public:
  TraceIterator(const TraceBatch* batch, std::size_t index) noexcept
      : batch_(batch), index_(index) {}
  TraceView operator*() const noexcept { return TraceView(batch_, index_); }
  TraceIterator& operator++() noexcept {
    ++index_;
    return *this;
  }
  bool operator==(const TraceIterator&) const noexcept = default;

 private:
  const TraceBatch* batch_;
  std::size_t index_;
};

class TraceBatch {
 public:
  // Empty columns that grow as traces are appended.
  TraceBatch() = default;
  // Every column reserved to these counts. Appending past a count still
  // works; the columns past it grow as vectors do.
  TraceBatch(std::size_t traces, std::size_t hops, std::size_t lses);

  TraceBatch(TraceBatch&&) noexcept = default;
  TraceBatch& operator=(TraceBatch&&) noexcept = default;
  TraceBatch(const TraceBatch&) = delete;
  TraceBatch& operator=(const TraceBatch&) = delete;

  std::size_t trace_count() const noexcept { return monitor_.size(); }
  std::size_t hop_count() const noexcept { return hop_addr_.size(); }
  std::size_t lse_count() const noexcept { return lse_pool_.size(); }
  bool empty() const noexcept { return monitor_.empty(); }

  // --- append protocol (no interleaving between traces) ------------------
  // begin_trace, then per hop: add_hop followed by its add_label calls,
  // then end_trace — or discard_trace to drop the open trace and every hop
  // and label added to it (a decoder abandoning a malformed record).
  void begin_trace(std::uint32_t monitor_id, net::Ipv4Addr src,
                   net::Ipv4Addr dst, std::uint32_t dst_asn = 0);
  void add_hop(net::Ipv4Addr addr, double rtt_ms, std::uint32_t asn = 0);
  // Append one RFC 3032 word to the stack of the hop added last.
  void add_label(std::uint32_t lse_word);
  void end_trace(bool reached);
  void discard_trace();

  // Bulk load from raw (host-order) columns into an empty batch — the pack
  // ingest path. The offset columns include their leading zero; rtt arrives
  // quantized (milliseconds * 1000) exactly as the pack stores it.
  void assign_columns(std::span<const std::uint32_t> monitor,
                      std::span<const std::uint32_t> src,
                      std::span<const std::uint32_t> dst,
                      std::span<const std::uint8_t> reached,
                      std::span<const std::uint64_t> hop_off,
                      std::span<const std::uint32_t> hop_addr,
                      std::span<const std::uint32_t> hop_rtt_quantized,
                      std::span<const std::uint64_t> lse_off,
                      std::span<const std::uint32_t> lse_pool);

  // --- views --------------------------------------------------------------
  TraceView view(std::size_t i) const noexcept { return TraceView(this, i); }
  TraceIterator begin() const noexcept { return {this, 0}; }
  TraceIterator end() const noexcept { return {this, trace_count()}; }

  // --- raw columns (serialization + annotate) ----------------------------
  std::span<const std::uint32_t> monitor_col() const noexcept {
    return monitor_;
  }
  std::span<const std::uint32_t> src_col() const noexcept {
    return src_;
  }
  std::span<const std::uint32_t> dst_col() const noexcept {
    return dst_;
  }
  std::span<const std::uint32_t> dst_asn_col() const noexcept {
    return dst_asn_;
  }
  std::span<const std::uint8_t> reached_col() const noexcept {
    return reached_;
  }
  // Size trace_count()+1; leading zero.
  std::span<const std::uint64_t> hop_off_col() const noexcept {
    return hop_off_;
  }
  std::span<const std::uint32_t> hop_addr_col() const noexcept {
    return hop_addr_;
  }
  std::span<const double> hop_rtt_col() const noexcept {
    return hop_rtt_;
  }
  std::span<const std::uint32_t> hop_asn_col() const noexcept {
    return hop_asn_;
  }
  // Size hop_count()+1; leading zero.
  std::span<const std::uint64_t> lse_off_col() const noexcept {
    return lse_off_;
  }
  std::span<const std::uint32_t> lse_pool_col() const noexcept {
    return lse_pool_;
  }

  // Mutable annotation columns (dataset::Ip2As::annotate writes these).
  std::span<std::uint32_t> dst_asn_mut() noexcept {
    return dst_asn_;
  }
  std::span<std::uint32_t> hop_asn_mut() noexcept {
    return hop_asn_;
  }

  // Bytes the columns hold reserved, and bytes their elements fill (the
  // campaign's probe.arena.* telemetry).
  std::size_t capacity_bytes() const noexcept;
  std::size_t used_bytes() const noexcept;

 private:
  // f(column) summed over the eleven columns.
  template <class F>
  std::size_t sum_columns(F f) const noexcept;

  std::vector<std::uint32_t> monitor_;
  std::vector<std::uint32_t> src_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint32_t> dst_asn_;
  std::vector<std::uint8_t> reached_;
  // The two offset columns start with their leading zero.
  std::vector<std::uint64_t> hop_off_ = {0};
  std::vector<std::uint32_t> hop_addr_;
  std::vector<double> hop_rtt_;
  std::vector<std::uint32_t> hop_asn_;
  std::vector<std::uint64_t> lse_off_ = {0};
  std::vector<std::uint32_t> lse_pool_;
};

// Forward iteration over a snapshot's traces as TraceViews, block after
// block (range-for over a SnapshotBatch).
class SnapshotIterator {
 public:
  SnapshotIterator(std::span<const TraceBatch> blocks,
                   std::size_t block) noexcept
      : blocks_(blocks), block_(block) {
    skip_empty();
  }
  TraceView operator*() const noexcept {
    return blocks_[block_].view(index_);
  }
  SnapshotIterator& operator++() noexcept {
    if (++index_ == blocks_[block_].trace_count()) {
      index_ = 0;
      ++block_;
      skip_empty();
    }
    return *this;
  }
  bool operator==(const SnapshotIterator& other) const noexcept {
    return block_ == other.block_ && index_ == other.index_;
  }

 private:
  void skip_empty() noexcept {
    while (block_ < blocks_.size() && blocks_[block_].empty()) ++block_;
  }

  std::span<const TraceBatch> blocks_;
  std::size_t block_;
  std::size_t index_ = 0;
};

// One probing run of the whole monitor fleet ("team run" / daily
// snapshot), stored columnar. Its traces are the blocks' traces, in block
// order: one block per monitor as the campaign probed them (monitor
// order), one block once decoded or rebuilt by the chaos corruptor. No
// reader or writer depends on where the block boundaries fall.
struct SnapshotBatch {
  std::uint32_t cycle_id = 0;   // global cycle index (0-based)
  std::uint32_t sub_index = 0;  // snapshot index within the month (0 = cycle)
  std::string date;             // "YYYY-MM" or "YYYY-MM-DD"
  std::vector<TraceBatch> blocks;

  std::size_t trace_count() const noexcept;
  std::size_t hop_count() const noexcept;
  std::size_t lse_count() const noexcept;

  SnapshotIterator begin() const noexcept { return {blocks, 0}; }
  SnapshotIterator end() const noexcept { return {blocks, blocks.size()}; }
};

// A month of data (the paper's unit: "the first run of each team" in a
// month): the cycle snapshot (index 0) plus the additional snapshots the
// Persistence filter compares against (X+1 ... X+j).
struct MonthData {
  std::uint32_t cycle_id = 0;
  std::string date;
  std::vector<SnapshotBatch> snapshots;

  const SnapshotBatch& cycle() const { return snapshots.front(); }
};

// --- inline view accessors (definitions need TraceBatch complete) ---------

inline net::Ipv4Addr HopView::addr() const noexcept {
  return net::Ipv4Addr(batch_->hop_addr_col()[hop_]);
}
inline double HopView::rtt_ms() const noexcept {
  return batch_->hop_rtt_col()[hop_];
}
inline std::uint32_t HopView::asn() const noexcept {
  return batch_->hop_asn_col()[hop_];
}
inline std::size_t HopView::label_depth() const noexcept {
  const auto off = batch_->lse_off_col();
  return static_cast<std::size_t>(off[hop_ + 1] - off[hop_]);
}
inline std::span<const std::uint32_t> HopView::lse_words() const noexcept {
  const auto off = batch_->lse_off_col();
  return batch_->lse_pool_col().subspan(
      static_cast<std::size_t>(off[hop_]),
      static_cast<std::size_t>(off[hop_ + 1] - off[hop_]));
}

inline std::uint32_t TraceView::monitor_id() const noexcept {
  return batch_->monitor_col()[index_];
}
inline net::Ipv4Addr TraceView::src() const noexcept {
  return net::Ipv4Addr(batch_->src_col()[index_]);
}
inline net::Ipv4Addr TraceView::dst() const noexcept {
  return net::Ipv4Addr(batch_->dst_col()[index_]);
}
inline std::uint32_t TraceView::dst_asn() const noexcept {
  return batch_->dst_asn_col()[index_];
}
inline bool TraceView::reached() const noexcept {
  return batch_->reached_col()[index_] != 0;
}
inline std::size_t TraceView::first_hop() const noexcept {
  return static_cast<std::size_t>(batch_->hop_off_col()[index_]);
}
inline std::size_t TraceView::hop_count() const noexcept {
  const auto off = batch_->hop_off_col();
  return static_cast<std::size_t>(off[index_ + 1] - off[index_]);
}
inline HopView TraceView::hop(std::size_t k) const noexcept {
  return HopView(batch_, first_hop() + k);
}
inline bool TraceView::crosses_explicit_tunnel() const noexcept {
  const auto hop_off = batch_->hop_off_col();
  const auto lse_off = batch_->lse_off_col();
  return lse_off[hop_off[index_ + 1]] != lse_off[hop_off[index_]];
}

}  // namespace mum::dataset
