#include "util/arena.h"

#include <algorithm>

namespace mum::util {

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // Account the tail of the chunk we are abandoning so used() stays an
  // upper bound on live bytes (conservative for the no-growth gate).
  if (chunk_ < chunks_.size()) {
    used_ += chunks_[chunk_].size - offset_;
    ++chunk_;
    offset_ = 0;
  }
  // Reuse retained chunks from earlier rounds when they fit.
  while (chunk_ < chunks_.size()) {
    if (bytes + align <= chunks_[chunk_].size) break;
    used_ += chunks_[chunk_].size;
    ++chunk_;
  }
  if (chunk_ == chunks_.size()) {
    // Geometric chunk growth keeps the chunk count logarithmic in the
    // eventual footprint without over-reserving small arenas.
    std::size_t want = min_chunk_ << std::min<std::size_t>(chunks_.size(), 10);
    want = std::max(want, bytes + align);
    // Not zero-filled: make_array value-initialises what it hands out, and
    // untouched capacity is never faulted in.
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::byte[]>(want), want});
  }
  Chunk& c = chunks_[chunk_];
  std::size_t base = reinterpret_cast<std::uintptr_t>(c.data.get()) % align;
  std::size_t aligned = base ? align - base : 0;
  void* p = c.data.get() + aligned;
  used_ += aligned + bytes;
  offset_ = aligned + bytes;
  return p;
}

}  // namespace mum::util
