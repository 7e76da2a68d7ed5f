#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace mum::util {

// Chunked bump allocator for per-cycle object churn (RSVP-TE hop storage,
// mpls/rsvp.h). Allocation is a pointer bump; there is no per-object free.
// reset() rewinds to empty while *retaining* every chunk, so a steady
// per-cycle workload reaches its capacity once and then stops allocating
// from the OS entirely — the property tests/test_evolve gates.
//
// Lifetime rule: objects live until the owning arena is reset or destroyed.
// Only trivially-destructible element types are allowed (no destructors run).
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t min_chunk_bytes = kDefaultChunkBytes) noexcept
      : min_chunk_(min_chunk_bytes ? min_chunk_bytes : kDefaultChunkBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  // Typed array allocation, value-constructed, with an optional alignment
  // override.
  template <class T>
  std::span<T> make_array(std::size_t n, std::size_t align = alignof(T)) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), align));
    std::uninitialized_value_construct_n(p, n);
    return {p, n};
  }

  // Rewind to empty; all chunks are kept for reuse.
  void reset() noexcept {
    chunk_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  // Sum of chunk sizes currently held (never shrinks).
  std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  // Bytes handed out since the last reset (including alignment padding).
  std::size_t used() const noexcept { return used_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk being bumped
  std::size_t offset_ = 0;  // bump cursor within chunks_[chunk_]
  std::size_t min_chunk_;
  std::size_t used_ = 0;
};

inline void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (chunk_ < chunks_.size()) {
    Chunk& c = chunks_[chunk_];
    const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
    if (aligned + bytes <= c.size) {
      void* p = c.data.get() + aligned;
      used_ += (aligned - offset_) + bytes;
      offset_ = aligned + bytes;
      return p;
    }
  }
  return allocate_slow(bytes, align);
}

}  // namespace mum::util
