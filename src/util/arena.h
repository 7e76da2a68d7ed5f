#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace mum::util {

// Chunked bump allocator for per-cycle object churn (LSP hop vectors,
// scratch work lists). Allocation is a pointer bump; there is no per-object
// free. reset() rewinds to empty while *retaining* every chunk, so a steady
// per-cycle workload reaches a capacity high-water mark once and then stops
// allocating from the OS entirely — the property tests/test_evolve gates.
//
// Lifetime rule: objects live until the owning arena is reset or destroyed.
// Only trivially-destructible element types are allowed (no destructors run).
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  // Point-in-time view of the allocator, for telemetry export. high_water
  // stabilizing while reset_count keeps climbing is the no-growth signal.
  struct Stats {
    std::size_t capacity_bytes = 0;    // sum of retained chunk sizes
    std::size_t used_bytes = 0;        // handed out since the last reset
    std::size_t high_water_bytes = 0;  // max used() seen across resets
    std::size_t reset_count = 0;       // times reset() ran
    std::size_t chunk_count = 0;
  };

  explicit Arena(std::size_t min_chunk_bytes = kDefaultChunkBytes) noexcept
      : min_chunk_(min_chunk_bytes ? min_chunk_bytes : kDefaultChunkBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  // Typed SoA column allocation: value-constructed, with an optional
  // alignment override (e.g. 64 for cacheline-aligned hot columns).
  template <class T>
  std::span<T> make_array(std::size_t n, std::size_t align = alignof(T)) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), align));
    std::uninitialized_value_construct_n(p, n);
    return {p, n};
  }

  // Same, but left uninitialized — for columns about to be memcpy-filled.
  template <class T>
  std::span<T> make_array_uninit(std::size_t n, std::size_t align = alignof(T)) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>);
    if (n == 0) return {};
    T* p = static_cast<T*>(allocate(n * sizeof(T), align));
    return {p, n};
  }

  template <class T>
  std::span<T> copy_array(std::span<const T> src) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (src.empty()) return {};
    T* p = static_cast<T*>(allocate(src.size_bytes(), alignof(T)));
    std::memcpy(p, src.data(), src.size_bytes());
    return {p, src.size()};
  }

  // Rewind to empty; all chunks are kept for reuse.
  void reset() noexcept {
    if (used_ > high_water_) high_water_ = used_;
    chunk_ = 0;
    offset_ = 0;
    used_ = 0;
    ++reset_count_;
  }

  // Sum of chunk sizes currently held (never shrinks).
  std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  // Bytes handed out since the last reset (including alignment padding).
  std::size_t used() const noexcept { return used_; }
  // Max used() observed across resets so far.
  std::size_t high_water() const noexcept {
    return used_ > high_water_ ? used_ : high_water_;
  }
  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  std::size_t reset_count() const noexcept { return reset_count_; }

  Stats stats() const noexcept {
    return Stats{capacity(), used(), high_water(), reset_count(),
                 chunk_count()};
  }

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
  std::size_t high_water_ = 0;
  std::size_t reset_count_ = 0;
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

// Growable array carved from an Arena. Growth abandons the old block in the
// arena (reclaimed wholesale at the next reset) — the right trade for scratch
// lists that are rebuilt every cycle. Elements must be trivially copyable.
template <class T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  // Detached: usable only after move-assignment from an attached vector.
  ArenaVector() noexcept = default;

  explicit ArenaVector(Arena& arena, std::size_t initial_capacity = 0) noexcept
      : arena_(&arena), capacity_(initial_capacity) {
    if (capacity_ > 0) data_ = arena_->make_array_uninit<T>(capacity_).data();
  }

  void push_back(const T& v) {
    if (size_ == capacity_) reserve(capacity_ ? capacity_ * 2 : 8);
    data_[size_++] = v;
  }

  // Grow capacity to at least `want` (old block is abandoned in the arena).
  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    T* fresh = arena_->make_array_uninit<T>(want).data();
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    capacity_ = want;
  }

  // Bulk append: one growth decision, one memcpy.
  void append(std::span<const T> src) {
    if (src.empty()) return;
    if (size_ + src.size() > capacity_) {
      std::size_t want = capacity_ ? capacity_ * 2 : 8;
      while (want < size_ + src.size()) want *= 2;
      reserve(want);
    }
    std::memcpy(data_ + size_, src.data(), src.size_bytes());
    size_ += src.size();
  }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  std::span<const T> span() const noexcept { return {data_, size_}; }
  std::span<T> mutable_span() noexcept { return {data_, size_}; }
  void clear() noexcept { size_ = 0; }  // keeps the current block
  // Drop elements past `n` (n <= size()); keeps the current block.
  void truncate(std::size_t n) noexcept { size_ = n; }

 private:
  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace mum::util
