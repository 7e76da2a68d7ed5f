// MPLS Label Stack Entry (RFC 3032) modelling.
//
// An LSE is a 32-bit word: 20-bit label, 3-bit Traffic Class, 1-bit
// bottom-of-stack flag, 8-bit TTL. Routers quote received LSE stacks inside
// ICMP time-exceeded messages when they implement RFC 4950; LPR consumes
// exactly those quoted stacks.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mum::net {

// Reserved label values (RFC 3032 section 2.1).
inline constexpr std::uint32_t kLabelIpv4ExplicitNull = 0;
inline constexpr std::uint32_t kLabelRouterAlert = 1;
inline constexpr std::uint32_t kLabelIpv6ExplicitNull = 2;
inline constexpr std::uint32_t kLabelImplicitNull = 3;  // signals PHP
inline constexpr std::uint32_t kLabelFirstUnreserved = 16;
inline constexpr std::uint32_t kLabelMax = (1u << 20) - 1;

class LabelStackEntry {
 public:
  constexpr LabelStackEntry() = default;
  constexpr LabelStackEntry(std::uint32_t label, std::uint8_t tc, bool bottom,
                            std::uint8_t ttl)
      : label_(label & kLabelMax), tc_(tc & 0x7), bottom_(bottom), ttl_(ttl) {}

  constexpr std::uint32_t label() const noexcept { return label_; }
  constexpr std::uint8_t traffic_class() const noexcept { return tc_; }
  constexpr bool bottom_of_stack() const noexcept { return bottom_; }
  constexpr std::uint8_t ttl() const noexcept { return ttl_; }

  constexpr void set_ttl(std::uint8_t ttl) noexcept { ttl_ = ttl; }
  constexpr void set_bottom(bool bottom) noexcept { bottom_ = bottom; }

  // Wire encoding: label(20) | TC(3) | S(1) | TTL(8).
  constexpr std::uint32_t encode() const noexcept {
    return (label_ << 12) | (std::uint32_t{tc_} << 9) |
           (std::uint32_t{bottom_ ? 1u : 0u} << 8) | std::uint32_t{ttl_};
  }
  static constexpr LabelStackEntry decode(std::uint32_t word) noexcept {
    return LabelStackEntry(word >> 12,
                           static_cast<std::uint8_t>((word >> 9) & 0x7),
                           ((word >> 8) & 0x1) != 0,
                           static_cast<std::uint8_t>(word & 0xff));
  }

  std::string to_string() const;

  friend constexpr auto operator<=>(const LabelStackEntry&,
                                    const LabelStackEntry&) = default;

 private:
  std::uint32_t label_ = 0;
  std::uint8_t tc_ = 0;
  bool bottom_ = false;
  std::uint8_t ttl_ = 0;
};

// A label stack, top first. The last entry must be the bottom-of-stack one.
//
// Storage is small-inline: stacks of depth <= kInlineDepth (the ~99% case —
// the paper's deepest observed stacks are LDP-over-TE 2-entry ones, plus one
// for FRR detours) live inside the object; deeper stacks spill wholesale to
// the heap. The spill vector, when non-empty, is the authoritative storage.
class LabelStack {
 public:
  static constexpr std::size_t kInlineDepth = 3;

  LabelStack() = default;
  explicit LabelStack(std::vector<LabelStackEntry> entries);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t depth() const noexcept { return size_; }
  const LabelStackEntry& top() const { return data()[0]; }
  LabelStackEntry& top() { return data_mut()[0]; }
  std::span<const LabelStackEntry> entries() const noexcept {
    return {data(), size_};
  }

  // Push a new top entry; maintains bottom-of-stack flags.
  void push(std::uint32_t label, std::uint8_t tc, std::uint8_t ttl);
  // Pop the top entry; no-op on an empty stack.
  void pop();

  // The sequence of label values, top first (what LPR compares).
  std::vector<std::uint32_t> labels() const;

  std::string to_string() const;

  friend bool operator==(const LabelStack& a, const LabelStack& b) noexcept {
    return a.size_ == b.size_ &&
           std::equal(a.data(), a.data() + a.size_, b.data());
  }

 private:
  const LabelStackEntry* data() const noexcept {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  LabelStackEntry* data_mut() noexcept {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  void fix_bottom_flags() noexcept;

  std::array<LabelStackEntry, kInlineDepth> inline_{};
  std::uint32_t size_ = 0;
  std::vector<LabelStackEntry> spill_;  // non-empty => holds all entries
};

std::ostream& operator<<(std::ostream& os, const LabelStackEntry& lse);
std::ostream& operator<<(std::ostream& os, const LabelStack& stack);

}  // namespace mum::net
