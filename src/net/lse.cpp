#include "net/lse.h"

#include <ostream>

namespace mum::net {

std::string LabelStackEntry::to_string() const {
  std::string out = "L=" + std::to_string(label_);
  out += ",TC=" + std::to_string(tc_);
  out += ",S=" + std::to_string(bottom_ ? 1 : 0);
  out += ",TTL=" + std::to_string(ttl_);
  return out;
}

LabelStack::LabelStack(std::vector<LabelStackEntry> entries) {
  if (entries.size() <= kInlineDepth) {
    size_ = static_cast<std::uint32_t>(entries.size());
    std::copy(entries.begin(), entries.end(), inline_.begin());
  } else {
    spill_ = std::move(entries);
    size_ = static_cast<std::uint32_t>(spill_.size());
  }
  fix_bottom_flags();
}

void LabelStack::push(std::uint32_t label, std::uint8_t tc, std::uint8_t ttl) {
  const LabelStackEntry e(label, tc, false, ttl);
  if (!spill_.empty()) {
    spill_.insert(spill_.begin(), e);
  } else if (size_ < kInlineDepth) {
    for (std::size_t i = size_; i > 0; --i) inline_[i] = inline_[i - 1];
    inline_[0] = e;
  } else {
    // Inline is full: spill everything, new top first.
    spill_.reserve(size_ + 1);
    spill_.push_back(e);
    spill_.insert(spill_.end(), inline_.begin(), inline_.end());
  }
  ++size_;
  fix_bottom_flags();
}

void LabelStack::pop() {
  if (size_ == 0) return;
  if (!spill_.empty()) {
    spill_.erase(spill_.begin());
    if (spill_.empty()) {
      size_ = 0;
      return;
    }
  } else {
    for (std::size_t i = 1; i < size_; ++i) inline_[i - 1] = inline_[i];
  }
  --size_;
  fix_bottom_flags();
}

std::vector<std::uint32_t> LabelStack::labels() const {
  std::vector<std::uint32_t> out;
  out.reserve(size_);
  for (const auto& e : entries()) out.push_back(e.label());
  return out;
}

std::string LabelStack::to_string() const {
  std::string out = "[";
  const auto ents = entries();
  for (std::size_t i = 0; i < ents.size(); ++i) {
    if (i) out += " | ";
    out += ents[i].to_string();
  }
  out += "]";
  return out;
}

void LabelStack::fix_bottom_flags() noexcept {
  LabelStackEntry* p = data_mut();
  for (std::size_t i = 0; i < size_; ++i) p[i].set_bottom(i + 1 == size_);
}

std::ostream& operator<<(std::ostream& os, const LabelStackEntry& lse) {
  return os << lse.to_string();
}

std::ostream& operator<<(std::ostream& os, const LabelStack& stack) {
  return os << stack.to_string();
}

}  // namespace mum::net
