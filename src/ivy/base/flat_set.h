// A set of 64-bit keys in one open-addressed table, for the per-request
// bookkeeping of the rpc layer.
//
// The table starts empty, with no storage, doubles on demand and never
// shrinks, so once a node's traffic has warmed it up, inserting and
// erasing touch no allocator.  It offers no iteration, so no result can
// depend on the table's layout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ivy/base/check.h"

namespace ivy {

/// A set of nonzero 64-bit keys: linear probing at a load of at most one
/// half, Fibonacci hashing, and backward-shift deletion (no tombstones).
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// Adds `key`; false if it was already present.
  bool insert(std::uint64_t key) {
    IVY_CHECK_NE(key, kEmpty);
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i] != kEmpty; i = next(i)) {
      if (slots_[i] == key) return false;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  /// Removes `key`; false if it was absent.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    for (; slots_[hole] != key; hole = next(hole)) {
      if (slots_[hole] == kEmpty) return false;
    }
    // Pull later keys of the probe run back into the hole, each only as
    // far as its home slot allows.
    for (std::size_t j = next(hole); slots_[j] != kEmpty; j = next(j)) {
      const std::size_t mask = slots_.size() - 1;
      if (((j - home(slots_[j])) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t capacity = std::max<std::size_t>(16, 2 * slots_.size());
    const std::vector<std::uint64_t> old =
        std::exchange(slots_, std::vector<std::uint64_t>(capacity, kEmpty));
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const std::uint64_t key : old) {
      if (key != kEmpty) insert(key);
    }
  }

  std::vector<std::uint64_t> slots_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace ivy
