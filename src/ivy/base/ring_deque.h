// A double-ended queue in one power-of-two ring buffer, for queues that
// are pushed and popped on every request or wake-up.
//
// The buffer starts empty, with no storage, doubles when full and never
// shrinks, so once warm, pushing and popping touch no allocator (a
// std::deque allocates and frees a block as a short queue's ends cross
// block boundaries).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "ivy/base/check.h"

namespace ivy {

template <typename T>
class RingDeque {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The `i`-th element from the front.
  [[nodiscard]] T& operator[](std::size_t i) {
    IVY_CHECK_LT(i, size_);
    return buf_[wrap(head_ + i)];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == buf_.size()) grow();
    head_ = wrap(head_ + buf_.size() - 1);
    buf_[head_] = std::move(value);
    ++size_;
  }

  /// Removes the front element; its slot is reset, so whatever it held
  /// (a page body, say) is released now, not when the slot is reused.
  void pop_front() {
    IVY_CHECK_GT(size_, 0u);
    buf_[head_] = T{};
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Removes the `i`-th element, closing the gap toward the back.
  void erase(std::size_t i) {
    IVY_CHECK_LT(i, size_);
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    (*this)[i] = T{};
    --size_;
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i & (buf_.size() - 1);
  }

  void grow() {
    std::vector<T> next(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ivy
