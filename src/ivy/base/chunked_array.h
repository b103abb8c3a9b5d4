// A lazily chunked array indexed by page.
//
// Per-page state of a node (its page table, its frame pool's page -> slot
// map) is dense in the page number but touched in only a few places of a
// large address space.  Storage therefore comes in fixed chunks of
// kChunk elements, each allocated on the first mutable access in its range
// and filled with the initial value; an untouched index reads as the
// initial value and costs nothing but its chunk's null pointer.  A lookup
// is a shift, a mask and one pointer test: no hash.  Elements never move,
// which is why the simulator keeps its event slots here too.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace ivy {

template <typename T, std::size_t kChunk = 256>
class ChunkedArray {
  static_assert((kChunk & (kChunk - 1)) == 0, "chunk size is a power of two");

 public:
  /// The chunk directory covers `size_hint` elements up front; at() grows
  /// it past that on demand.
  explicit ChunkedArray(const T& initial, std::size_t size_hint = 0)
      : initial_(initial), chunks_((size_hint + kChunk - 1) / kChunk) {}

  /// The element at `i`, allocating its chunk on first use.
  [[nodiscard]] T& at(std::size_t i) {
    const std::size_t c = i / kChunk;
    if (c >= chunks_.size() || chunks_[c] == nullptr) [[unlikely]] {
      allocate(c);
    }
    return (*chunks_[c])[i % kChunk];
  }

  /// The element at `i`, or the initial value if its chunk is untouched.
  [[nodiscard]] const T& get(std::size_t i) const {
    const std::size_t c = i / kChunk;
    if (c >= chunks_.size() || chunks_[c] == nullptr) return initial_;
    return (*chunks_[c])[i % kChunk];
  }

 private:
  using Chunk = std::array<T, kChunk>;

  /// Out of line, so at() stays small enough to inline into every
  /// reference.
  [[gnu::noinline]] void allocate(std::size_t c) {
    if (c >= chunks_.size()) chunks_.resize(c + 1);
    chunks_[c] = std::make_unique<Chunk>();
    chunks_[c]->fill(initial_);
  }

  T initial_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace ivy
