// RingBuffer: a growable circular FIFO with steady-state zero allocation.
//
// The hot paths (Queue::fifo_, Pipe::in_flight_, TcpSrc's retransmit
// window) are all strict FIFOs that cycle millions of elements per run.
// std::deque allocates and frees a chunk every few elements as the window
// slides; RingBuffer keeps one power-of-two backing array that only ever
// grows (geometrically, like vector) and is reused in place, so after
// warmup a push/pop cycle touches no allocator at all.
//
// Indexing (operator[]) is front-relative and O(1), which lets callers
// binary-search a ring whose elements are kept sorted (the TCP retransmit
// window is append-only in sequence order).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace mpcc {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[wrap(head_ + size_ - 1)]; }
  const T& back() const { return buf_[wrap(head_ + size_ - 1)]; }

  /// i-th element from the front (0 = front). No bounds check.
  T& operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return buf_[wrap(head_ + i)]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  void pop_front() {
    release(front());
    head_ = wrap(head_ + 1);
    --size_;
  }

  void pop_back() {
    release(back());
    --size_;
  }

  /// Drops all elements; capacity (and therefore the no-alloc steady state)
  /// is retained.
  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = 0; i < size_; ++i) buf_[wrap(head_ + i)] = T{};
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Resets a popped element so it is not kept alive inside the ring. For
  /// trivially destructible payloads (packet handles and friends) this is a
  /// no-op — the old bytes are dead either way — which keeps pops
  /// store-free.
  static void release(T& v) {
    if constexpr (!std::is_trivially_destructible_v<T>) v = T{};
  }

  std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

  void grow() {
    const std::size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mpcc
