// PoolArena: a per-SimContext size-class free-list allocator.
// PacketPool: a per-SimContext pool of cache-line packet slots.
//
// The TCP/MPTCP send paths keep per-segment bookkeeping in node-based
// containers (out-of-order reassembly maps, the MPTCP outstanding-chunk
// map). Every node is a single malloc/free on the global heap, and those
// nodes dominate the simulator's steady-state allocation rate. PoolArena
// recycles them: freed nodes go onto a size-class free list owned by the
// run's SimContext, so after the first round trip a node allocation is a
// pointer pop with no global-heap traffic and no cross-thread contention
// (each sweep worker run has its own arena).
//
// Lifetime rules (documented in DESIGN.md §11):
//   - The arena lives in the SimContext and dies with it; pooled memory is
//     never reused across runs. Network declares its owned context first so
//     the arena outlives every component that holds pooled containers.
//   - deallocate() does not return memory to the OS; backing blocks are
//     freed only by the arena destructor. This is the right trade for
//     bounded-footprint simulation runs.
//   - Requests larger than kMaxPooled bytes fall through to operator new.
//
// PacketPool follows the same rules for the packets in flight through the
// net layer (net/packet.h): every slot is one 64-byte, 64-byte-aligned
// line, carved from one-page slabs and recycled LIFO, so a new packet
// usually lands on a line a packet just left. Ownership of a slot is
// explicit: whoever holds the Packet* frees it (net/route.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MPCC_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define MPCC_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define MPCC_POOL_POISON(p, n) ((void)(p), (void)(n))
#define MPCC_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace mpcc {

class PoolArena {
 public:
  PoolArena() = default;

  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  void* allocate(std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (cls >= kNumClasses) return ::operator new(bytes);
    ++allocs_;
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      ++reused_;
      return node;
    }
    return carve((cls + 1) * kGranule);
  }

  void deallocate(void* p, std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (cls >= kNumClasses) {
      ::operator delete(p);
      return;
    }
    ++frees_;
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  /// Pooled allocations served (excludes the >kMaxPooled fallback).
  std::uint64_t allocs() const { return allocs_; }
  /// Of those, how many were free-list reuses (no fresh carve) — the pool
  /// hit count; allocs() - reused() is the miss (fresh carve) count.
  std::uint64_t reused() const { return reused_; }
  /// Pooled nodes returned to the free lists.
  std::uint64_t frees() const { return frees_; }
  /// Pooled nodes currently live (allocated and not yet freed).
  std::uint64_t outstanding() const {
    return allocs_ > frees_ ? allocs_ - frees_ : 0;
  }
  /// Bytes of backing blocks acquired from the global heap.
  std::size_t block_bytes() const { return block_bytes_; }

  static constexpr std::size_t kMaxPooled = 512;

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // Size classes are kGranule-wide; kGranule also serves as the alignment
  // of every carved node, so any pooled object is max_align_t-aligned.
  static constexpr std::size_t kGranule = alignof(std::max_align_t);
  static constexpr std::size_t kNumClasses = kMaxPooled / kGranule;
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  static std::size_t size_class(std::size_t bytes) {
    // Class for rounded size (cls+1)*kGranule >= max(bytes, sizeof(FreeNode)).
    if (bytes < sizeof(FreeNode)) bytes = sizeof(FreeNode);
    return (bytes - 1) / kGranule;
  }

  void* carve(std::size_t rounded) {
    if (bump_left_ < rounded) {
      blocks_.push_back(std::make_unique<char[]>(kBlockBytes));
      block_bytes_ += kBlockBytes;
      bump_ = blocks_.back().get();
      bump_left_ = kBlockBytes;
    }
    void* p = bump_;
    bump_ += rounded;
    bump_left_ -= rounded;
    return p;
  }

  std::vector<std::unique_ptr<char[]>> blocks_;
  FreeNode* free_[kNumClasses] = {};
  char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t frees_ = 0;
  std::size_t block_bytes_ = 0;
};

/// Fixed-size slot pool for packets: 64-byte slots, 64-byte aligned, so a
/// packet is exactly one cache line. Slots come from one-page slabs (a
/// short run touches one page, not a large arena) and go back on a LIFO
/// free list. Slabs are freed only with the pool. Under AddressSanitizer a
/// free slot is poisoned, so a use after release is reported.
class PacketPool {
 public:
  static constexpr std::size_t kSlotBytes = 64;
  static constexpr std::size_t kSlabBytes = 4096;
  static_assert(kSlabBytes % kSlotBytes == 0);

  PacketPool() = default;
  ~PacketPool() {
    for (void* slab : slabs_) {
      MPCC_POOL_UNPOISON(slab, kSlabBytes);
      ::operator delete(slab, std::align_val_t{kSlotBytes});
    }
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// One uninitialised slot of kSlotBytes.
  void* allocate() {
    ++outstanding_;
    if (FreeSlot* slot = free_) {
      MPCC_POOL_UNPOISON(slot, kSlotBytes);
      free_ = slot->next;
      return slot;
    }
    if (bump_left_ == 0) {
      bump_ = static_cast<char*>(::operator new(kSlabBytes, std::align_val_t{kSlotBytes}));
      slabs_.push_back(bump_);
      bump_left_ = kSlabBytes;
    }
    void* p = bump_;
    bump_ += kSlotBytes;
    bump_left_ -= kSlotBytes;
    return p;
  }

  /// Returns a slot from allocate() to the free list.
  void deallocate(void* p) {
    --outstanding_;
    FreeSlot* slot = static_cast<FreeSlot*>(p);
    slot->next = free_;
    free_ = slot;
    MPCC_POOL_POISON(slot, kSlotBytes);
  }

  /// Slots currently handed out (allocated and not yet freed).
  std::uint64_t outstanding() const { return outstanding_; }

 private:
  struct FreeSlot {
    FreeSlot* next;
  };

  std::vector<void*> slabs_;
  FreeSlot* free_ = nullptr;
  char* bump_ = nullptr;
  std::size_t bump_left_ = 0;
  std::uint64_t outstanding_ = 0;
};

/// std-compatible allocator view over a PoolArena, for node containers
/// whose elements should recycle through the run's pool. A null arena is
/// valid and falls back to the global heap, so default-constructed
/// components (tests, tools) need no arena plumbing.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() = default;
  explicit PoolAllocator(PoolArena* arena) : arena_(arena) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ != nullptr && n == 1) {
      return static_cast<T*>(arena_->allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (arena_ != nullptr && n == 1) {
      arena_->deallocate(p, sizeof(T));
      return;
    }
    ::operator delete(p);
  }

  PoolArena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const {
    return arena_ == o.arena();
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& o) const {
    return arena_ != o.arena();
  }

 private:
  PoolArena* arena_ = nullptr;
};

}  // namespace mpcc
