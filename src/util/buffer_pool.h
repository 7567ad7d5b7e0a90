// Thread-local free-list allocator behind util::Bytes.
//
// Every simulated packet hop used to pay malloc/free for its payload vector;
// at millions of events per bench run the allocator was the dominant cost
// left in the simulator core. BufferPool keeps freed blocks on per-thread,
// power-of-two-bucketed free lists so a warm steady state recycles buffers
// instead of round-tripping the heap. Determinism is free: an allocator can
// change WHERE bytes live but never WHICH bytes a trial computes, and the
// caches are thread-local so shard workers never share state. The lists are
// purged by reset_buffer_pool() from the trial-isolation path
// (topo::World::begin_trial), the same lifecycle rule every other
// per-replica cache follows — a trial's memory footprint therefore never
// depends on what ran before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

// Pooling would mask use-after-free (a stale pointer reads the NEXT trial's
// payload instead of faulting), so sanitizer builds bypass the free lists
// and let ASan see every allocation individually.
#if defined(__SANITIZE_ADDRESS__)
#define TSPU_BUFFER_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TSPU_BUFFER_POOL_PASSTHROUGH 1
#endif
#endif

namespace tspu::util {

class BufferPool {
 public:
  /// Smallest pooled block; requests below this still use a 16-byte block.
  static constexpr std::size_t kMinBlock = 16;
  /// Largest pooled block; bigger requests go straight to operator new.
  static constexpr std::size_t kMaxBlock = 4096;
  /// Retained blocks per bucket; overflow frees eagerly so a burst of giant
  /// captures cannot pin memory for the rest of the process.
  static constexpr std::size_t kMaxPerBucket = 256;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() { purge(); }

  void* allocate(std::size_t n) {
#if !defined(TSPU_BUFFER_POOL_PASSTHROUGH)
    const int b = bucket_of(n);
    if (b >= 0 && free_[b] != nullptr) {
      FreeNode* node = free_[b];
      free_[b] = node->next;
      --count_[b];
      return node;
    }
    if (b >= 0) return ::operator new(block_size(b));
#endif
    return ::operator new(n);
  }

  void deallocate(void* p, [[maybe_unused]] std::size_t n) {
#if !defined(TSPU_BUFFER_POOL_PASSTHROUGH)
    const int b = bucket_of(n);
    if (b >= 0 && count_[b] < kMaxPerBucket) {
      auto* node = static_cast<FreeNode*>(p);
      node->next = free_[b];
      free_[b] = node;
      ++count_[b];
      return;
    }
#endif
    ::operator delete(p);
  }

  /// Returns every cached block to the heap. Called between trials so one
  /// trial's high-water mark never leaks into the next trial's footprint.
  void purge() {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      while (free_[b] != nullptr) {
        FreeNode* node = free_[b];
        free_[b] = node->next;
        ::operator delete(node);
      }
      count_[b] = 0;
    }
  }

  /// Total blocks currently cached (observability/tests).
  std::size_t cached_blocks() const {
    std::size_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) total += count_[b];
    return total;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kBuckets = 9;  // 16, 32, ..., 4096

  /// Bucket index for a request of n bytes, or -1 when n exceeds kMaxBlock
  /// (un-pooled). Bucket b holds blocks of 16 << b bytes.
  static int bucket_of(std::size_t n) {
    if (n > kMaxBlock) return -1;
    int b = 0;
    std::size_t size = kMinBlock;
    while (size < n) {
      size <<= 1;
      ++b;
    }
    return b;
  }

  static std::size_t block_size(int b) {
    return kMinBlock << static_cast<unsigned>(b);
  }

  FreeNode* free_[kBuckets] = {};
  std::size_t count_[kBuckets] = {};
};

/// Per-worker payload-buffer cache. thread_local keeps shard workers from
/// sharing free lists; reset_buffer_pool() purges it from the trial
/// isolation path (topo::World::begin_trial) so a trial's allocator state
/// depends only on that trial, never on shard assignment.
inline thread_local BufferPool tl_buffer_pool;

/// Re-anchors this worker's buffer pool; called from begin_trial alongside
/// the other per-replica resets (hosts, DNS ids, fresh ports, obs epoch).
inline void reset_buffer_pool() { tl_buffer_pool.purge(); }

/// Minimal allocator adapter over the thread-local pool. Stateless and
/// always-equal, so containers with this allocator swap/move freely and the
/// alias change behind util::Bytes is invisible to value semantics.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT: rebind converting

  T* allocate(std::size_t n) {
    return static_cast<T*>(tl_buffer_pool.allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    tl_buffer_pool.deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }
};

}  // namespace tspu::util
