// Per-host buffer pool: recycles the rx-datagram and tx-encode
// allocations that dominate the steady-state heap traffic of the
// zero-copy receive path.
//
// After the rx refactor every datagram costs exactly one heap-allocated
// buffer (plus its shared-ownership control block); this pool makes that
// cost amortize to ~zero by returning freed buffers to a size-classed
// freelist instead of the allocator. Three things are recycled:
//   - the byte storage itself (a size-classed freelist of util::Bytes
//     whose capacity survives the round-trip),
//   - the Bytes "slot" object a SharedBytes points at, and
//   - the shared_ptr control block (via a pooling allocator handed to
//     the shared_ptr constructor).
// A pooled SharedBytes is indistinguishable from util::share()'s to every
// consumer: immutable, reference-counted, sliceable by BytesView. The
// recycling deleter holds a shared_ptr to the pool, so buffers may freely
// outlive the host that created them.
//
// Thread safety: all entry points lock one mutex. Buffers routinely
// travel between threads (a delivered payload is freed by whichever
// thread drops its last view; an encode buffer is freed when the last
// peer acks), so release from any thread is the normal case, not the
// exception.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "util/codec.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop::util {

struct BufferPoolConfig {
  bool enabled = true;
  // Freelist bounds. A class keeps at most max_per_class buffers and at
  // most max_bytes_per_class bytes, whichever is smaller — so the small
  // classes (which see stability-wave release bursts in the thousands)
  // can run deep while one class of jumbo buffers cannot hoard memory.
  std::size_t max_per_class = 4096;
  std::size_t max_bytes_per_class = std::size_t{1} << 20;
  // Largest pooled capacity: jumbo buffers above it bypass the pool
  // (the floor is BufferPool::kMinClass).
  std::size_t max_class = std::size_t{1} << 20;
};

struct BufferPoolStats {
  std::uint64_t acquires = 0;       // acquire() calls
  std::uint64_t acquire_hits = 0;   // served from a freelist
  std::uint64_t shares = 0;         // share() calls
  std::uint64_t releases = 0;       // storage returned to a freelist
  std::uint64_t dropped = 0;        // storage freed (class full / unpooled)

  double hit_rate() const {
    return acquires > 0
               ? static_cast<double>(acquire_hits) /
                     static_cast<double>(acquires)
               : 0.0;
  }
};

class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  // Smallest pooled class: tiny control packets round up to it, and
  // smaller buffers bypass the pool.
  static constexpr std::size_t kMinClass = 64;

  explicit BufferPool(BufferPoolConfig config = {}) : cfg_(config) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool() {
    // Freelist slots own their Bytes; outstanding slots are owned by the
    // SlotDeleters keeping this pool alive, so none exist here. The lock
    // is uncontended by the same argument — it satisfies the analysis.
    MutexLock lock(mutex_);
    for (Bytes* s : slots_) delete s;
    for (auto& [size, blocks] : ctrl_free_) {
      for (void* b : blocks) ::operator delete(b);
    }
  }

  static std::shared_ptr<BufferPool> create(BufferPoolConfig config = {}) {
    return std::make_shared<BufferPool>(config);
  }

  // An empty buffer with capacity >= reserve, recycled when possible.
  // Round-trips: a released buffer's capacity lands back in the class an
  // equal-sized acquire will search.
  Bytes acquire(std::size_t reserve) {
    Bytes b = acquire_raw(reserve);
    b.clear();
    return b;
  }

  // A buffer resized to exactly `size`, for receive paths that hand
  // data() to the kernel before the datagram length is known. Contents
  // are indeterminate. Freelisted buffers keep their element count
  // across the release/acquire round-trip, so a full-size rx slab that
  // cycles through the pool is resized *down or not at all* — vector
  // zero-fill happens once at the buffer's birth, not per datagram.
  Bytes acquire_full(std::size_t size) {
    Bytes b = acquire_raw(size);
    b.resize(size);
    return b;
  }

  // Returns a buffer's storage to the freelist (or frees it if the class
  // is full / the capacity is outside the pooled range).
  void release(Bytes b) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    release_locked(std::move(b));
  }

  // Wraps an owned buffer into a SharedBytes whose last release recycles
  // the storage, the pointee Bytes object and the control block. Requires
  // the pool itself to be owned by a shared_ptr (the deleter keeps it
  // alive); otherwise degrades to a plain one-shot share().
  SharedBytes share(Bytes b) EXCLUDES(mutex_) {
    std::shared_ptr<BufferPool> self = weak_from_this().lock();
    if (!cfg_.enabled || self == nullptr) return util::share(std::move(b));
    Bytes* slot;
    {
      MutexLock lock(mutex_);
      ++stats_.shares;
      if (!slots_.empty()) {
        slot = slots_.back();
        slots_.pop_back();
      } else {
        slot = new Bytes();
      }
    }
    *slot = std::move(b);  // slot was drained on recycle: no stale free
    SlotDeleter deleter{self};  // sequenced: both must see a live pool
    return SharedBytes(const_cast<const Bytes*>(slot), std::move(deleter),
                       CtrlAlloc<Bytes>{std::move(self)});
  }

  BufferPoolStats stats() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

  const BufferPoolConfig& config() const { return cfg_; }

  // Null-tolerant forms: the "pool if configured, plain heap otherwise"
  // fallback lives here once, instead of at every call site.
  static Bytes acquire_from(const std::shared_ptr<BufferPool>& pool,
                            std::size_t reserve) {
    if (pool != nullptr) return pool->acquire(reserve);
    Bytes b;
    b.reserve(reserve);
    return b;
  }
  static SharedBytes share_into(const std::shared_ptr<BufferPool>& pool,
                                Bytes b) {
    return pool != nullptr ? pool->share(std::move(b))
                           : util::share(std::move(b));
  }
  static void release_to(const std::shared_ptr<BufferPool>& pool, Bytes b) {
    if (pool != nullptr) pool->release(std::move(b));
  }

 private:
  // Recycling deleter for pooled SharedBytes. Owns the pool reference, so
  // a pooled buffer can outlive every host-side handle to the pool.
  struct SlotDeleter {
    std::shared_ptr<BufferPool> pool;
    void operator()(const Bytes* p) const {
      pool->recycle_slot(const_cast<Bytes*>(p));
    }
  };

  // Pooling allocator for the shared_ptr control block. Every pooled
  // SharedBytes produces a control block of the same size, so a freelist
  // keyed by block size recycles them exactly. It must hold its own
  // shared_ptr to the pool: the control block's deleter (and with it the
  // deleter's pool reference) is destroyed before the allocator copy
  // deallocates the block.
  template <typename T>
  struct CtrlAlloc {
    using value_type = T;
    std::shared_ptr<BufferPool> pool;
    explicit CtrlAlloc(std::shared_ptr<BufferPool> p) : pool(std::move(p)) {}
    template <typename U>
    CtrlAlloc(const CtrlAlloc<U>& o) : pool(o.pool) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(pool->ctrl_allocate(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) {
      pool->ctrl_deallocate(p, n * sizeof(T));
    }
    template <typename U>
    bool operator==(const CtrlAlloc<U>& o) const {
      return pool == o.pool;
    }
  };

  // Freelist pop (or fresh reservation) without normalising the size:
  // acquire() clears, acquire_full() resizes. Freelisted buffers carry
  // whatever size they were released at.
  Bytes acquire_raw(std::size_t reserve) EXCLUDES(mutex_) {
    if (!cfg_.enabled || reserve > cfg_.max_class) {
      Bytes b;
      b.reserve(reserve);
      return b;
    }
    const std::size_t cls = class_up(reserve);
    MutexLock lock(mutex_);
    ++stats_.acquires;
    auto& list = class_list(cls);
    if (!list.empty()) {
      ++stats_.acquire_hits;
      Bytes b = std::move(list.back());
      list.pop_back();
      return b;
    }
    Bytes b;
    b.reserve(cls);
    return b;
  }

  void recycle_slot(Bytes* slot) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    release_locked(std::move(*slot));
    slot->clear();
    if (slots_.size() < cfg_.max_per_class) {
      slots_.push_back(slot);
    } else {
      delete slot;
    }
  }

  void release_locked(Bytes b) REQUIRES(mutex_) {
    const std::size_t cap = b.capacity();
    if (!cfg_.enabled || cap < kMinClass || cap > cfg_.max_class) {
      ++stats_.dropped;
      return;  // b frees normally
    }
    const std::size_t cls = class_down(cap);
    auto& list = class_list(cls);
    if (list.size() >= class_cap(cls)) {
      ++stats_.dropped;
      return;
    }
    // The size is deliberately kept: acquire() clears on the way out
    // (free), while acquire_full() reuses the existing element count so
    // a recycled full-size rx slab never pays a zero-fill resize.
    ++stats_.releases;
    list.push_back(std::move(b));
  }

  // Entry bound for one class: the per-class count cap, shrunk so the
  // class can never hold more than max_bytes_per_class bytes (a class
  // whose single buffer meets the budget keeps exactly one).
  std::size_t class_cap(std::size_t cls) const {
    const std::size_t by_bytes = std::max<std::size_t>(
        cfg_.max_bytes_per_class / std::max<std::size_t>(cls, 1), 1);
    return std::min(cfg_.max_per_class, by_bytes);
  }

  void* ctrl_allocate(std::size_t size) EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      auto it = ctrl_free_.find(size);
      if (it != ctrl_free_.end() && !it->second.empty()) {
        void* b = it->second.back();
        it->second.pop_back();
        return b;
      }
    }
    return ::operator new(size);
  }

  void ctrl_deallocate(void* p, std::size_t size) EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      auto& list = ctrl_free_[size];
      if (list.size() < cfg_.max_per_class) {
        list.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  // Smallest pooled class covering n / largest pooled class within cap.
  std::size_t class_up(std::size_t n) const {
    std::size_t c = kMinClass;
    while (c < n) c <<= 1;
    return c;
  }
  std::size_t class_down(std::size_t cap) const {
    std::size_t c = kMinClass;
    while ((c << 1) <= cap && (c << 1) <= cfg_.max_class) c <<= 1;
    return c;
  }
  std::size_t class_index(std::size_t cls) const {
    std::size_t i = 0;
    for (std::size_t c = kMinClass; c < cls; c <<= 1) ++i;
    return i;
  }

  // Freelist for one class: flat vector indexed by class position (no
  // tree walk on the hot path), grown lazily.
  std::vector<Bytes>& class_list(std::size_t cls) REQUIRES(mutex_) {
    const std::size_t i = class_index(cls);
    if (store_.size() <= i) store_.resize(i + 1);
    return store_[i];
  }

  BufferPoolConfig cfg_;  // immutable after construction
  mutable Mutex mutex_;
  // store_[i] holds cleared buffers of capacity in [min<<i, min<<(i+1)).
  std::vector<std::vector<Bytes>> store_ GUARDED_BY(mutex_);
  std::vector<Bytes*> slots_ GUARDED_BY(mutex_);  // recycled pointees
  // Control-block freelist, keyed by block size.
  std::map<std::size_t, std::vector<void*>> ctrl_free_ GUARDED_BY(mutex_);
  BufferPoolStats stats_ GUARDED_BY(mutex_);
};

using BufferPoolPtr = std::shared_ptr<BufferPool>;

// Freelisting allocator for node-based containers on the engine's hot
// path (the delivery queue and recovery retention insert/erase one map
// node per message): erased nodes park on a freelist instead of going
// back to the allocator, so steady-state churn costs zero heap traffic.
// NOT thread-safe — it is for single-owner engine state only. Copies of
// an allocator (and rebound copies) share one freelist; each container
// instance default-constructs its own.
// Shared freelist state for PoolingNodeAllocator (non-template so every
// rebound allocator instantiation shares the same type).
struct NodePoolState {
  std::vector<void*> free;
  std::size_t node_size = 0;  // fixed by the first single-node alloc
  ~NodePoolState() {
    for (void* p : free) ::operator delete(p);
  }
};

template <typename T>
class PoolingNodeAllocator {
 public:
  using value_type = T;
  using State = NodePoolState;

  // Nodes the freelist may hold before falling back to the heap
  // (~hundreds of KB for typical map nodes at the default).
  static constexpr std::size_t kMaxFree = 4096;

  PoolingNodeAllocator() : state_(std::make_shared<State>()) {}
  template <typename U>
  PoolingNodeAllocator(const PoolingNodeAllocator<U>& o)
      : state_(o.state_) {}

  T* allocate(std::size_t n) {
    if (n == 1) {
      State& s = *state_;
      if (s.node_size == 0) s.node_size = sizeof(T);
      if (s.node_size == sizeof(T) && !s.free.empty()) {
        void* p = s.free.back();
        s.free.pop_back();
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    State& s = *state_;
    if (n == 1 && s.node_size == sizeof(T) && s.free.size() < kMaxFree) {
      s.free.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PoolingNodeAllocator<U>& o) const {
    return state_ == o.state_;
  }

  std::shared_ptr<State> state_;
};

}  // namespace newtop::util
