// BufferPool unit tests: storage recycling round-trips, size classing,
// freelist bounds, shared-buffer (slot + control block) recycling, pool
// lifetime vs outstanding buffers, and cross-thread release. Plus the
// PoolingNodeAllocator freelist used by the engine's hot maps.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "util/buffer_pool.h"

namespace newtop::util {
namespace {

TEST(BufferPool, AcquireReleaseRoundTripReusesStorage) {
  auto pool = BufferPool::create();
  Bytes b = pool->acquire(100);
  b.assign(100, 0xAB);
  const std::uint8_t* storage = b.data();
  pool->release(std::move(b));

  Bytes again = pool->acquire(100);
  EXPECT_EQ(again.data(), storage);  // same allocation came back
  EXPECT_TRUE(again.empty());        // cleared, capacity kept
  EXPECT_GE(again.capacity(), 100u);

  const BufferPoolStats s = pool->stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.acquire_hits, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(BufferPool, SizeClassesRoundUpAndRoundTrip) {
  auto pool = BufferPool::create();
  Bytes small = pool->acquire(10);
  EXPECT_GE(small.capacity(), BufferPool::kMinClass);
  const std::uint8_t* storage = small.data() ? small.data()
                                             : (small.push_back(1),
                                                small.data());
  pool->release(std::move(small));
  // An acquire anywhere in the same class finds it.
  Bytes mid = pool->acquire(BufferPool::kMinClass);
  EXPECT_EQ(mid.data(), storage);
}

TEST(BufferPool, OversizedBuffersBypassTheFreelists) {
  BufferPoolConfig cfg;
  cfg.max_class = 1024;
  auto pool = BufferPool::create(cfg);
  Bytes jumbo = pool->acquire(4096);  // beyond max_class: plain reserve
  jumbo.resize(4096);
  pool->release(std::move(jumbo));
  const BufferPoolStats s = pool->stats();
  EXPECT_EQ(s.acquires, 0u);  // not even counted as a pool acquire
  EXPECT_EQ(s.releases, 0u);
  EXPECT_EQ(s.dropped, 1u);
}

TEST(BufferPool, FreelistBoundDropsExcess) {
  BufferPoolConfig cfg;
  cfg.max_per_class = 2;
  auto pool = BufferPool::create(cfg);
  for (int i = 0; i < 4; ++i) {
    Bytes b;
    b.reserve(64);
    pool->release(std::move(b));  // 2 kept, 2 freed normally
  }
  EXPECT_EQ(pool->stats().releases, 2u);
  EXPECT_EQ(pool->stats().dropped, 2u);
}

TEST(BufferPool, ShareRecyclesStorageSlotAndControlBlock) {
  auto pool = BufferPool::create();
  Bytes b;
  b.reserve(128);
  b.assign({1, 2, 3});
  const std::uint8_t* storage = b.data();

  SharedBytes shared = pool->share(std::move(b));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->size(), 3u);
  EXPECT_EQ((*shared)[0], 1);
  const Bytes* slot = shared.get();

  shared.reset();  // last reference: storage + slot + control block recycle

  // The released storage is served to the next same-class acquire...
  Bytes again = pool->acquire(128);
  EXPECT_EQ(again.data(), storage);
  // ...and a new share reuses the recycled slot object.
  again.assign({9});
  SharedBytes reshared = pool->share(std::move(again));
  EXPECT_EQ(reshared.get(), slot);
  EXPECT_EQ((*reshared)[0], 9);
}

TEST(BufferPool, PooledBuffersOutliveThePoolHandle) {
  SharedBytes survivor;
  {
    auto pool = BufferPool::create();
    Bytes b;
    b.assign({42});
    survivor = pool->share(std::move(b));
    // The host drops its pool handle here; the buffer's deleter keeps
    // the pool alive until the last reference dies.
  }
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ((*survivor)[0], 42);
  survivor.reset();  // releases into the (about to vanish) pool: no leak,
                     // no use-after-free — ASan job verifies
}

TEST(BufferPool, DisabledPoolDegradesToPlainSharing) {
  BufferPoolConfig cfg;
  cfg.enabled = false;
  auto pool = BufferPool::create(cfg);
  Bytes b = pool->acquire(100);
  EXPECT_GE(b.capacity(), 100u);
  b.assign({7});
  SharedBytes s = pool->share(std::move(b));
  EXPECT_EQ((*s)[0], 7);
  s.reset();
  EXPECT_EQ(pool->stats().acquires, 0u);
  EXPECT_EQ(pool->stats().shares, 0u);
}

TEST(BufferPool, CrossThreadReleaseIsSafe) {
  // Buffers routinely migrate: encoded on one thread, freed by the
  // receiving worker. Hammer share/release from several threads.
  auto pool = BufferPool::create();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 1000; ++i) {
        Bytes b = pool->acquire(64 + (i % 3) * 100);
        b.assign(static_cast<std::size_t>(1 + i % 32),
                 static_cast<std::uint8_t>(i));
        SharedBytes s = pool->share(std::move(b));
        SharedBytes copy = s;
        s.reset();
        copy.reset();
      }
    });
  }
  for (auto& th : threads) th.join();
  const BufferPoolStats s = pool->stats();
  EXPECT_EQ(s.acquires, 4000u);
  EXPECT_EQ(s.shares, 4000u);
  EXPECT_GT(s.acquire_hits, 0u);
}

TEST(PoolingNodeAllocator, MapChurnRecyclesNodes) {
  using Alloc = PoolingNodeAllocator<std::pair<const int, int>>;
  std::map<int, int, std::less<int>, Alloc> m;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) m[i] = i * round;
    for (int i = 0; i < 100; ++i) m.erase(i);
  }
  EXPECT_TRUE(m.empty());
  // Erased nodes parked on the freelist, ready for the next insert.
  EXPECT_GT(m.get_allocator().state_->free.size(), 0u);
  m[1] = 1;
  EXPECT_EQ(m.at(1), 1);
}

}  // namespace
}  // namespace newtop::util
