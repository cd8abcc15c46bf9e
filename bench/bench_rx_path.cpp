// Receive-path cost: heap allocations per delivered message on the
// end-to-end workload, and raw decode throughput of the batched wire path.
//
// The zero-copy rx refactor's claim is that a datagram is heap-allocated
// once at the host boundary and everything downstream holds slices of it;
// the observable is allocations per delivered message. This binary
// overrides global operator new/delete with counting shims (single
// translation unit, bench-only — the library is untouched), measures the
// allocation delta across the workload and divides by deliveries.
// Counters:
//   allocs_per_delivery  — heap allocations per app message delivered
//   bytes_per_delivery   — heap bytes requested per app message delivered
//   decode_msgs_per_sec  — BatchFrame+OrderedMsg decode rate (micro bench)
//   allocs_per_decode    — heap allocations per decoded sub-message
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "bench_util.h"
#include "core/wire.h"

// ---------------------------------------------------------------------
// Counting allocator shims. Relaxed atomics: the sim workload is
// single-threaded; benchmark-library worker threads only add noise that
// is identical before/after.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

struct AllocSnapshot {
  std::uint64_t allocs;
  std::uint64_t bytes;
  static AllocSnapshot take() {
    return {g_allocs.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed)};
  }
};
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// The bursty 8-member symmetric workload of bench_batching (batch 8):
// every member submits kBurst multicasts at the same instant, kRounds
// times. Steady-state measurement: kWarmRounds identical rounds prime
// the buffer pool and node freelists first, then the allocation delta of
// the measured rounds is divided by their deliveries. Also samples the
// retention byte accounting (worst pinned/used ratio seen after any
// round) and reports the pool hit rate over the measured window.
//
// `delivery` selects the ownership mode (GroupOptions::delivery). Each
// process's EventLog (LoggedWorld) retains every payload for the whole
// run — the honest model of an application that keeps what it was
// delivered. Under
// kZeroCopySlice on the asymmetric workload that app co-pinning holds
// whole sequencer BatchFrames hostage (compaction correctly declines to
// copy while the app still references the buffer), so pinned/used rides
// at ~8; kPooledCopy hands the app pooled right-sized copies instead,
// releasing the frames and dropping the ratio toward ~1.
void BM_RxDeliveryAllocs(benchmark::State& state, OrderMode mode,
                         bool pool_enabled,
                         DeliveryMode delivery = DeliveryMode::kZeroCopySlice) {
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMembers = 8;
  constexpr int kBurst = 8;
  constexpr int kWarmRounds = 4;
  constexpr int kRounds = 8;

  double allocs_per_delivery = 0;
  double bytes_per_delivery = 0;
  double pool_hit_rate = 0;
  double pinned_per_retained = 0;
  for (auto _ : state) {
    WorldConfig cfg = default_world(kMembers);
    cfg.host.channel.max_batch = max_batch;
    cfg.pool.enabled = pool_enabled;
    LoggedWorld w(cfg);
    const auto members = all_members(kMembers);
    GroupOptions opts;
    opts.mode = mode;
    opts.delivery = delivery;
    w.create_group(1, members, opts);
    w.run_for(500 * kMillisecond);  // settle

    // Allocation-free delivery counting (the predicate runs inside the
    // measured window; building strings there would pollute the metric).
    auto delivered = [&](ProcessId p) { return w.log(p).delivery_count(1); };
    // `sample` collects the retention byte accounting after each round;
    // only enabled for the warmup rounds — retention_stats itself
    // allocates (dedup set), which must not pollute the measured
    // allocation window.
    auto run_rounds = [&](const char* tag, int rounds, bool sample) {
      for (int r = 0; r < rounds; ++r) {
        for (ProcessId p : members) {
          for (int b = 0; b < kBurst; ++b) {
            w.multicast(p, 1,
                        tag + std::to_string(r) + "p" + std::to_string(p) +
                            "b" + std::to_string(b));
          }
        }
        w.run_for(40 * kMillisecond);
        if (!sample) continue;
        // Retention accounting sample, while retention is loaded: sum
        // pinned/used over all members, track the worst ratio.
        std::size_t used = 0, pinned = 0;
        for (ProcessId p : members) {
          const RetentionStats rs = w.process(p).endpoint().retention_stats(1);
          used += rs.used_bytes;
          pinned += rs.pinned_bytes;
        }
        if (used > 0) {
          pinned_per_retained = std::max(
              pinned_per_retained,
              static_cast<double>(pinned) / static_cast<double>(used));
        }
      }
    };

    run_rounds("w", kWarmRounds, /*sample=*/true);  // prime pools + freelists
    const std::size_t warm_expect =
        static_cast<std::size_t>(kWarmRounds) * kBurst * kMembers;
    if (!w.run_until_pred(
            [&] {
              for (ProcessId p : members) {
                if (delivered(p) < warm_expect) return false;
              }
              return true;
            },
            w.now() + 120 * kSecond)) {
      state.SkipWithError("warmup did not fully deliver");
      return;
    }
    w.run_for(500 * kMillisecond);  // let stability drain retention

    const std::size_t expect =
        warm_expect + static_cast<std::size_t>(kRounds) * kBurst * kMembers;
    const AllocSnapshot before = AllocSnapshot::take();
    const util::BufferPoolStats pool_before = w.pool()->stats();
    run_rounds("r", kRounds, /*sample=*/false);
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (delivered(p) < expect) return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    const AllocSnapshot after = AllocSnapshot::take();
    const util::BufferPoolStats pool_after = w.pool()->stats();
    if (!ok) {
      state.SkipWithError("burst did not fully deliver");
      return;
    }
    // Deliveries across all members: each measured message delivered
    // once per member.
    const double deliveries =
        static_cast<double>(kRounds) * kBurst * kMembers * kMembers;
    allocs_per_delivery =
        static_cast<double>(after.allocs - before.allocs) / deliveries;
    bytes_per_delivery =
        static_cast<double>(after.bytes - before.bytes) / deliveries;
    const double acquires =
        static_cast<double>(pool_after.acquires - pool_before.acquires);
    pool_hit_rate =
        acquires > 0
            ? static_cast<double>(pool_after.acquire_hits -
                                  pool_before.acquire_hits) /
                  acquires
            : 0;
  }
  state.counters["allocs_per_delivery"] = allocs_per_delivery;
  state.counters["bytes_per_delivery"] = bytes_per_delivery;
  state.counters["pool_hit_rate"] = pool_hit_rate;
  state.counters["pinned_bytes_per_retained_byte"] = pinned_per_retained;
  emit_bench_json(
      std::string("rx_delivery_allocs/") +
          (mode == OrderMode::kSymmetric ? "sym" : "asym") +
          (pool_enabled ? "" : "_nopool") +
          (delivery == DeliveryMode::kPooledCopy ? "_pooledcopy" : "") +
          "/batch" + std::to_string(max_batch),
      {{"allocs_per_delivery", allocs_per_delivery},
       {"bytes_per_delivery", bytes_per_delivery},
       {"pool_hit_rate", pool_hit_rate},
       {"pinned_bytes_per_retained_byte", pinned_per_retained}});
}

void BM_RxDeliveryAllocsSymmetric(benchmark::State& state) {
  BM_RxDeliveryAllocs(state, OrderMode::kSymmetric, /*pool_enabled=*/true);
}
BENCHMARK(BM_RxDeliveryAllocsSymmetric)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RxDeliveryAllocsSymmetricNoPool(benchmark::State& state) {
  BM_RxDeliveryAllocs(state, OrderMode::kSymmetric, /*pool_enabled=*/false);
}
BENCHMARK(BM_RxDeliveryAllocsSymmetricNoPool)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RxDeliveryAllocsAsymmetric(benchmark::State& state) {
  BM_RxDeliveryAllocs(state, OrderMode::kAsymmetric, /*pool_enabled=*/true);
}
BENCHMARK(BM_RxDeliveryAllocsAsymmetric)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The retention-tail fix: same asymmetric workload, but the application
// takes pooled right-sized copies (DeliveryMode::kPooledCopy) instead of
// co-pinning sequencer BatchFrames. Compare
// pinned_bytes_per_retained_byte against the variant above.
void BM_RxDeliveryAllocsAsymmetricPooledCopy(benchmark::State& state) {
  BM_RxDeliveryAllocs(state, OrderMode::kAsymmetric, /*pool_enabled=*/true,
                      DeliveryMode::kPooledCopy);
}
BENCHMARK(BM_RxDeliveryAllocsAsymmetricPooledCopy)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Pure wire-path micro bench: decode a BatchFrame of kSub ordered
// messages and touch every payload byte, as the endpoint's dispatch loop
// does. Before the view refactor each sub-payload is copied twice
// (BatchFrame::decode + OrderedMsg::decode); after, decode is pointer
// arithmetic over one shared buffer.
void BM_DecodeBatchFrame(benchmark::State& state) {
  const auto payload_len = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSub = 8;

  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 1;
  m.sender = m.emitter = 3;
  m.counter = 41;
  m.ldn = 40;
  m.payload = util::Bytes(payload_len, 0xAB);
  BatchFrame frame;
  for (std::size_t i = 0; i < kSub; ++i) frame.payloads.push_back(m.encode());
  const util::Bytes raw = frame.encode();

  std::uint64_t decoded = 0;
  std::uint64_t checksum = 0;
  const AllocSnapshot before = AllocSnapshot::take();
  for (auto _ : state) {
    // One shared heap buffer per datagram, as the hosts produce it.
    const util::SharedBytes datagram = util::share(util::Bytes(raw));
    auto b = BatchFrame::decode(util::BytesView(datagram));
    for (const auto& p : b->payloads) {
      auto sub = OrderedMsg::decode(p);
      for (std::uint8_t byte : sub->payload) checksum += byte;
      ++decoded;
    }
    benchmark::DoNotOptimize(checksum);
  }
  const AllocSnapshot after = AllocSnapshot::take();
  const double allocs_per_decode =
      decoded > 0
          ? static_cast<double>(after.allocs - before.allocs) /
                static_cast<double>(decoded)
          : 0;
  state.counters["decode_msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(decoded), benchmark::Counter::kIsRate);
  state.counters["allocs_per_decode"] = allocs_per_decode;
  emit_bench_json("decode_batch_frame/payload" + std::to_string(payload_len),
                  {{"allocs_per_decode", allocs_per_decode}});
}
BENCHMARK(BM_DecodeBatchFrame)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
