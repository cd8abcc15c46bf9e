// Experiment E7 (§4.1): symmetric total-order delivery latency.
//
// The symmetric protocol's delivery latency is governed by how fast D
// advances: under load every member's traffic advances it; under silence
// the time-silence interval ω sets the floor (a message waits ~ω for the
// quietest member's null). Series:
//   - latency vs group size n (busy senders)
//   - latency vs ω (single busy sender, quiet others)
//   - throughput-style batch delivery vs n
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// Latency vs group size with all members periodically chattering.
void BM_SymLatencyVsGroupSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    LoggedWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    auto s = measure_delivery_latency(w, 1, members, 20,
                                      /*gap=*/5 * kMillisecond);
    for (std::uint64_t i = 0; i < s.count(); ++i) {
    }
    agg.add(s.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
}
BENCHMARK(BM_SymLatencyVsGroupSize)->Arg(3)->Arg(5)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Latency vs the time-silence interval ω: one busy sender, quiet peers.
// The paper's design predicts latency ~ network + O(ω).
void BM_SymLatencyVsOmega(benchmark::State& state) {
  const auto omega_ms = static_cast<sim::Duration>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5);
    cfg.host.endpoint.omega = omega_ms * kMillisecond;
    cfg.host.endpoint.omega_big = 20 * omega_ms * kMillisecond;
    LoggedWorld w(cfg);
    const auto members = all_members(5);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    // Only P0 sends; everyone else stays quiet between nulls.
    util::Samples lat;
    for (int i = 0; i < 15; ++i) {
      const std::string payload = "o" + std::to_string(i);
      const sim::Time t0 = w.now();
      w.multicast(0, 1, payload);
      const bool ok = w.run_until_pred(
          [&] {
            const auto d = w.log(4).delivered_strings(1);
            return !d.empty() && d.back() == payload;
          },
          w.now() + 60 * kSecond);
      if (ok) lat.add(static_cast<double>(w.now() - t0) / kMillisecond);
      w.run_for(3 * omega_ms * kMillisecond);  // let the group go quiet
    }
    agg.add(lat.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
  state.counters["omega_ms"] = static_cast<double>(omega_ms);
}
BENCHMARK(BM_SymLatencyVsOmega)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Batch completion: time for a burst of B messages from every member to be
// delivered everywhere, per group size (throughput proxy).
void BM_SymBatchCompletion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int kBurst = 10;
  util::Samples agg;
  for (auto _ : state) {
    LoggedWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    const sim::Time t0 = w.now();
    for (int b = 0; b < kBurst; ++b) {
      for (ProcessId p : members) {
        w.multicast(p, 1, "b" + std::to_string(b) + "p" + std::to_string(p));
      }
    }
    const std::size_t expect = kBurst * members.size();
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (w.log(p).delivered_strings(1).size() < expect)
              return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    if (ok) {
      agg.add(static_cast<double>(w.now() - t0) / kMillisecond);
    }
  }
  state.counters["batch_ms"] = agg.mean();
  state.counters["msgs"] = static_cast<double>(kBurst) * static_cast<double>(n);
}
BENCHMARK(BM_SymBatchCompletion)->Arg(3)->Arg(5)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Null-message overhead: protocol traffic with zero application load, per
// ω — the cost of the time-silence mechanism (§4.1 discussion).
void BM_SymNullOverheadVsOmega(benchmark::State& state) {
  const auto omega_ms = static_cast<sim::Duration>(state.range(0));
  double nulls_per_proc_per_sec = 0;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5);
    cfg.host.endpoint.omega = omega_ms * kMillisecond;
    cfg.host.endpoint.omega_big = 20 * omega_ms * kMillisecond;
    SimWorld w(cfg);
    w.create_group(1, all_members(5));
    const auto before = w.ep(0).stats().nulls_sent;
    w.run_for(10 * kSecond);
    const auto after = w.ep(0).stats().nulls_sent;
    nulls_per_proc_per_sec = static_cast<double>(after - before) / 10.0;
  }
  state.counters["nulls_per_proc_per_s"] = nulls_per_proc_per_sec;
  state.counters["omega_ms"] = static_cast<double>(omega_ms);
}
BENCHMARK(BM_SymNullOverheadVsOmega)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace
