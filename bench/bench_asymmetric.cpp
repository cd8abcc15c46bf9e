// Experiment E8 (§4.2): asymmetric (sequencer) total-order latency, and
// the crossover against the symmetric version.
//
// Expected shape: asymmetric latency is ~2 network hops (unicast to
// sequencer + echo) regardless of ω and regardless of how quiet other
// members are — the advantage §4.2 claims over the symmetric version for
// sparse traffic. Under all-members-busy workloads the symmetric version
// catches up (D advances from app traffic alone), while the sequencer
// becomes a serialisation point as n grows.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

GroupOptions asym() {
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  return o;
}

void BM_AsymLatencyVsGroupSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    LoggedWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members, asym());
    w.run_for(200 * kMillisecond);
    auto s = measure_delivery_latency(w, 1, members, 20,
                                      /*gap=*/5 * kMillisecond);
    agg.add(s.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
}
BENCHMARK(BM_AsymLatencyVsGroupSize)->Arg(3)->Arg(5)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The headline contrast with E7's BM_SymLatencyVsOmega: a quiet group
// delivers in ~2 hops regardless of ω because only the sequencer's stream
// gates D.
void BM_AsymLatencyVsOmega(benchmark::State& state) {
  const auto omega_ms = static_cast<sim::Duration>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5);
    cfg.host.endpoint.omega = omega_ms * kMillisecond;
    cfg.host.endpoint.omega_big = 20 * omega_ms * kMillisecond;
    LoggedWorld w(cfg);
    const auto members = all_members(5);
    w.create_group(1, members, asym());
    w.run_for(200 * kMillisecond);
    util::Samples lat;
    for (int i = 0; i < 15; ++i) {
      const std::string payload = "o" + std::to_string(i);
      const sim::Time t0 = w.now();
      w.multicast(1, 1, payload);  // non-sequencer origin
      const bool ok = w.run_until_pred(
          [&] {
            const auto d = w.log(4).delivered_strings(1);
            for (const auto& s : d) {
              if (s == payload) return true;
            }
            return false;
          },
          w.now() + 60 * kSecond);
      if (ok) lat.add(static_cast<double>(w.now() - t0) / kMillisecond);
      w.run_for(3 * omega_ms * kMillisecond);
    }
    agg.add(lat.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
  state.counters["omega_ms"] = static_cast<double>(omega_ms);
}
BENCHMARK(BM_AsymLatencyVsOmega)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_AsymBatchCompletion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int kBurst = 10;
  util::Samples agg;
  for (auto _ : state) {
    LoggedWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members, asym());
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
    if (ok) agg.add(static_cast<double>(w.now() - t0) / kMillisecond);
  }
  state.counters["batch_ms"] = agg.mean();
  state.counters["msgs"] = static_cast<double>(kBurst) * static_cast<double>(n);
}
BENCHMARK(BM_AsymBatchCompletion)->Arg(3)->Arg(5)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Message count cost: datagrams on the wire per delivered app multicast
// under a sparse workload in the §4 failure-free configuration, where
// time-silence dominates. The asymmetric version needs nulls only from
// the sequencer (§4.2), the symmetric version needs them from everyone —
// so its wire cost is ~n times higher when the group is quiet.
void BM_AsymWireCostSparse(benchmark::State& state) {
  const bool symmetric = state.range(0) == 0;
  double datagrams_per_msg = 0;
  for (auto _ : state) {
    SimWorld w(default_world(8));
    const auto members = all_members(8);
    GroupOptions opts = symmetric ? GroupOptions{} : asym();
    opts.failure_free = true;
    w.create_group(1, members, opts);
    w.run_for(200 * kMillisecond);
    const auto base = w.network().stats().datagrams_sent;
    for (int i = 0; i < 10; ++i) {
      w.multicast(0, 1, "s" + std::to_string(i));
      w.run_for(300 * kMillisecond);  // sparse: ~6 omegas apart
    }
    w.run_for(kSecond);
    const auto used = w.network().stats().datagrams_sent - base;
    datagrams_per_msg = static_cast<double>(used) / 10.0;
  }
  state.counters["datagrams_per_app_msg"] = datagrams_per_msg;
  state.SetLabel(symmetric ? "symmetric" : "asymmetric");
}
BENCHMARK(BM_AsymWireCostSparse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
