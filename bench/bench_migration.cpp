// Experiment E1 (Fig. 1): online server migration via overlapping groups.
// Measures, for varying state sizes (number of state-transfer chunks):
//   - total migration time (g2 formation -> P2 fully departed),
//   - service disruption: the largest gap between consecutive client
//     request deliveries at the surviving replica P1 during migration
//     (the paper's requirement: "must not cause any noticeable disruption
//     in service").
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

void BM_MigrationVsStateSize(benchmark::State& state) {
  const int chunks = static_cast<int>(state.range(0));
  double migration_ms = 0, max_gap_ms = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    LoggedWorld w(default_world(3, seed++));
    const ProcessId p1 = 0, p2 = 1, p3 = 2;
    w.create_group(1, {p1, p2});  // server group
    w.run_for(300 * kMillisecond);

    const sim::Time mig_start = w.now();
    w.ep(p3).initiate_group(2, {p1, p2, p3}, {}, w.now());
    w.run_until_pred(
        [&] {
          return w.ep(p1).open_for_app(2) && w.ep(p2).open_for_app(2) &&
                 w.ep(p3).open_for_app(2);
        },
        w.now() + 60 * kSecond);

    // Interleave: service requests in g1, state chunks in g2.
    int req = 0;
    for (int i = 0; i < chunks; ++i) {
      w.multicast(p1, 2, "chunk" + std::to_string(i));
      if (i % 2 == 0) {
        w.multicast(p1, 1, "req" + std::to_string(req++));
      }
      w.run_for(10 * kMillisecond);
    }
    // Wait for the state to be fully transferred to P3.
    w.run_until_pred(
        [&] {
          return w.log(p3).delivered_strings(2).size() >=
                 static_cast<std::size_t>(chunks);
        },
        w.now() + 120 * kSecond);
    // P2 departs both groups; migration completes when views stabilise.
    w.ep(p2).leave_group(1, w.now());
    w.ep(p2).leave_group(2, w.now());
    w.run_until_pred(
        [&] {
          const View* v1 = w.ep(p1).view(1);
          const View* v2 = w.ep(p1).view(2);
          return v1 && v1->members.size() == 1 && v2 &&
                 v2->members.size() == 2;
        },
        w.now() + 120 * kSecond);
    migration_ms = static_cast<double>(w.now() - mig_start) / kMillisecond;

    // Service disruption: largest inter-delivery gap of g1 requests at P1
    // inside the migration window.
    const auto dels = w.log(p1).deliveries();
    sim::Time prev = mig_start;
    sim::Time worst = 0;
    for (const auto& r : dels) {
      if (r.delivery.group != 1 || r.at < mig_start) continue;
      worst = std::max(worst, r.at - prev);
      prev = r.at;
    }
    max_gap_ms = static_cast<double>(worst) / kMillisecond;
  }
  state.counters["migration_ms"] = migration_ms;
  state.counters["max_service_gap_ms"] = max_gap_ms;
  state.counters["state_chunks"] = static_cast<double>(chunks);
}
BENCHMARK(BM_MigrationVsStateSize)->Arg(4)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
