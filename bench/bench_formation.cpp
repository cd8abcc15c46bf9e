// Experiment E12 (§5.3): dynamic group formation latency — initiation to
// first computational delivery — vs group size, plus the cost the D-pin
// imposes on other groups while a formation is in flight.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

void BM_FormationLatencyVsGroupSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Samples form_ms, first_delivery_ms;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    LoggedWorld w(default_world(n, seed++));
    const auto members = all_members(n);
    const sim::Time t0 = w.now();
    w.ep(0).initiate_group(1, members, {}, w.now());
    const bool formed = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (!w.ep(p).open_for_app(1)) return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    if (!formed) continue;
    form_ms.add(static_cast<double>(w.now() - t0) / kMillisecond);
    const sim::Time t1 = w.now();
    w.multicast(0, 1, "first");
    const bool delivered = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (w.log(p).delivered_strings(1).empty()) return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    if (delivered) {
      first_delivery_ms.add(static_cast<double>(w.now() - t1) /
                            kMillisecond);
    }
  }
  if (!form_ms.empty()) {
    state.counters["form_ms_mean"] = form_ms.mean();
  }
  if (!first_delivery_ms.empty()) {
    state.counters["first_delivery_ms"] = first_delivery_ms.mean();
  }
}
BENCHMARK(BM_FormationLatencyVsGroupSize)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32)->Unit(benchmark::kMillisecond);

// While a member is forming a new group, its deliveries in existing
// groups are gated by the formation's pinned D (step 5): measure the
// worst-case extra delivery delay experienced in an old group.
void BM_FormationImpactOnExistingGroup(benchmark::State& state) {
  util::Samples with_formation, without_formation;
  std::uint64_t seed = 40;
  for (auto _ : state) {
    for (const bool forming : {false, true}) {
      LoggedWorld w(default_world(4, seed));
      w.create_group(1, {0, 1, 2, 3});
      w.run_for(300 * kMillisecond);
      if (forming) {
        w.ep(0).initiate_group(2, {0, 1}, {}, w.now());
      }
      const std::string payload = "probe";
      const sim::Time t0 = w.now();
      w.multicast(2, 1, payload);
      const bool ok = w.run_until_pred(
          [&] {
            const auto d = w.log(0).delivered_strings(1);
            return !d.empty() && d.back() == payload;
          },
          w.now() + 60 * kSecond);
      if (ok) {
        const double ms = static_cast<double>(w.now() - t0) / kMillisecond;
        (forming ? with_formation : without_formation).add(ms);
      }
    }
    ++seed;
  }
  if (!with_formation.empty() && !without_formation.empty()) {
    state.counters["probe_ms_during_formation"] = with_formation.mean();
    state.counters["probe_ms_baseline"] = without_formation.mean();
  }
}
BENCHMARK(BM_FormationImpactOnExistingGroup)->Unit(benchmark::kMillisecond);

// "Rejoin by forming a new group" end-to-end: departure + re-formation,
// the paper's replacement for an explicit join facility.
void BM_DepartAndRejoinCycle(benchmark::State& state) {
  util::Samples cycle_ms;
  std::uint64_t seed = 70;
  for (auto _ : state) {
    SimWorld w(default_world(3, seed++));
    w.create_group(1, {0, 1, 2});
    w.run_for(300 * kMillisecond);
    const sim::Time t0 = w.now();
    w.ep(2).leave_group(1, w.now());
    const bool left = w.run_until_pred(
        [&] {
          const View* v = w.ep(0).view(1);
          return v != nullptr && v->members.size() == 2;
        },
        w.now() + 120 * kSecond);
    if (!left) continue;
    w.ep(2).initiate_group(2, {0, 1, 2}, {}, w.now());
    const bool rejoined = w.run_until_pred(
        [&] {
          return w.ep(0).open_for_app(2) && w.ep(1).open_for_app(2) &&
                 w.ep(2).open_for_app(2);
        },
        w.now() + 120 * kSecond);
    if (rejoined) {
      cycle_ms.add(static_cast<double>(w.now() - t0) / kMillisecond);
    }
  }
  if (!cycle_ms.empty()) {
    state.counters["depart_rejoin_ms"] = cycle_ms.mean();
  }
}
BENCHMARK(BM_DepartAndRejoinCycle)->Unit(benchmark::kMillisecond);

}  // namespace
