// Joiner state transfer (docs/STATE_TRANSFER.md): cost of growing a
// live group.
//
//   - join-to-caught-up latency vs snapshot size (request -> ordered
//     announce -> welcome -> chunk stream -> install + stash drain),
//     measured under active multicast load
//   - delivered throughput while a joiner enters mid-stream (the churn
//     tax: announce ordering, retention re-sends, stability floor pinned
//     at the stamp until the joiner advances)
//
// Both gated in bench/baselines.json: a convergence ceiling and an
// ops/sec floor under churn, fail-closed like every other trajectory
// metric.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/endpoint.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// One joiner enters a loaded 3-member group; returns virtual ms from
// join() to the joiner's kCaughtUp, or -1 on timeout. `snapshot_bytes`
// synthesises application state of that size at the transfer source.
double join_convergence_ms(std::size_t snapshot_bytes, std::uint64_t seed) {
  WorldConfig cfg = default_world(4, seed);
  LoggedWorld w(cfg);
  GroupOptions opts;
  opts.snapshot_provider = [snapshot_bytes](GroupId) {
    return std::vector<std::uint8_t>(snapshot_bytes, 0xab);
  };
  w.create_group(1, {0, 1, 2}, opts);
  w.run_for(300 * kMillisecond);

  // Active load through the whole transfer window.
  int sent = 0;
  auto pump = [&] {
    w.multicast(sent % 3, 1, "ld" + std::to_string(sent));
    ++sent;
  };
  for (int i = 0; i < 5; ++i) {
    pump();
    w.run_for(10 * kMillisecond);
  }

  JoinOptions jo;
  jo.contacts = {0, 1, 2};
  const sim::Time t0 = w.now();
  if (!w.group(3, 1).join(jo)) return -1.0;
  bool done = false;
  const sim::Time deadline = w.now() + 60 * kSecond;
  while (!done && w.now() < deadline) {
    pump();
    done = w.run_until_pred(
        [&] { return w.ep(3).stats().joins_completed == 1; },
        w.now() + 10 * kMillisecond);
  }
  if (!done) return -1.0;
  // The joiner's own event log timestamps the kCaughtUp edge.
  const auto st = w.log(3).state_transfers();
  if (st.empty()) return -1.0;
  return static_cast<double>(st.back().at - t0) / kMillisecond;
}

void BM_JoinConvergenceVsSnapshotSize(benchmark::State& state) {
  const auto kb = static_cast<std::size_t>(state.range(0));
  util::Samples samples;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const double ms = join_convergence_ms(kb * 1024, seed++);
    if (ms >= 0) samples.add(ms);
  }
  if (!samples.empty()) {
    state.counters["join_ms_mean"] = samples.mean();
    emit_bench_json("join/convergence" + std::to_string(kb) + "k",
                    {{"join_ms", samples.mean()}});
  } else {
    // Fail-closed: a run that never converged must poison the gate.
    emit_bench_json("join/convergence" + std::to_string(kb) + "k",
                    {{"join_ms", 1e9}});
  }
}
BENCHMARK(BM_JoinConvergenceVsSnapshotSize)->Arg(4)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Delivered throughput (virtual ops/sec at the incumbents) for a fixed
// multicast schedule with a joiner entering mid-stream. The floor in
// baselines.json exists to catch a join that wedges or throttles the
// group, not to measure small regressions.
void BM_ChurnedThroughput(benchmark::State& state) {
  constexpr int kOps = 200;
  double ops_per_sec = 0;
  double joiner_ops = 0;
  std::uint64_t seed = 77;
  for (auto _ : state) {
    LoggedWorld w(default_world(4, seed++));
    GroupOptions opts;
    opts.snapshot_provider = [](GroupId) {
      return std::vector<std::uint8_t>(16 * 1024, 0x5a);
    };
    w.create_group(1, {0, 1, 2}, opts);
    w.run_for(300 * kMillisecond);
    const sim::Time t0 = w.now();
    bool joined = false;
    for (int i = 0; i < kOps; ++i) {
      w.multicast(i % 3, 1, "op" + std::to_string(i));
      if (i == kOps / 3 && !joined) {
        JoinOptions jo;
        jo.contacts = {0, 1, 2};
        joined = w.group(3, 1).join(jo);
      }
      w.run_for(5 * kMillisecond);
    }
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p = 0; p < 3; ++p) {
            if (w.log(p).delivered_strings(1).size() <
                static_cast<std::size_t>(kOps)) {
              return false;
            }
          }
          return w.ep(3).stats().joins_completed == 1;
        },
        w.now() + 120 * kSecond);
    if (!ok) {
      ops_per_sec = 0;  // poison the gate: the churned group wedged
      break;
    }
    const double virt_sec =
        static_cast<double>(w.now() - t0) / kSecond;
    ops_per_sec = virt_sec > 0 ? kOps / virt_sec : 0;
    // The joiner applies the tail of the schedule live after install.
    joiner_ops = static_cast<double>(
        w.ep(3).stats().join_stash_deliveries +
        w.log(3).delivered_strings(1).size());
  }
  state.counters["ops_per_sec"] = ops_per_sec;
  state.counters["joiner_ops"] = joiner_ops;
  emit_bench_json("join/churn",
                  {{"ops_per_sec", ops_per_sec}, {"joiner_ops", joiner_ops}});
}
BENCHMARK(BM_ChurnedThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
