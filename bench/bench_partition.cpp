// Experiment E5 (§5.2 Example 3 + partitionable membership): after a
// network partition, how long until both sides have stabilised into
// consistent, non-intersecting subgroup views — vs group size and split
// ratio. Also verifies (as a counted property) that both sides remain
// live, the behaviour that distinguishes Newtop from primary-partition
// protocols.
#include <benchmark/benchmark.h>

#include <set>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

struct PartitionRun {
  double ms = -1.0;           // stabilisation time; -1 on timeout
  double bytes_wasted = 0;    // offered but not delivered (cut + loss)
  double spurious_rexmit = 0; // acks that outran a retransmission
};

// Splits [0, n) into [0, k) and [k, n); measures stabilisation time
// (both sides' views == exactly their own side) and the byte overhead the
// partition causes (datagrams sent into the cut, counted by
// NetworkStats::bytes_sent - bytes_delivered). A partition is where the
// adaptive RTO machinery earns its keep (backoff during the cut,
// estimator-driven re-seeding after), and the spurious_rexmit counter
// surfaces retransmissions the adaptive timer still wasted.
PartitionRun partition_stabilise(std::size_t n, std::size_t k,
                                 std::uint64_t seed) {
  WorldConfig wcfg = default_world(n, seed);
  SimWorld w(wcfg);
  const auto members = all_members(n);
  w.create_group(1, members);
  w.run_for(300 * kMillisecond);
  std::set<ProcessId> a, b;
  std::vector<ProcessId> va, vb;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < k) {
      a.insert(static_cast<ProcessId>(i));
      va.push_back(static_cast<ProcessId>(i));
    } else {
      b.insert(static_cast<ProcessId>(i));
      vb.push_back(static_cast<ProcessId>(i));
    }
  }
  const auto total_spurious = [&w, n] {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < n; ++p) {
      total += w.process(static_cast<ProcessId>(p))
                   .router()
                   .total_stats()
                   .spurious_rexmit;
    }
    return total;
  };
  const sim::Time t0 = w.now();
  const auto& net_stats = w.network().stats();
  const std::uint64_t wasted_before =
      net_stats.bytes_sent - net_stats.bytes_delivered;
  const std::uint64_t spurious_before = total_spurious();
  w.partition({a, b});
  const bool ok = w.run_until_pred(
      [&] {
        for (ProcessId p : va) {
          const View* v = w.ep(p).view(1);
          if (v == nullptr || v->members != va) return false;
        }
        for (ProcessId p : vb) {
          const View* v = w.ep(p).view(1);
          if (v == nullptr || v->members != vb) return false;
        }
        return true;
      },
      w.now() + 600 * kSecond);
  PartitionRun run;
  if (ok) {
    run.ms = static_cast<double>(w.now() - t0) / kMillisecond;
    run.bytes_wasted = static_cast<double>(
        net_stats.bytes_sent - net_stats.bytes_delivered - wasted_before);
    run.spurious_rexmit =
        static_cast<double>(total_spurious() - spurious_before);
  }
  return run;
}

void BM_PartitionStabiliseVsGroupSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Samples samples;
  util::Samples wasted;
  util::Samples spurious;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const PartitionRun run = partition_stabilise(n, n / 2, seed++);
    if (run.ms >= 0) {
      samples.add(run.ms);
      wasted.add(run.bytes_wasted);
      spurious.add(run.spurious_rexmit);
    }
  }
  if (!samples.empty()) {
    state.counters["stabilise_ms_mean"] = samples.mean();
    state.counters["bytes_wasted_mean"] = wasted.mean();
    state.counters["spurious_rexmit_mean"] = spurious.mean();
    emit_bench_json("partition_stabilise/n" + std::to_string(n),
                    {{"stabilise_ms_mean", samples.mean()},
                     {"bytes_wasted_mean", wasted.mean()},
                     {"spurious_rexmit_mean", spurious.mean()}});
  }
}
BENCHMARK(BM_PartitionStabiliseVsGroupSize)->Arg(4)->Arg(6)->Arg(8)->Arg(12)
    ->Arg(16)->Unit(benchmark::kMillisecond);

void BM_PartitionStabiliseVsSplitRatio(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));  // side-A size
  util::Samples samples;
  std::uint64_t seed = 50;
  for (auto _ : state) {
    const PartitionRun run = partition_stabilise(8, k, seed++);
    if (run.ms >= 0) samples.add(run.ms);
  }
  if (!samples.empty()) {
    state.counters["stabilise_ms_mean"] = samples.mean();
    state.counters["minority_side"] = static_cast<double>(std::min<std::size_t>(k, 8 - k));
  }
}
BENCHMARK(BM_PartitionStabiliseVsSplitRatio)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Liveness of BOTH sides after a split (no primary partition): counts the
// messages each side delivers post-split in 5 virtual seconds.
void BM_BothSidesLiveAfterSplit(benchmark::State& state) {
  double minority_delivered = 0, majority_delivered = 0;
  std::uint64_t seed = 99;
  for (auto _ : state) {
    const std::size_t n = 5;
    LoggedWorld w(default_world(n, seed++));
    w.create_group(1, all_members(n));
    w.run_for(300 * kMillisecond);
    w.partition({{0}, {1, 2, 3, 4}});
    // Wait for both sides to stabilise.
    w.run_until_pred(
        [&] {
          const View* v0 = w.ep(0).view(1);
          const View* v1 = w.ep(1).view(1);
          return v0 && v0->members.size() == 1 && v1 &&
                 v1->members.size() == 4;
        },
        w.now() + 600 * kSecond);
    const auto before0 = w.log(0).delivered_strings(1).size();
    const auto before1 = w.log(1).delivered_strings(1).size();
    for (int i = 0; i < 10; ++i) {
      w.multicast(0, 1, "min" + std::to_string(i));
      w.multicast(2, 1, "maj" + std::to_string(i));
      w.run_for(100 * kMillisecond);
    }
    w.run_for(4 * kSecond);
    minority_delivered = static_cast<double>(
        w.log(0).delivered_strings(1).size() - before0);
    majority_delivered = static_cast<double>(
        w.log(1).delivered_strings(1).size() - before1);
  }
  state.counters["minority_delivered"] = minority_delivered;
  state.counters["majority_delivered"] = majority_delivered;
}
BENCHMARK(BM_BothSidesLiveAfterSplit)->Unit(benchmark::kMillisecond);

}  // namespace
