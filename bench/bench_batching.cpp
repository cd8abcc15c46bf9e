// Batched transmit path: throughput and datagram cost vs the router's
// flush/batch setting (ChannelConfig::max_batch), on 8-member symmetric
// and asymmetric groups under a bursty workload.
//
// Batching at the transport boundary is the dominant lever for atomic
// broadcast throughput (cf. Ring Paxos): everything one process emits to
// one peer within one causal step rides a single BatchFrame datagram, so
// a burst of B multicasts costs ~n datagrams instead of ~B*n. Reported
// counters (all virtual time):
//   msgs_per_sec     — application messages fully delivered per second
//   datagrams_per_msg — total datagrams (data + retransmissions + acks)
//                       across all routers, per delivered message
//   batched_payloads — payloads that travelled inside BatchFrames
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

std::uint64_t total_datagrams(SimWorld& w) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < w.size(); ++p) {
    const auto s = w.process(static_cast<ProcessId>(p)).router().total_stats();
    total += s.packets_sent + s.retransmissions + s.acks_sent;
  }
  return total;
}

std::uint64_t total_batched_payloads(SimWorld& w) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < w.size(); ++p) {
    total += w.process(static_cast<ProcessId>(p))
                 .router()
                 .total_stats()
                 .batched_payloads;
  }
  return total;
}

std::uint64_t total_acks(SimWorld& w) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < w.size(); ++p) {
    total += w.process(static_cast<ProcessId>(p)).router().total_stats()
                 .acks_sent;
  }
  return total;
}

std::uint64_t total_acks_suppressed(SimWorld& w) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < w.size(); ++p) {
    total += w.process(static_cast<ProcessId>(p)).router().total_stats()
                 .acks_suppressed;
  }
  return total;
}

void run_batching_bench(benchmark::State& state, OrderMode mode) {
  const auto max_batch = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kMembers = 8;
  constexpr int kBurst = 8;    // multicasts per member per round
  constexpr int kRounds = 12;

  double datagrams_per_msg = 0;
  double acks_per_msg = 0;
  double msgs_per_sec = 0;
  double batched = 0;
  double suppressed = 0;
  for (auto _ : state) {
    WorldConfig cfg = default_world(kMembers);
    cfg.host.channel.max_batch = max_batch;
    LoggedWorld w(cfg);
    const auto members = all_members(kMembers);
    GroupOptions opts;
    opts.mode = mode;
    w.create_group(1, members, opts);
    w.run_for(500 * kMillisecond);  // settle: formation-free warmup

    const std::uint64_t datagrams_before = total_datagrams(w);
    const std::uint64_t acks_before = total_acks(w);
    const std::uint64_t suppressed_before = total_acks_suppressed(w);
    const sim::Time t0 = w.now();
    const std::size_t expect =
        static_cast<std::size_t>(kRounds) * kBurst * kMembers;
    for (int r = 0; r < kRounds; ++r) {
      // Bursty offered load: every member submits kBurst multicasts at
      // the same instant — the shape batching is built for.
      for (ProcessId p : members) {
        for (int b = 0; b < kBurst; ++b) {
          w.multicast(p, 1,
                      "r" + std::to_string(r) + "p" + std::to_string(p) +
                          "b" + std::to_string(b));
        }
      }
      w.run_for(40 * kMillisecond);
    }
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (w.log(p).delivered_strings(1).size() < expect)
              return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    if (!ok) {
      state.SkipWithError("burst did not fully deliver");
      return;
    }
    const double virtual_s =
        static_cast<double>(w.now() - t0) / (1000.0 * kMillisecond);
    datagrams_per_msg =
        static_cast<double>(total_datagrams(w) - datagrams_before) /
        static_cast<double>(expect);
    acks_per_msg = static_cast<double>(total_acks(w) - acks_before) /
                   static_cast<double>(expect);
    msgs_per_sec = static_cast<double>(expect) / virtual_s;
    batched = static_cast<double>(total_batched_payloads(w));
    suppressed =
        static_cast<double>(total_acks_suppressed(w) - suppressed_before);
  }
  state.counters["max_batch"] = static_cast<double>(max_batch);
  state.counters["msgs_per_sec"] = msgs_per_sec;
  state.counters["datagrams_per_msg"] = datagrams_per_msg;
  state.counters["acks_per_msg"] = acks_per_msg;
  state.counters["acks_suppressed"] = suppressed;
  state.counters["batched_payloads"] = batched;
  emit_bench_json(
      std::string("batching/") +
          (mode == OrderMode::kSymmetric ? "sym" : "asym") + "/batch" +
          std::to_string(max_batch),
      {{"datagrams_per_msg", datagrams_per_msg},
       {"acks_per_msg", acks_per_msg},
       {"acks_suppressed", suppressed},
       {"msgs_per_sec", msgs_per_sec}});
}

void BM_BatchingSymmetric(benchmark::State& state) {
  run_batching_bench(state, OrderMode::kSymmetric);
}
BENCHMARK(BM_BatchingSymmetric)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_BatchingAsymmetric(benchmark::State& state) {
  run_batching_bench(state, OrderMode::kAsymmetric);
}
BENCHMARK(BM_BatchingAsymmetric)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
