// Experiment E13 (§7, [11]): flow control — "a sender process does not
// cause buffers to overflow at any of the functioning destination
// processes". A fast sender streams into a group over a slow network;
// with the window enabled the receiver-side unstable buffer stays bounded
// by ~W, without it the buffer tracks the whole backlog.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

void run_flood(std::size_t window, double& peak_receiver_buffer,
               double& sender_queue_peak, std::uint64_t seed) {
  WorldConfig cfg = default_world(3, seed);
  cfg.host.endpoint.flow_window = window;
  cfg.network.latency = sim::LatencyModel::constant(20 * kMillisecond);
  SimWorld w(cfg);
  w.create_group(1, all_members(3));
  w.run_for(200 * kMillisecond);
  std::size_t peak_buf = 0, peak_q = 0;
  for (int i = 0; i < 300; ++i) {
    w.multicast(0, 1, "flood" + std::to_string(i));
    if (i % 10 == 0) w.run_for(1 * kMillisecond);
    peak_buf = std::max(peak_buf, w.ep(1).retained_messages(1));
    peak_q = std::max(peak_q, w.ep(0).queued_sends());
  }
  w.run_for(60 * kSecond);
  peak_receiver_buffer = static_cast<double>(peak_buf);
  sender_queue_peak = static_cast<double>(peak_q);
}

void BM_FlowWindowBoundsReceiverBuffer(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  double peak = 0, queue = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_flood(window, peak, queue, seed++);
  }
  state.counters["receiver_retained_peak"] = peak;
  state.counters["sender_local_queue_peak"] = queue;
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_FlowWindowBoundsReceiverBuffer)
    ->Arg(8)->Arg(32)->Arg(128)->Arg(0)  // 0 = flow control disabled
    ->Unit(benchmark::kMillisecond);

// Throughput cost of the window: total virtual time to fully deliver a
// 300-message flood, per window size. Smaller windows round-trip more.
void BM_FlowWindowThroughputCost(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  double drain_ms = 0;
  std::uint64_t seed = 50;
  for (auto _ : state) {
    WorldConfig cfg = default_world(3, seed++);
    cfg.host.endpoint.flow_window = window;
    cfg.network.latency = sim::LatencyModel::constant(10 * kMillisecond);
    LoggedWorld w(cfg);
    w.create_group(1, all_members(3));
    w.run_for(200 * kMillisecond);
    const sim::Time t0 = w.now();
    for (int i = 0; i < 300; ++i) {
      w.multicast(0, 1, "f" + std::to_string(i));
    }
    const bool ok = w.run_until_pred(
        [&] { return w.log(2).delivered_strings(1).size() >= 300; },
        w.now() + 600 * kSecond);
    if (ok) drain_ms = static_cast<double>(w.now() - t0) / kMillisecond;
  }
  state.counters["drain_ms"] = drain_ms;
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_FlowWindowThroughputCost)->Arg(8)->Arg(32)->Arg(128)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Adaptive transport timing under jitter: a bimodal 1ms/40ms path (30%
// slow). The control pins the estimator at 20ms (rto_min = rto_max =
// rto), which sits exactly between the two modes — every slow round
// trip beats the timer and triggers a spurious retransmission. The free
// estimator must widen past the slow mode and repair measurably less;
// CI gates the adaptive variant's retransmits_per_msg through
// bench/baselines.json.
void run_jitter_flood(bool adaptive, double& retransmits_per_msg,
                      double& srtt_ms, double& spurious,
                      std::uint64_t seed) {
  WorldConfig cfg = default_world(3, seed);
  cfg.network.latency =
      sim::LatencyModel::bimodal(1 * kMillisecond, 40 * kMillisecond, 0.3);
  auto& ch = cfg.host.channel;
  if (!adaptive) ch.rto_min = ch.rto_max = ch.rto;
  LoggedWorld w(cfg);
  w.create_group(1, all_members(3));
  w.run_for(200 * kMillisecond);
  const auto totals = [&] {
    transport::ChannelStats t;
    for (std::size_t p = 0; p < 3; ++p) {
      const auto s = w.process(static_cast<ProcessId>(p)).router().total_stats();
      t.retransmissions += s.retransmissions;
      t.spurious_rexmit += s.spurious_rexmit;
      t.srtt_us = std::max(t.srtt_us, s.srtt_us);
    }
    return t;
  };
  const std::uint64_t rexmit_before = totals().retransmissions;
  const int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) {
    w.multicast(static_cast<ProcessId>(i % 3), 1, "j" + std::to_string(i));
    w.run_for(5 * kMillisecond);
  }
  const bool ok = w.run_until_pred(
      [&] {
        for (ProcessId p : all_members(3)) {
          if (w.log(p).delivered_strings(1).size() <
              static_cast<std::size_t>(kMsgs))
            return false;
        }
        return true;
      },
      w.now() + 120 * kSecond);
  if (!ok) return;
  const auto t = totals();
  retransmits_per_msg =
      static_cast<double>(t.retransmissions - rexmit_before) / kMsgs;
  srtt_ms = static_cast<double>(t.srtt_us) / kMillisecond;
  spurious = static_cast<double>(t.spurious_rexmit);
}

void BM_FlowJitterRetransmits(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  double retransmits_per_msg = -1, srtt_ms = 0, spurious = 0;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    run_jitter_flood(adaptive, retransmits_per_msg, srtt_ms, spurious,
                     seed++);
  }
  if (retransmits_per_msg < 0) {
    state.SkipWithError("jitter flood did not fully deliver");
    return;
  }
  state.counters["retransmits_per_msg"] = retransmits_per_msg;
  state.counters["srtt_ms"] = srtt_ms;
  state.counters["spurious_rexmit"] = spurious;
  emit_bench_json(
      std::string("flow_jitter/") + (adaptive ? "adaptive" : "pinned20ms"),
      {{"retransmits_per_msg", retransmits_per_msg},
       {"srtt_ms", srtt_ms},
       {"spurious_rexmit", spurious}});
}
BENCHMARK(BM_FlowJitterRetransmits)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
