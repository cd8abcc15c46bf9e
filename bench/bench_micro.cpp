// Experiment E14: per-message protocol processing micro-costs (real CPU
// time, unlike the virtual-time experiment benches) — Newtop's receive
// vector bookkeeping vs the baselines' vector clocks, context graphs and
// ack storms. This quantifies §6's "much more complicated ... than the
// simple approach of using receive vectors adopted in Newtop".
#include <benchmark/benchmark.h>

#include <deque>

#include "baselines/abcast.h"
#include "baselines/cbcast.h"
#include "baselines/lamport_total.h"
#include "baselines/psync.h"
#include "bench_util.h"
#include "core/endpoint.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// Newtop endpoint: cost of one ordered-message receive (decode, clock,
// RV, stability, queue, deliver).
void BM_MicroNewtopReceive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  EndpointHooks hooks;
  hooks.send = [](ProcessId, util::SharedBytes) {};
  std::uint64_t delivered = 0;
  hooks.on_event = [&delivered](const Event& ev) {
    if (std::holds_alternative<DeliveryEvent>(ev)) ++delivered;
  };
  Config cfg;
  Endpoint receiver(0, cfg, std::move(hooks));
  std::vector<ProcessId> members;
  for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<ProcessId>(i));
  receiver.create_group(1, members, {}, 0);

  // Pre-encode a stream of messages from every other member.
  std::vector<util::Bytes> stream;
  Counter c = 1;
  for (int round = 0; round < 64; ++round) {
    for (std::size_t s = 1; s < n; ++s) {
      OrderedMsg m;
      m.type = MsgType::kApp;
      m.group = 1;
      m.sender = m.emitter = static_cast<ProcessId>(s);
      m.counter = c;
      m.ldn = c > 8 ? c - 8 : 0;
      m.payload = {1, 2, 3, 4};
      stream.push_back(m.encode());
    }
    ++c;
  }
  std::size_t i = 0;
  Time now = 1;
  for (auto _ : state) {
    receiver.on_message(
        static_cast<ProcessId>(1 + (i % (n - 1))), stream[i % stream.size()],
        now++);
    ++i;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MicroNewtopReceive)->Arg(4)->Arg(16)->Arg(64);

void BM_MicroCbcastReceive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<ProcessId> members;
  for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<ProcessId>(i));
  // A sender process generates well-formed causal messages...
  std::deque<std::pair<ProcessId, util::Bytes>> wire;
  baselines::CbcastProcess sender(
      1, members,
      [&wire](ProcessId to, util::Bytes b) {
        if (to == 0) wire.emplace_back(1, std::move(b));
      },
      [](ProcessId, const util::Bytes&) {});
  for (int i = 0; i < 4096; ++i) sender.multicast({1, 2, 3, 4});
  // ...and the receiver under test consumes them.
  std::uint64_t delivered = 0;
  baselines::CbcastProcess receiver(
      0, members, [](ProcessId, util::Bytes) {},
      [&delivered](ProcessId, const util::Bytes&) { ++delivered; });
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= wire.size()) {
      state.PauseTiming();
      for (int k = 0; k < 4096; ++k) sender.multicast({1, 2, 3, 4});
      state.ResumeTiming();
    }
    auto& [from, data] = wire[i % wire.size()];
    receiver.on_message(from, data);
    ++i;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MicroCbcastReceive)->Arg(4)->Arg(16)->Arg(64);

void BM_MicroPsyncReceive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<ProcessId> members;
  for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<ProcessId>(i));
  std::deque<util::Bytes> wire;
  baselines::PsyncProcess sender(
      1, members,
      [&wire](ProcessId to, util::Bytes b) {
        if (to == 0) wire.push_back(std::move(b));
      },
      [](ProcessId, const util::Bytes&) {});
  for (int i = 0; i < 4096; ++i) sender.multicast({1, 2, 3, 4});
  std::uint64_t delivered = 0;
  baselines::PsyncProcess receiver(
      0, members, [](ProcessId, util::Bytes) {},
      [&delivered](ProcessId, const util::Bytes&) { ++delivered; });
  std::size_t i = 0;
  for (auto _ : state) {
    if (i >= wire.size()) {
      state.PauseTiming();
      for (int k = 0; k < 4096; ++k) sender.multicast({1, 2, 3, 4});
      state.ResumeTiming();
    }
    receiver.on_message(1, wire[i % wire.size()]);
    ++i;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_MicroPsyncReceive)->Arg(4)->Arg(16)->Arg(64);

// Wire/codec micro-costs.
void BM_MicroEncodeOrdered(benchmark::State& state) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 3;
  m.sender = m.emitter = 17;
  m.counter = 123456789;
  m.ldn = 123456700;
  m.payload = util::Bytes(64, 0xAB);
  for (auto _ : state) {
    auto raw = m.encode();
    benchmark::DoNotOptimize(raw);
  }
}
BENCHMARK(BM_MicroEncodeOrdered);

void BM_MicroDecodeOrdered(benchmark::State& state) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 3;
  m.sender = m.emitter = 17;
  m.counter = 123456789;
  m.ldn = 123456700;
  m.payload = util::Bytes(64, 0xAB);
  // Decode over an owned view, as the rx path does: payload comes out as
  // a zero-copy slice of `raw`.
  const util::BytesView raw(m.encode());
  for (auto _ : state) {
    auto decoded = OrderedMsg::decode(raw);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MicroDecodeOrdered);

}  // namespace
