// Kernel-batched UDP path: syscalls per delivered message on a bursty
// multi-group loopback workload, measured in both transport modes.
//
// The claim under test is the tentpole of the mmsg rework: draining and
// flushing datagram bursts through recvmmsg/sendmmsg divides the
// syscall bill by the burst size, and the deadline-driven loop wakes
// only when there is work. Both modes run in this binary — the runtime
// `use_mmsg` switch selects the per-packet sendmsg/recvmsg fallback for
// the baseline — so the ratio is an apples-to-apples measurement on the
// same build, workload and machine.
//
// Topology: 4 nodes on 2 shared UdpTransports (2 nodes per socket),
// group 1 spanning all four, group 2 spanning one node of each
// transport. Each round every member bursts multicasts back-to-back.
// BatchFrame payload coalescing is disabled (max_batch = 1): that layer
// is bench_batching's subject, and with it on, the datagram stream is
// too thin to show the syscall layer — this bench measures the cost of
// traffic that reaches the socket as individual datagrams.
//
// Counters / BENCH_JSON (gated in bench/baselines.json):
//   syscalls_per_msg   — (tx+rx syscalls) / delivered app message
//   msgs_per_sec       — delivered app messages per wall second
//   wakeups_per_msg    — event-loop poll returns / delivered message
//   dgrams_per_syscall — datagrams moved per socket syscall
//   rx_copies          — staging copies on the receive path (must be 0)
//   rx_full_bursts     — recvmmsg calls that filled every slot, per
//                        receive syscall (0 in fallback; not gated): how
//                        often the burst depth bounded a drain
//   rx_pinned_bytes_per_payload_byte — distinct backing-buffer bytes
//                        held by the nodes' EventLogs of every
//                        delivered payload, over those payloads' bytes:
//                        what an application that keeps its deliveries
//                        pays in memory (a datagram that pins a whole
//                        receive buffer shows here)
//   udp_path/ratio:syscall_ratio — fallback syscalls_per_msg / mmsg's
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/event_log.h"
#include "transport/udp_transport.h"

namespace {

using namespace newtop;
using namespace newtop::transport;

constexpr GroupId kWide = 1;    // all four nodes, across both sockets
constexpr GroupId kNarrow = 2;  // one node per socket
constexpr int kBurst = 16;      // multicasts per member per round (kWide)
constexpr int kWarmRounds = 3;

struct Mesh {
  // One log per node, recording every delivery (first member: the nodes
  // stop before their logs go away).
  std::deque<EventLog> logs;
  std::vector<std::shared_ptr<UdpTransport>> transports;
  std::vector<std::unique_ptr<UdpNode>> nodes;

  explicit Mesh(bool use_mmsg) {
    UdpTransportConfig tc;
    tc.use_mmsg = use_mmsg;
    transports.push_back(std::make_shared<UdpTransport>(0, tc));
    transports.push_back(std::make_shared<UdpTransport>(0, tc));

    UdpNodeConfig cfg;
    cfg.endpoint.omega = 50 * sim::kMillisecond;
    cfg.endpoint.omega_big = 300 * sim::kMillisecond;
    cfg.channel.rto = 30 * sim::kMillisecond;  // loopback: no rexmits
    cfg.channel.max_batch = 1;                 // see header comment
    for (ProcessId id = 0; id < 4; ++id) {
      cfg.on_event = logs.emplace_back().sink();
      nodes.push_back(
          std::make_unique<UdpNode>(id, transports[id / 2], cfg));
    }
    for (auto& n : nodes) {
      for (auto& peer : nodes) {
        if (peer->id() != n->id()) n->add_peer(peer->id(), peer->port());
      }
    }
    for (auto& n : nodes) n->start();
    for (auto& n : nodes) {
      n->create_group(kWide, {0, 1, 2, 3});
    }
    nodes[0]->create_group(kNarrow, {0, 2});
    nodes[2]->create_group(kNarrow, {0, 2});
    // Static bootstrap: all members must install V0 before traffic.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  ~Mesh() {
    for (auto& n : nodes) n->stop();
  }

  TransportIoStats io() const {
    TransportIoStats sum;
    for (const auto& t : transports) {
      const TransportIoStats s = t->io_stats();
      sum.tx_syscalls += s.tx_syscalls;
      sum.rx_syscalls += s.rx_syscalls;
      sum.tx_datagrams += s.tx_datagrams;
      sum.rx_datagrams += s.rx_datagrams;
      sum.rx_copies += s.rx_copies;
      sum.rx_full_bursts += s.rx_full_bursts;
      sum.wakeups += s.wakeups;
    }
    return sum;
  }

  // One bursty round; returns false on delivery timeout.
  bool round(int seq) {
    const std::string tag = "r" + std::to_string(seq);
    for (auto& n : nodes) {
      for (int b = 0; b < kBurst; ++b) {
        n->multicast(kWide, util::Bytes(tag.begin(), tag.end()));
      }
    }
    for (ProcessId id : {0u, 2u}) {
      for (int b = 0; b < kBurst / 2; ++b) {
        nodes[id]->multicast(kNarrow, util::Bytes(tag.begin(), tag.end()));
      }
    }
    done_wide_ += 4 * kBurst;
    done_narrow_ += 2 * (kBurst / 2);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      bool ok = true;
      for (const EventLog& log : logs) {
        if (log.delivery_count(kWide) < done_wide_) ok = false;
      }
      for (ProcessId id : {0u, 2u}) {
        if (logs[id].delivery_count(kNarrow) < done_narrow_) ok = false;
      }
      if (ok) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
  }

  // Distinct backing-buffer bytes held by the logs of every node (each
  // delivered payload is kept there), per payload byte.
  double pinned_bytes_per_payload_byte() const {
    std::set<const util::Bytes*> buffers;
    double pinned = 0, used = 0;
    for (const EventLog& log : logs) {
      for (const DeliveryRecord& r : log.deliveries()) {
        const Delivery& d = r.delivery;
        used += static_cast<double>(d.payload.size());
        const util::SharedBytes& buf = d.payload.buffer();
        if (buf != nullptr && buffers.insert(buf.get()).second) {
          pinned += static_cast<double>(buf->size());
        }
      }
    }
    return used > 0 ? pinned / used : 0;
  }

  // App messages delivered per round, summed over all receiving nodes.
  static double deliveries_per_round() {
    return 4.0 * (4 * kBurst) + 2.0 * (2 * (kBurst / 2));
  }

  std::size_t done_wide_ = 0;
  std::size_t done_narrow_ = 0;
};

// Last measured syscalls_per_msg per mode, for the cross-mode ratio
// (benchmark re-runs while calibrating; last full run wins, matching
// emit_bench_json's registry semantics).
double g_spm_fallback = 0;
double g_spm_mmsg = 0;

void BM_UdpPath(benchmark::State& state) {
  const bool want_mmsg = state.range(0) != 0;
  Mesh mesh(want_mmsg);
  if (want_mmsg && !mesh.transports[0]->mmsg_enabled()) {
    // -DNEWTOP_NO_MMSG build: there is no batched mode to measure.
    state.SkipWithError("mmsg not compiled in");
    return;
  }
  for (int i = 0; i < kWarmRounds; ++i) {
    if (!mesh.round(-i - 1)) {
      state.SkipWithError("warmup delivery timeout");
      return;
    }
  }
  const TransportIoStats before = mesh.io();
  const auto t0 = std::chrono::steady_clock::now();
  int rounds = 0;
  for (auto _ : state) {
    if (!mesh.round(rounds++)) {
      state.SkipWithError("delivery timeout");
      return;
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const TransportIoStats after = mesh.io();

  const double msgs = rounds * Mesh::deliveries_per_round();
  const double syscalls =
      static_cast<double>((after.tx_syscalls - before.tx_syscalls) +
                          (after.rx_syscalls - before.rx_syscalls));
  const double dgrams =
      static_cast<double>((after.tx_datagrams - before.tx_datagrams) +
                          (after.rx_datagrams - before.rx_datagrams));
  const double wakeups =
      static_cast<double>(after.wakeups - before.wakeups);
  const double copies =
      static_cast<double>(after.rx_copies - before.rx_copies);
  const double rx_syscalls =
      static_cast<double>(after.rx_syscalls - before.rx_syscalls);
  const double full_bursts =
      rx_syscalls > 0
          ? static_cast<double>(after.rx_full_bursts -
                                before.rx_full_bursts) /
                rx_syscalls
          : 0;
  if (msgs <= 0 || syscalls <= 0) return;
  // The zero-copy receive invariant is part of the contract, not a
  // trend to gate: any staging copy is a regression, so fail the run.
  if (copies != 0) {
    std::fprintf(stderr,
                 "bench_udp_path: %g rx staging copies detected "
                 "(the receive path must be copy-free)\n",
                 copies);
    std::exit(1);
  }

  const double spm = syscalls / msgs;
  const double pinned = mesh.pinned_bytes_per_payload_byte();
  state.counters["syscalls_per_msg"] = spm;
  state.counters["msgs_per_sec"] = msgs / secs;
  state.counters["wakeups_per_msg"] = wakeups / msgs;
  state.counters["dgrams_per_syscall"] = dgrams / syscalls;
  state.counters["rx_pinned_bytes_per_payload_byte"] = pinned;

  const char* mode = want_mmsg ? "mmsg" : "fallback";
  benchutil::emit_bench_json("udp_path/" + std::string(mode),
                             {{"syscalls_per_msg", spm},
                              {"msgs_per_sec", msgs / secs},
                              {"wakeups_per_msg", wakeups / msgs},
                              {"dgrams_per_syscall", dgrams / syscalls},
                              {"rx_copies", copies},
                              {"rx_full_bursts", full_bursts},
                              {"rx_pinned_bytes_per_payload_byte", pinned}});
  (want_mmsg ? g_spm_mmsg : g_spm_fallback) = spm;
  if (g_spm_mmsg > 0 && g_spm_fallback > 0) {
    benchutil::emit_bench_json(
        "udp_path/ratio",
        {{"syscall_ratio", g_spm_fallback / g_spm_mmsg}});
  }
}

BENCHMARK(BM_UdpPath)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
