// Dissemination-overlay experiment (ISSUE 7 / §7 scalability): a sender
// in an n-member full-mesh group transmits n-1 datagrams per multicast,
// O(n²) across the group; the ring and tree overlays cut the origin's
// cost to O(1) (ring: one successor; tree: arity children) while relays
// share the remaining fan-out. Measures per-origin datagrams and bytes
// per delivered multicast plus send-to-last-delivery latency for
// mesh/ring/tree at 8/64/128 members, and gates the 128-member
// mesh-over-relay ratio (the PR's ≥8x acceptance bar).
//
// Groups run failure-free (§4 static configuration): the workload is
// crash-free and large-n bursts with relaying would otherwise need
// Ω >> the measured latencies; failover is test_dissemination's job.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

GroupOptions strategy_opts(DisseminationStrategy s, std::uint32_t arity) {
  GroupOptions o;
  o.dissemination = s;
  o.relay_arity = arity;
  o.failure_free = true;
  return o;
}

const char* strategy_name(DisseminationStrategy s) {
  switch (s) {
    case DisseminationStrategy::kRing:
      return "ring";
    case DisseminationStrategy::kTree:
      return "tree";
    default:
      return "mesh";
  }
}

struct RunResult {
  double dg_per_msg = 0;     // origin-sent datagrams / delivered multicast
  double bytes_per_msg = 0;  // origin-sent bytes / delivered multicast
  util::Samples lat_ms;      // send -> everyone-delivered, virtual ms
};

// Waits until every member delivered `payload` in group 1.
bool wait_all_delivered(LoggedWorld& w, const std::vector<ProcessId>& members,
                        const std::string& payload) {
  return w.run_until_pred(
      [&] {
        for (ProcessId p : members) {
          const auto d = w.log(p).delivered_strings(1);
          bool found = false;
          for (const auto& str : d) {
            if (str == payload) {
              found = true;
              break;
            }
          }
          if (!found) return false;
        }
        return true;
      },
      w.now() + 120 * kSecond);
}

// Single fixed sender so the per-origin tx counters isolate the fan-out
// cost. The origin's transmit counter also carries steady-state
// background — its own ω nulls, and in relay modes its forwarding duty
// for every other member's null stream — so the burst window's delta is
// corrected by the background rate measured over an idle window of the
// same length. Latency is probed separately (serialized sends) because
// waiting out full delivery inside the burst window would let background
// swamp the fan-out signal.
RunResult run_workload(std::size_t n, DisseminationStrategy s,
                       std::uint32_t arity, int msgs) {
  LoggedWorld w(default_world(n));
  const auto members = all_members(n);
  w.create_group(1, members, strategy_opts(s, arity));
  w.run_for(500 * kMillisecond);

  RunResult r;
  // Latency probes: send -> everyone-delivered, one at a time.
  for (int i = 0; i < 5; ++i) {
    const std::string payload = "lp" + std::to_string(i);
    const sim::Time sent_at = w.now();
    if (w.multicast(0, 1, payload) != SendResult::kSent) continue;
    if (!wait_all_delivered(w, members, payload)) return RunResult{};
    r.lat_ms.add(static_cast<double>(w.now() - sent_at) / kMillisecond);
    w.run_for(10 * kMillisecond);
  }

  // Idle window: the origin's background transmit rate with no content
  // in flight. Background is periodic (every member nulls each ω, and
  // in relay modes the origin forwards a deterministic share of those
  // streams), so both windows are rounded up to an exact multiple of ω —
  // a phase-shifted window of length k·ω catches the same count of each
  // periodic stream, which keeps the burst-minus-idle delta from going
  // negative when background dwarfs the fan-out signal (large n, low
  // per-origin cost).
  const sim::Duration omega = Config{}.omega;
  sim::Duration window = msgs * kMillisecond + 20 * kMillisecond;
  window = ((window + omega - 1) / omega) * omega;
  const auto idle0 = w.network().node_tx_stats(0);
  w.run_for(window);
  const auto idle1 = w.network().node_tx_stats(0);

  // Burst window of the same virtual length.
  const auto tx0 = w.network().node_tx_stats(0);
  int sent = 0;
  for (int i = 0; i < msgs; ++i) {
    const std::string payload = "d" + std::to_string(i);
    if (w.multicast(0, 1, payload) == SendResult::kSent) ++sent;
    w.run_for(1 * kMillisecond);
  }
  w.run_for(window - msgs * kMillisecond);  // same total span as idle
  const auto tx1 = w.network().node_tx_stats(0);
  if (sent == 0) return RunResult{};

  // Wait out delivery of the full burst, then check total order: every
  // member must have seen the same delivery sequence.
  if (!wait_all_delivered(w, members, "d" + std::to_string(msgs - 1)))
    return RunResult{};
  const auto ref = w.log(0).delivered_strings(1);
  for (ProcessId p : members) {
    if (w.log(p).delivered_strings(1) != ref) {
      return RunResult{};  // disagreement poisons the metrics (gate fails)
    }
  }
  const auto burst_dg =
      static_cast<double>(tx1.datagrams_sent - tx0.datagrams_sent) -
      static_cast<double>(idle1.datagrams_sent - idle0.datagrams_sent);
  const auto burst_bytes =
      static_cast<double>(tx1.bytes_sent - tx0.bytes_sent) -
      static_cast<double>(idle1.bytes_sent - idle0.bytes_sent);
  r.dg_per_msg = burst_dg > 0 ? burst_dg / sent : 0;
  r.bytes_per_msg = burst_bytes > 0 ? burst_bytes / sent : 0;
  return r;
}

// Mesh vs ring vs tree at 8 and 64 members (128 lives in the ratio
// benchmark below so the expensive runs happen once).
void BM_Dissemination(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto s = static_cast<DisseminationStrategy>(state.range(1));
  RunResult r;
  for (auto _ : state) {
    r = run_workload(n, s, /*arity=*/4, /*msgs=*/20);
  }
  state.counters["dg_per_msg"] = r.dg_per_msg;
  state.counters["bytes_per_msg"] = r.bytes_per_msg;
  report_latency(state, r.lat_ms);
  emit_bench_json(
      "dissemination/" + std::string(strategy_name(s)) + std::to_string(n),
      {{"dg_per_msg", r.dg_per_msg},
       {"bytes_per_msg", r.bytes_per_msg},
       {"lat_ms_p50", r.lat_ms.empty() ? 0 : r.lat_ms.percentile(50)}});
}
BENCHMARK(BM_Dissemination)
    ->Args({8, static_cast<int>(DisseminationStrategy::kFullMesh)})
    ->Args({8, static_cast<int>(DisseminationStrategy::kRing)})
    ->Args({8, static_cast<int>(DisseminationStrategy::kTree)})
    ->Args({64, static_cast<int>(DisseminationStrategy::kFullMesh)})
    ->Args({64, static_cast<int>(DisseminationStrategy::kRing)})
    ->Args({64, static_cast<int>(DisseminationStrategy::kTree)})
    ->Unit(benchmark::kMillisecond);

// The acceptance gate: at 128 members, per-origin datagrams per delivered
// multicast for mesh over ring and mesh over tree, all three modes
// measured in-bench on the same build (like udp_path/ratio).
void BM_DisseminationRatio128(benchmark::State& state) {
  RunResult mesh, ring, tree;
  for (auto _ : state) {
    mesh = run_workload(128, DisseminationStrategy::kFullMesh, 4, 10);
    ring = run_workload(128, DisseminationStrategy::kRing, 4, 10);
    tree = run_workload(128, DisseminationStrategy::kTree, 4, 10);
  }
  const double over_ring =
      ring.dg_per_msg > 0 ? mesh.dg_per_msg / ring.dg_per_msg : 0;
  const double over_tree =
      tree.dg_per_msg > 0 ? mesh.dg_per_msg / tree.dg_per_msg : 0;
  state.counters["mesh_dg_per_msg"] = mesh.dg_per_msg;
  state.counters["ring_dg_per_msg"] = ring.dg_per_msg;
  state.counters["tree_dg_per_msg"] = tree.dg_per_msg;
  state.counters["mesh_over_ring_ratio"] = over_ring;
  state.counters["mesh_over_tree_ratio"] = over_tree;
  emit_bench_json("dissemination/ratio128",
                  {{"mesh_dg_per_msg", mesh.dg_per_msg},
                   {"ring_dg_per_msg", ring.dg_per_msg},
                   {"tree_dg_per_msg", tree.dg_per_msg},
                   {"mesh_over_ring_ratio", over_ring},
                   {"mesh_over_tree_ratio", over_tree},
                   {"ring_lat_ms_p50",
                    ring.lat_ms.empty() ? 0 : ring.lat_ms.percentile(50)},
                   {"mesh_lat_ms_p50",
                    mesh.lat_ms.empty() ? 0 : mesh.lat_ms.percentile(50)}});
}
BENCHMARK(BM_DisseminationRatio128)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
