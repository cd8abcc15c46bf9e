// Ablation benches for the design choices DESIGN.md calls out:
//   A1  self_refute on/off — recovery latency from a false suspicion
//       (direct evidence cancels the suspicion vs waiting for a peer's
//       refute message);
//   A2  Ω/ω ratio — false-suspicion rate under heavy network jitter (the
//       paper: "Ω should be tuned to a value that minimises the
//       possibility of unfounded suspicions");
//   A3  transport window/RTO — end-to-end delivery latency under loss
//       (the cost of the reliability layer the protocol assumes away);
//   A4  signature views on/off — view stabilisation time after a
//       mid-agreement partition (the §6 variant is "free" at runtime).
#include <benchmark/benchmark.h>

#include <set>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// A1: the third party that would refute P0's suspicion of P2 sits across
// a slow WAN path (150 ms links), while P0-P2 are LAN-close. After a
// transient P2->P0 glitch heals, direct evidence reaches P0 in
// milliseconds, but the peer refutation needs a WAN round-trip: with
// self_refute on, P0 resolves locally; with it off, it must wait for P1
// (and holds P2's fresh messages pending meanwhile).
void BM_AblationSelfRefute(benchmark::State& state) {
  const bool self_refute = state.range(0) != 0;
  util::Samples heal_ms;
  double pending_held = 0;
  std::uint64_t seed = 11;
  for (auto _ : state) {
    WorldConfig cfg = default_world(3, seed++);
    cfg.host.endpoint.self_refute = self_refute;
    SimWorld w(cfg);
    // P1 is far from everyone.
    const auto wan = sim::LatencyModel::constant(150 * kMillisecond);
    for (ProcessId p : {0u, 2u}) {
      w.network().set_link_latency(1, p, wan);
      w.network().set_link_latency(p, 1, wan);
    }
    w.create_group(1, all_members(3));
    w.run_for(500 * kMillisecond);
    w.network().set_link_down(2, 0, true);
    w.run_for(kSecond);  // P0 suspects P2 (P1 refutes; cut persists,
                         // so the suspicion re-forms each Ω)
    // Measure from heal to the moment P0 stops suspecting P2 — the
    // suspicion-resolution latency, isolated from delivery gating.
    if (!w.ep(0).suspects(1, 2)) {
      w.run_until_pred([&] { return w.ep(0).suspects(1, 2); },
                       w.now() + 5 * kSecond);
    }
    w.network().set_link_down(2, 0, false);
    const sim::Time t0 = w.now();
    w.multicast(2, 1, "probe");
    const bool ok = w.run_until_pred(
        [&] { return !w.ep(0).suspects(1, 2); }, w.now() + 120 * kSecond);
    if (ok) heal_ms.add(static_cast<double>(w.now() - t0) / kMillisecond);
    pending_held = static_cast<double>(w.ep(0).stats().pending_held);
  }
  if (!heal_ms.empty()) {
    state.counters["resolve_ms"] = heal_ms.mean();
  }
  // Mechanism visibility: with self_refute off, evidence messages sit in
  // the pending-hold buffer until a peer refute arrives.
  state.counters["pending_held"] = pending_held;
  state.SetLabel(self_refute ? "self_refute=on" : "self_refute=off");
}
BENCHMARK(BM_AblationSelfRefute)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// A2: heavy-tailed latency versus Ω — count unfounded suspicions in a
// healthy group over 30 virtual seconds.
void BM_AblationOmegaBigFalseSuspicions(benchmark::State& state) {
  const auto omega_big_ms = static_cast<sim::Duration>(state.range(0));
  double false_suspicions = 0;
  std::uint64_t seed = 29;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5, seed++);
    // Exponential latency: occasional multi-hundred-ms stragglers.
    cfg.network.latency = sim::LatencyModel::exponential(40 * kMillisecond);
    cfg.host.endpoint.omega = 50 * kMillisecond;
    cfg.host.endpoint.omega_big = omega_big_ms * kMillisecond;
    SimWorld w(cfg);
    w.create_group(1, all_members(5));
    w.run_for(30 * kSecond);
    std::uint64_t suspects = 0;
    for (ProcessId p = 0; p < 5; ++p) {
      suspects += w.ep(p).stats().suspects_sent;
    }
    false_suspicions = static_cast<double>(suspects);
  }
  state.counters["false_suspicions_30s"] = false_suspicions;
  state.counters["omega_big_ms"] = static_cast<double>(omega_big_ms);
}
BENCHMARK(BM_AblationOmegaBigFalseSuspicions)
    ->Arg(100)->Arg(200)->Arg(400)->Arg(800)->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// A3: transport knobs under 20% loss — protocol-visible delivery latency.
void BM_AblationTransportRto(benchmark::State& state) {
  const auto rto_ms = static_cast<sim::Duration>(state.range(0));
  util::Samples lat;
  std::uint64_t seed = 43;
  for (auto _ : state) {
    WorldConfig cfg = default_world(3, seed++);
    cfg.network.drop_probability = 0.2;
    cfg.host.channel.rto = rto_ms * kMillisecond;
    LoggedWorld w(cfg);
    const auto members = all_members(3);
    w.create_group(1, members);
    w.run_for(300 * kMillisecond);
    auto s = measure_delivery_latency(w, 1, members, 15,
                                      /*gap=*/10 * kMillisecond);
    if (s.count() > 0) lat.add(s.mean());
  }
  if (!lat.empty()) {
    state.counters["lat_ms_mean"] = lat.mean();
  }
  state.counters["rto_ms"] = static_cast<double>(rto_ms);
}
BENCHMARK(BM_AblationTransportRto)->Arg(10)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_AblationTransportWindow(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  double drain_ms = 0;
  std::uint64_t seed = 59;
  for (auto _ : state) {
    WorldConfig cfg = default_world(3, seed++);
    cfg.network.drop_probability = 0.1;
    cfg.host.channel.window = window;
    LoggedWorld w(cfg);
    w.create_group(1, all_members(3));
    w.run_for(300 * kMillisecond);
    const sim::Time t0 = w.now();
    for (int i = 0; i < 100; ++i) {
      w.multicast(0, 1, "w" + std::to_string(i));
    }
    const bool ok = w.run_until_pred(
        [&] { return w.log(2).delivered_strings(1).size() >= 100; },
        w.now() + 300 * kSecond);
    if (ok) drain_ms = static_cast<double>(w.now() - t0) / kMillisecond;
  }
  state.counters["drain_ms"] = drain_ms;
  state.counters["window"] = static_cast<double>(window);
}
BENCHMARK(BM_AblationTransportWindow)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// A4: signature views cost nothing at runtime; stabilisation time of the
// Example-3 scenario with and without them.
void BM_AblationSignatureViews(benchmark::State& state) {
  const bool sig = state.range(0) != 0;
  util::Samples stab_ms;
  std::uint64_t seed = 71;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5, seed++);
    cfg.host.endpoint.signature_views = sig;
    SimWorld w(cfg);
    w.create_group(1, all_members(5));
    w.run_for(300 * kMillisecond);
    w.crash(4);
    w.run_for(150 * kMillisecond);
    const sim::Time t0 = w.now();
    w.partition({{0, 1}, {2, 3}});
    const bool ok = w.run_until_pred(
        [&] {
          const View* va = w.ep(0).view(1);
          const View* vb = w.ep(2).view(1);
          return va && va->members == std::vector<ProcessId>{0, 1} && vb &&
                 vb->members == std::vector<ProcessId>{2, 3};
        },
        w.now() + 600 * kSecond);
    if (ok) stab_ms.add(static_cast<double>(w.now() - t0) / kMillisecond);
  }
  if (!stab_ms.empty()) {
    state.counters["stabilise_ms"] = stab_ms.mean();
  }
  state.SetLabel(sig ? "signature_views=on" : "signature_views=off");
}
BENCHMARK(BM_AblationSignatureViews)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
