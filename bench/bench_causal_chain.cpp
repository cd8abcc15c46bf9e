// Experiment E2 (Fig. 2 + Example 2, MD5'): the causal chain
// m1 -> m2 -> m3 -> m4 across four overlapping groups, with a partition
// cutting the m1 sender (Pk) away from Pi mid-multicast.
//
// Newtop's choice (option b): rather than piggybacking causal history on
// every message (the ISIS approach), m4's delivery at Pi waits until Pk
// has been excluded from Pi's g1 view. The measured quantity is exactly
// that cost: m4's delivery delay at Pi as a function of the suspicion
// threshold Ω — the price of low message-space overhead.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// Topology of Fig. 2 (6 processes, 4 overlapping groups):
//   g1 = {Pk, Pi, Pj, Pl}   (m1: Pk -> all, lost towards Pi/Pj)
//   g2 = {Pl, Pq}           (m2: Pl)
//   g3 = {Pq, Ps}           (m3: Pq)
//   g4 = {Ps, Pi}           (m4: Ps -> Pi)
void BM_CausalChainMd5PrimeVsOmegaBig(benchmark::State& state) {
  const auto omega_big_ms = static_cast<sim::Duration>(state.range(0));
  double m4_delay_ms = 0;
  double views_changed = 0;
  std::uint64_t seed = 3;
  for (auto _ : state) {
    WorldConfig cfg = default_world(6, seed++);
    cfg.host.endpoint.omega_big = omega_big_ms * kMillisecond;
    LoggedWorld w(cfg);
    const ProcessId pk = 0, pi = 1, pj = 2, pl = 3, pq = 4, ps = 5;
    w.create_group(1, {pk, pi, pj, pl});
    w.create_group(2, {pl, pq});
    w.create_group(3, {pq, ps});
    w.create_group(4, {ps, pi});
    w.run_for(300 * kMillisecond);

    // Partition Pk away from Pi and Pj exactly while m1 is multicast: the
    // datagrams to Pi/Pj are lost, Pl still receives m1.
    w.network().set_link_down(pk, pi, true);
    w.network().set_link_down(pk, pj, true);
    w.multicast(pk, 1, "m1");
    w.run_for(20 * kMillisecond);
    w.crash(pk);  // make the loss permanent (Fig. 2's permanent partition)

    // Relay the chain: each hop waits for its predecessor's delivery.
    w.run_until_pred(
        [&] {
          const auto d = w.log(pl).delivered_strings(1);
          for (const auto& s : d) {
            if (s == "m1") return true;
          }
          return false;
        },
        w.now() + 60 * kSecond);
    w.multicast(pl, 2, "m2");
    w.run_until_pred(
        [&] { return !w.log(pq).delivered_strings(2).empty(); },
        w.now() + 60 * kSecond);
    w.multicast(pq, 3, "m3");
    w.run_until_pred(
        [&] { return !w.log(ps).delivered_strings(3).empty(); },
        w.now() + 60 * kSecond);
    const sim::Time m4_sent = w.now();
    w.multicast(ps, 4, "m4");

    // m4 at Pi must wait until g1's view at Pi excludes Pk (MD5' option
    // b): measure the wait.
    const bool ok = w.run_until_pred(
        [&] {
          const auto d = w.log(pi).delivered_strings(4);
          for (const auto& s : d) {
            if (s == "m4") return true;
          }
          return false;
        },
        w.now() + 600 * kSecond);
    if (ok) {
      m4_delay_ms = static_cast<double>(w.now() - m4_sent) / kMillisecond;
      // Verify the MD5' mechanism: by m4's delivery, Pk ∉ Pi's g1 view.
      const View* v = w.ep(pi).view(1);
      views_changed = (v != nullptr && !v->contains(pk)) ? 1 : 0;
    }
  }
  state.counters["m4_delay_ms"] = m4_delay_ms;
  state.counters["pk_excluded_first"] = views_changed;  // must be 1
  state.counters["omega_big_ms"] = static_cast<double>(omega_big_ms);
}
BENCHMARK(BM_CausalChainMd5PrimeVsOmegaBig)
    ->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Unit(benchmark::kMillisecond);

// Control: the same chain with no partition — m4 arrives in network time,
// and m1 precedes m4 at Pi (MD5' satisfied by actual delivery).
void BM_CausalChainNoFault(benchmark::State& state) {
  double m4_delay_ms = 0, m1_before_m4 = 0;
  std::uint64_t seed = 90;
  for (auto _ : state) {
    LoggedWorld w(default_world(6, seed++));
    const ProcessId pk = 0, pi = 1, pj = 2, pl = 3, pq = 4, ps = 5;
    (void)pj;
    w.create_group(1, {pk, pi, pj, pl});
    w.create_group(2, {pl, pq});
    w.create_group(3, {pq, ps});
    w.create_group(4, {ps, pi});
    w.run_for(300 * kMillisecond);
    w.multicast(pk, 1, "m1");
    w.run_until_pred(
        [&] {
          const auto d = w.log(pl).delivered_strings(1);
          return !d.empty();
        },
        w.now() + 60 * kSecond);
    w.multicast(pl, 2, "m2");
    w.run_until_pred(
        [&] { return !w.log(pq).delivered_strings(2).empty(); },
        w.now() + 60 * kSecond);
    w.multicast(pq, 3, "m3");
    w.run_until_pred(
        [&] { return !w.log(ps).delivered_strings(3).empty(); },
        w.now() + 60 * kSecond);
    const sim::Time m4_sent = w.now();
    w.multicast(ps, 4, "m4");
    const bool ok = w.run_until_pred(
        [&] {
          const auto d = w.log(pi).delivered_strings(4);
          return !d.empty();
        },
        w.now() + 120 * kSecond);
    if (ok) {
      m4_delay_ms = static_cast<double>(w.now() - m4_sent) / kMillisecond;
      // m1 delivered at Pi before m4 (cross-group causal order).
      sim::Time t_m1 = -1, t_m4 = -1;
      for (const auto& r : w.log(pi).deliveries()) {
        const auto s = simhost::to_string(r.delivery.payload);
        if (s == "m1") t_m1 = r.at;
        if (s == "m4") t_m4 = r.at;
      }
      m1_before_m4 = (t_m1 >= 0 && t_m4 >= 0 && t_m1 <= t_m4) ? 1 : 0;
    }
  }
  state.counters["m4_delay_ms"] = m4_delay_ms;
  state.counters["m1_before_m4"] = m1_before_m4;  // must be 1
}
BENCHMARK(BM_CausalChainNoFault)->Unit(benchmark::kMillisecond);

}  // namespace
