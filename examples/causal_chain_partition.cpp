// Fig. 2 / Example 2 walkthrough (experiment E2): the causal chain
// m1 -> m2 -> m3 -> m4 across four overlapping groups, with a partition
// that cuts the chain's first sender (Pk) away from Pi while m1 is being
// multicast.
//
// This is the scenario that motivates MD5': m4 must eventually be
// delivered to Pi (atomicity with Ps), but its causal ancestor m1 is
// irretrievably lost towards Pi. Newtop's answer — option (b) in §3 — is
// to exclude Pk from Pi's g1 view *before* delivering m4, so the total
// order at Pi reads as if the failure preceded m1's multicast. The
// program narrates exactly that sequence of events.
#include <cstdio>
#include <deque>
#include <string>

#include "core/event_log.h"
#include "core/sim_host.h"

using namespace newtop;
using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

namespace {

bool delivered(const EventLog& log, GroupId g, const std::string& m) {
  for (const auto& s : log.delivered_strings(g)) {
    if (s == m) return true;
  }
  return false;
}

}  // namespace

int main() {
  WorldConfig cfg;
  cfg.processes = 6;
  cfg.seed = 94;
  cfg.network.latency =
      sim::LatencyModel::uniform(2 * kMillisecond, 8 * kMillisecond);
  SimWorld world(cfg);
  // The host keeps nothing it delivers: one EventLog per process records
  // the deliveries this walkthrough narrates.
  std::deque<EventLog> logs(cfg.processes);
  for (ProcessId p = 0; p < world.size(); ++p) {
    world.process(p).set_event_sink(logs[p].sink());
  }
  const ProcessId pk = 0, pi = 1, pj = 2, pl = 3, pq = 4, ps = 5;

  std::printf("== Causal chain across overlapping groups (Fig. 2) ==\n");
  world.create_group(1, {pk, pi, pj, pl});  // g1
  world.create_group(2, {pl, pq});          // g2
  world.create_group(3, {pq, ps});          // g3
  world.create_group(4, {ps, pi});          // g4
  world.run_for(500 * kMillisecond);

  std::printf("partition cuts Pk -> {Pi, Pj} while m1 is multicast...\n");
  world.network().set_link_down(pk, pi, true);
  world.network().set_link_down(pk, pj, true);
  world.multicast(pk, 1, "m1");
  world.run_for(20 * kMillisecond);
  world.crash(pk);  // the partition is permanent

  // Relay the causal chain m1 -> m2 -> m3 -> m4.
  world.run_until_pred([&] { return delivered(logs[pl], 1, "m1"); },
                       world.now() + 30 * kSecond);
  std::printf("Pl delivered m1; sends m2 in g2\n");
  world.multicast(pl, 2, "m2");
  world.run_until_pred([&] { return delivered(logs[pq], 2, "m2"); },
                       world.now() + 30 * kSecond);
  std::printf("Pq delivered m2; sends m3 in g3\n");
  world.multicast(pq, 3, "m3");
  world.run_until_pred([&] { return delivered(logs[ps], 3, "m3"); },
                       world.now() + 30 * kSecond);
  std::printf("Ps delivered m3; sends m4 in g4 (m1 -> m4 causally)\n");
  const sim::Time m4_sent = world.now();
  world.multicast(ps, 4, "m4");

  world.run_until_pred([&] { return delivered(logs[pi], 4, "m4"); },
                       world.now() + 120 * kSecond);
  const double wait_ms =
      static_cast<double>(world.now() - m4_sent) / kMillisecond;

  const View* v1 = world.ep(pi).view(1);
  std::printf("\nPi delivered m4 after %.1f ms\n", wait_ms);
  std::printf("Pi's g1 view at that moment: %s\n",
              v1 ? to_string(*v1).c_str() : "(none)");
  std::printf("m1 delivered at Pi: %s\n",
              delivered(logs[pi], 1, "m1") ? "yes"
                                           : "no (lost in the partition)");
  std::printf("MD5' honoured: %s — Pk was excluded from Pi's view before "
              "m4 was delivered,\nso the lost m1 reads as sent by a "
              "non-member.\n",
              (v1 && !v1->contains(pk)) ? "yes" : "NO (bug!)");
  return 0;
}
