// Mixed-mode multi-group example (§4.3): a small exchange where one
// gateway process belongs simultaneously to
//   - an asymmetric "order book" group (a natural fit: the matching
//     engine is the sequencer, clients are mostly silent), and
//   - a symmetric "audit log" group (every auditor both reads and writes).
//
// The gateway interleaves order submissions with audit records. The
// mixed-mode blocking rule guarantees that the audit record for an order
// can never overtake the order itself in the combined total order at any
// process that sees both groups — demonstrated at the gateway itself.
#include <cstdio>
#include <string>
#include <vector>

#include "core/event_log.h"
#include "core/sim_host.h"

using namespace newtop;
using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

int main() {
  WorldConfig cfg;
  cfg.processes = 5;
  cfg.seed = 7;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 10 * kMillisecond);
  SimWorld world(cfg);
  // The host keeps nothing it delivers; the gateway's EventLog records
  // the combined order checked below.
  const ProcessId gateway = 1;   // multi-group member
  EventLog gateway_log;
  world.process(gateway).set_event_sink(gateway_log.sink());

  const ProcessId engine = 0;    // matching engine = sequencer of g1
  const ProcessId client = 2;    // another order source
  const ProcessId auditorA = 3, auditorB = 4;

  GroupOptions book_opts;
  book_opts.mode = OrderMode::kAsymmetric;
  world.create_group(/*order book*/ 1, {engine, gateway, client}, book_opts);
  world.create_group(/*audit log*/ 2, {gateway, auditorA, auditorB});
  world.run_for(300 * kMillisecond);

  std::printf("== Mixed-mode exchange (asymmetric book + symmetric audit) ==\n");
  std::printf("book sequencer: P%u\n", world.ep(gateway).sequencer_of(1));

  // The gateway submits orders and audits each one immediately after.
  for (int i = 0; i < 5; ++i) {
    world.multicast(gateway, 1, "order#" + std::to_string(i));
    world.multicast(gateway, 2, "audit:order#" + std::to_string(i));
    // The audit multicast is *blocked* until the order's echo returns
    // (mixed-mode blocking rule) — check the queue while in flight.
    if (world.ep(gateway).queued_sends() > 0) {
      std::printf("order#%d in flight: audit record correctly held back\n",
                  i);
    }
    world.run_for(50 * kMillisecond);
  }
  world.multicast(client, 1, "order#client");
  world.run_for(3 * kSecond);

  std::printf("\ngateway's combined delivery order:\n  ");
  int inversions = 0;
  std::string last_order;
  const auto deliveries = gateway_log.deliveries();
  for (const auto& r : deliveries) {
    const std::string s = simhost::to_string(r.delivery.payload);
    std::printf("[%s] ", s.c_str());
    if (s.rfind("order#", 0) == 0) last_order = s;
    if (s.rfind("audit:", 0) == 0 && s.substr(6) != last_order) {
      // The audit record must directly follow (in causal order) the
      // order it refers to — i.e. that order must already be delivered.
      bool seen = false;
      for (const auto& r2 : deliveries) {
        if (&r2 == &r) break;
        if (simhost::to_string(r2.delivery.payload) == s.substr(6)) {
          seen = true;
          break;
        }
      }
      if (!seen) ++inversions;
    }
  }
  std::printf("\n\naudit-before-order inversions: %d (%s)\n", inversions,
              inversions == 0 ? "mixed-mode blocking rule upheld"
                              : "BUG: causality violated");
  std::printf("gateway blocking stalls observed: %llu\n",
              static_cast<unsigned long long>(
                  world.ep(gateway).stats().sends_blocked));
  return inversions == 0 ? 0 : 1;
}
