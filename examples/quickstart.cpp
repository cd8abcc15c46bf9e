// Quickstart: three processes form a group, exchange totally ordered
// multicasts, one process crashes, the survivors agree on a new view and
// keep going. Run with no arguments; prints a narrated trace.
//
// This exercises the whole stack of Fig. 3 (simulated network -> reliable
// FIFO transport -> logical clocks -> membership -> total order delivery)
// through the *unified application API* (core/api.h): GroupHandle for
// commands and queries, the typed Event stream for everything the engine
// reports back, and SendResult for the multicast admission verdict. The
// same three surfaces exist verbatim on the UDP host
// (examples/replicated_kv.cpp, examples/udp_demo.cpp).
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

// One std::visit over the Event variant handles every engine output —
// exhaustive by construction, so a new event kind is a
// compile error here, not a silently missed signal.
void print_event(ProcessId p, const Event& ev) {
  struct Printer {
    ProcessId p;
    void operator()(const DeliveryEvent& e) const {
      std::printf("  [event@P%u] deliver #%llu from P%u: \"%s\"\n", p,
                  static_cast<unsigned long long>(e.delivery.counter),
                  e.delivery.sender,
                  std::string(e.delivery.payload.begin(),
                              e.delivery.payload.end())
                      .c_str());
    }
    void operator()(const ViewChangeEvent& e) const {
      std::printf("  [event@P%u] view change in g%u -> %s\n", p, e.group,
                  to_string(e.view).c_str());
    }
    void operator()(const FormationEvent& e) const {
      std::printf("  [event@P%u] formation of g%u: %s\n", p, e.group,
                  e.outcome == FormationOutcome::kFormed ? "formed"
                                                         : "aborted");
    }
    void operator()(const SendWindowEvent& e) const {
      std::printf("  [event@P%u] send window reopened in g%u (%zu slots)\n",
                  p, e.group, e.available);
    }
    void operator()(const StateTransferEvent& e) const {
      const char* phase =
          e.phase == StateTransferEvent::Phase::kOffered      ? "offered"
          : e.phase == StateTransferEvent::Phase::kInstalling ? "installing"
                                                              : "caught-up";
      std::printf("  [event@P%u] state transfer in g%u: %s (stamp %llu, "
                  "%zu bytes)\n",
                  p, e.group, phase,
                  static_cast<unsigned long long>(e.stamp), e.bytes);
    }
    void operator()(const MemberJoinedEvent& e) const {
      std::printf("  [event@P%u] P%u joined g%u -> %s\n", p, e.member,
                  e.group, to_string(e.view).c_str());
    }
  };
  std::visit(Printer{p}, ev);
}

}  // namespace

int main() {
  WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 2026;
  cfg.network.latency =
      sim::LatencyModel::uniform(2 * kMillisecond, 10 * kMillisecond);
  SimWorld world(cfg);

  std::printf("== Newtop quickstart ==\n");
  std::printf("creating group g1 = {P0, P1, P2} (symmetric total order)\n");
  world.create_group(/*g=*/1, {0, 1, 2});

  // Hosts keep nothing they deliver: each process's event sink feeds an
  // EventLog (core/event_log.h), the record the oracles below read. P2's
  // log also forwards every event to a narrator.
  std::deque<EventLog> logs(cfg.processes);
  world.process(0).set_event_sink(logs[0].sink());
  world.process(1).set_event_sink(logs[1].sink());
  world.process(2).set_event_sink(
      logs[2].sink([](const Event& ev) { print_event(2, ev); }));

  // One handle per (process, group) membership.
  GroupHandle g0 = world.group(0, 1);
  GroupHandle g1 = world.group(1, 1);

  std::printf("P0 and P1 multicast concurrently...\n");
  const SendResult r0 = g0.multicast(simhost::to_bytes("credit alice 100"));
  const SendResult r1 = g1.multicast(simhost::to_bytes("debit bob 40"));
  std::printf("admission: P0 -> %s, P1 -> %s\n", to_string(r0),
              to_string(r1));
  world.run_for(1 * kSecond);

  for (ProcessId p = 0; p < 3; ++p) {
    std::printf("P%u delivered:", p);
    for (const auto& s : logs[p].delivered_strings(1)) {
      std::printf(" [%s]", s.c_str());
    }
    std::printf("\n");
  }

  std::printf("\ncrashing P2...\n");
  world.crash(2);
  g0.multicast(simhost::to_bytes("credit carol 7"));
  world.run_for(3 * kSecond);

  for (ProcessId p = 0; p < 2; ++p) {
    const auto v = world.group(p, 1).view();
    std::printf("P%u view after crash: %s\n", p,
                v ? to_string(*v).c_str() : "(none)");
  }
  std::printf("P0 delivered %zu messages, P1 delivered %zu — orders %s\n",
              logs[0].delivered_strings(1).size(),
              logs[1].delivered_strings(1).size(),
              logs[0].delivered_strings(1) ==
                      logs[1].delivered_strings(1)
                  ? "identical"
                  : "DIVERGENT (bug!)");

  const RetentionStats rs = g0.retention_stats();
  std::printf("\nP0 retention: %zu retained msgs, %zu used / %zu pinned "
              "bytes\n",
              rs.retained_msgs, rs.used_bytes, rs.pinned_bytes);
  std::printf("P0 stats: %llu app multicasts, %llu nulls, %llu views "
              "installed\n",
              static_cast<unsigned long long>(world.ep(0).stats().app_multicasts),
              static_cast<unsigned long long>(world.ep(0).stats().nulls_sent),
              static_cast<unsigned long long>(world.ep(0).stats().views_installed));
  return 0;
}
