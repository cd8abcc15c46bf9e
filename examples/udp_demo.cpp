// Newtop over real UDP sockets: three nodes on loopback form a group
// dynamically, exchange ordered traffic, and survive a node being killed.
// The same protocol engine as everywhere else — only the bytes now travel
// through the kernel's network stack. Uses the unified application API
// (core/api.h): the identical GroupHandle / Event surface the sim host
// exposes.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/event_log.h"
#include "transport/udp_transport.h"

using namespace newtop;
using transport::UdpNode;
using transport::UdpNodeConfig;

namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace std::chrono_literals;
  UdpNodeConfig cfg;
  cfg.endpoint.omega = 25 * sim::kMillisecond;
  cfg.endpoint.omega_big = 200 * sim::kMillisecond;
  // Socket-layer knobs (docs/TRANSPORT.md, "Kernel-batched socket I/O"):
  //   --no-mmsg    per-packet sendmsg/recvmsg instead of burst syscalls
  //   --burst N    datagrams per sendmmsg/recvmmsg call
  //   --shards N   extra SO_REUSEPORT receive threads per node
  // Dissemination overlay (docs/DISSEMINATION.md):
  //   --dissemination=mesh|ring|tree   group fan-out strategy
  //   --arity=N                        tree branching factor
  GroupOptions gopts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-mmsg") {
      cfg.transport.use_mmsg = false;
    } else if (arg == "--burst" && i + 1 < argc) {
      cfg.transport.burst = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--shards" && i + 1 < argc) {
      cfg.transport.rx_shards =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg.rfind("--dissemination=", 0) == 0) {
      const std::string v = arg.substr(std::string("--dissemination=").size());
      if (v == "mesh") {
        gopts.dissemination = DisseminationStrategy::kFullMesh;
      } else if (v == "ring") {
        gopts.dissemination = DisseminationStrategy::kRing;
      } else if (v == "tree") {
        gopts.dissemination = DisseminationStrategy::kTree;
      } else {
        std::fprintf(stderr, "unknown dissemination strategy: %s\n",
                     v.c_str());
        return 2;
      }
    } else if (arg.rfind("--arity=", 0) == 0) {
      gopts.relay_arity = static_cast<std::uint32_t>(
          std::atoi(arg.c_str() + std::string("--arity=").size()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--no-mmsg] [--burst N] [--shards N] "
                   "[--dissemination=mesh|ring|tree] [--arity=N]\n",
                   argv[0]);
      return 2;
    }
  }
  // The typed event stream works identically over sockets: count
  // formation outcomes as they happen instead of polling.
  std::atomic<int> formations{0};
  cfg.on_event = [&](const Event& ev) {
    if (const auto* f = std::get_if<FormationEvent>(&ev)) {
      std::printf("  [event] group %u formation: %s\n", f->group,
                  f->outcome == FormationOutcome::kFormed ? "formed"
                                                          : "aborted");
      ++formations;
    }
  };

  std::printf("== Newtop over UDP loopback ==\n");
  // A node keeps nothing it delivers: each node's EventLog records its
  // deliveries and forwards every event to the formation counter. The
  // logs outlive the nodes (declared first, destroyed last).
  std::deque<EventLog> logs(3);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId p = 0; p < 3; ++p) {
    UdpNodeConfig node_cfg = cfg;
    node_cfg.on_event = logs[p].sink(cfg.on_event);
    nodes.push_back(std::make_unique<UdpNode>(p, /*port=*/0, node_cfg));
  }
  for (auto& a : nodes) {
    for (auto& b : nodes) {
      if (a->id() != b->id()) a->add_peer(b->id(), b->port());
    }
    std::printf("node P%u on udp port %u\n", a->id(), a->port());
  }
  for (auto& node : nodes) node->start();

  const char* strat =
      gopts.dissemination == DisseminationStrategy::kRing    ? "ring"
      : gopts.dissemination == DisseminationStrategy::kTree  ? "tree"
                                                             : "mesh";
  std::printf("\nP0 initiates group 1 = {P0, P1, P2} over the wire"
              " (dissemination=%s, arity=%u)...\n",
              strat, gopts.relay_arity);
  // The invite carries the dissemination agreement (FormInviteMsg), so
  // every member computes the same overlay from the agreed view.
  nodes[0]->initiate_group(1, {0, 1, 2}, gopts);
  std::this_thread::sleep_for(400ms);

  // GroupHandles marshal onto each node's loop thread and return the
  // admission verdict synchronously — the same facade as the sim host.
  GroupHandle g1 = nodes[1]->group(1);
  GroupHandle g2 = nodes[2]->group(1);
  std::printf("P1 multicast: %s\n",
              to_string(g1.multicast(bytes_of("hello from P1"))));
  std::printf("P2 multicast: %s\n",
              to_string(g2.multicast(bytes_of("hello from P2"))));
  std::this_thread::sleep_for(500ms);

  for (auto& node : nodes) {
    std::printf("P%u delivered:", node->id());
    for (const auto& s : logs[node->id()].delivered_strings(1)) {
      std::printf(" [%s]", s.c_str());
    }
    std::printf("\n");
  }

  std::printf("\nkilling P2 (socket closed, no goodbye)...\n");
  nodes[2]->stop();
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  GroupHandle g0 = nodes[0]->group(1);
  bool excluded = false;
  while (std::chrono::steady_clock::now() < deadline && !excluded) {
    const auto v = g0.view();  // live engine state, via the handle
    excluded =
        v.has_value() && v->members == std::vector<ProcessId>{0, 1};
    std::this_thread::sleep_for(20ms);
  }
  std::printf("survivors' view: %s\n",
              excluded ? "V{P0,P1} — P2 excluded by the membership protocol"
                       : "TIMEOUT (unexpected)");

  std::printf("P0 multicast: %s\n",
              to_string(g0.multicast(bytes_of("life goes on"))));
  std::this_thread::sleep_for(300ms);
  const auto d1 = logs[1].delivered_strings(1);
  const std::string last = d1.empty() ? "?" : d1.back();
  std::printf("P1's last delivery: [%s]\n", last.c_str());

  // The syscall-batching telemetry: datagrams per syscall is the
  // achieved burst depth, rx copies must read 0 (zero-copy receive).
  std::printf("\nsocket I/O (P0's transport, %s mode):\n",
              nodes[0]->transport()->mmsg_enabled() ? "mmsg" : "fallback");
  const transport::TransportIoStats io = nodes[0]->transport()->io_stats();
  std::printf(
      "  tx: %llu datagrams in %llu syscalls   rx: %llu datagrams in "
      "%llu syscalls\n",
      static_cast<unsigned long long>(io.tx_datagrams),
      static_cast<unsigned long long>(io.tx_syscalls),
      static_cast<unsigned long long>(io.rx_datagrams),
      static_cast<unsigned long long>(io.rx_syscalls));
  std::printf("  loop wakeups: %llu   rx copies: %llu\n",
              static_cast<unsigned long long>(io.wakeups),
              static_cast<unsigned long long>(io.rx_copies));
  // Relay-overlay telemetry: with mesh everything reads 0; with ring or
  // tree the frames originated/forwarded show the fan-out moving onto
  // the overlay (docs/DISSEMINATION.md).
  const EndpointStats es = nodes[0]->endpoint_stats();
  std::printf(
      "relay (P0): originated %llu, forwarded %llu, direct %llu, "
      "gaps stashed %llu, repairs req/served %llu/%llu, drops %llu\n",
      static_cast<unsigned long long>(es.relays_originated),
      static_cast<unsigned long long>(es.relays_forwarded),
      static_cast<unsigned long long>(es.relay_direct_sends),
      static_cast<unsigned long long>(es.relay_gap_stashed),
      static_cast<unsigned long long>(es.relay_repairs_requested),
      static_cast<unsigned long long>(es.relay_repairs_served),
      static_cast<unsigned long long>(es.relay_drops));
  nodes[0]->stop();
  nodes[1]->stop();
  return 0;
}
