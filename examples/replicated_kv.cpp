// Replicated key-value store: the classic application of total-order
// multicast (state machine replication), run as five UdpNodes sharing one
// loopback UdpTransport — real sockets, real threads, real time, the same
// protocol engine as the simulation.
//
// Four replicas apply a stream of put/incr commands issued concurrently
// by three writer threads through different replicas. Mid-load, a fifth
// replica joins the running group (GroupHandle::join): the designated
// incumbent snapshots its store as of the cutover stamp, streams it
// over, and the joiner installs snapshot + stashed post-stamp commands
// before applying anything live (docs/STATE_TRANSFER.md). Because every
// replica — joiner included — applies the same totally ordered command
// sequence to the same starting point, all stores converge to identical
// contents, which the program verifies.
//
// Migrated to the unified application API (core/api.h), so it doubles as
// migration documentation:
//   - writers go through GroupHandle::multicast and react to the
//     SendResult verdict (retry on kBackpressure) instead of a
//     fire-and-forget void call;
//   - the group opts into DeliveryMode::kPooledCopy — a KV store keeps
//     commands until they are applied, so it takes right-sized pooled
//     copies rather than pinning whole arrival BatchFrames;
//   - each replica's events arrive through UdpNodeConfig::on_event (one
//     typed stream) — deliveries apply to the stores live, and the
//     joiner's progress (offered / installing / caught-up) is the same
//     stream, not a side channel.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "transport/udp_transport.h"

using namespace newtop;
using transport::UdpNode;
using transport::UdpNodeConfig;
using transport::UdpTransport;

namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

// Applied on the transport's loop thread (the event sink), read from the
// main thread for convergence checks — hence the mutex.
struct Store {
  mutable std::mutex mu;
  std::map<std::string, long> kv;

  void apply(const std::string& cmd) {
    // "put k v" | "incr k v"
    const auto sp1 = cmd.find(' ');
    const auto sp2 = cmd.find(' ', sp1 + 1);
    const std::string op = cmd.substr(0, sp1);
    const std::string key = cmd.substr(sp1 + 1, sp2 - sp1 - 1);
    const long val = std::stol(cmd.substr(sp2 + 1));
    std::lock_guard<std::mutex> lock(mu);
    if (op == "put") {
      kv[key] = val;
    } else if (op == "incr") {
      kv[key] += val;
    }
  }

  std::string digest() const {
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    for (const auto& [k, v] : kv) out += k + "=" + std::to_string(v) + ";";
    return out;
  }

  // Snapshot wire format: the digest itself — "k=v;" repeated. Small,
  // readable, and order-stable (std::map iterates sorted).
  std::vector<std::uint8_t> serialize() const {
    const std::string d = digest();
    return std::vector<std::uint8_t>(d.begin(), d.end());
  }

  void install(const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(mu);
    kv.clear();
    std::string s(bytes.begin(), bytes.end());
    std::size_t pos = 0;
    while (pos < s.size()) {
      const auto eq = s.find('=', pos);
      const auto semi = s.find(';', eq);
      if (eq == std::string::npos || semi == std::string::npos) break;
      kv[s.substr(pos, eq - pos)] = std::stol(s.substr(eq + 1, semi - eq - 1));
      pos = semi + 1;
    }
  }
};

}  // namespace

int main() {
  using namespace std::chrono_literals;
  constexpr std::size_t kReplicas = 5;  // P4 starts outside the group
  constexpr ProcessId kJoiner = 4;
  constexpr GroupId kGroup = 1;
  constexpr int kOpsPerWriter = 40;

  std::vector<Store> stores(kReplicas);
  std::atomic<bool> caught_up{false};

  UdpNodeConfig cfg;
  cfg.endpoint.omega = 20 * sim::kMillisecond;
  cfg.endpoint.omega_big = 150 * sim::kMillisecond;
  // A small send window: a writer that outruns stability gets an honest
  // kBackpressure instead of an unbounded local queue.
  cfg.endpoint.max_pending_sends = 32;
  // One typed event stream per replica: deliveries drive the stores, and
  // the join narrates itself through the same stream.
  std::atomic<std::uint64_t> window_reopens{0};
  auto on_event = [&](ProcessId p, const Event& ev) {
    if (const auto* d = std::get_if<DeliveryEvent>(&ev)) {
      stores[p].apply(std::string(d->delivery.payload.begin(),
                                  d->delivery.payload.end()));
    } else if (const auto* st = std::get_if<StateTransferEvent>(&ev)) {
      const char* phase =
          st->phase == StateTransferEvent::Phase::kOffered      ? "offered"
          : st->phase == StateTransferEvent::Phase::kInstalling ? "installing"
                                                                : "caught-up";
      std::printf("  [join@P%u] %s (stamp %llu, %zu bytes)\n", p, phase,
                  static_cast<unsigned long long>(st->stamp), st->bytes);
      if (p == kJoiner && st->phase == StateTransferEvent::Phase::kCaughtUp) {
        caught_up.store(true);
      }
    } else if (const auto* mj = std::get_if<MemberJoinedEvent>(&ev)) {
      std::printf("  [view@P%u] P%u joined -> %s\n", p, mj->member,
                  to_string(mj->view).c_str());
    } else if (std::holds_alternative<SendWindowEvent>(ev)) {
      ++window_reopens;
    }
  };
  // All replicas multiplex one loopback socket and its event loop.
  auto transport = std::make_shared<UdpTransport>(0);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    cfg.on_event = [&on_event, p](const Event& ev) { on_event(p, ev); };
    nodes.push_back(std::make_unique<UdpNode>(p, transport, cfg));
  }
  for (auto& n : nodes) {
    for (auto& peer : nodes) {
      if (peer->id() != n->id()) n->add_peer(peer->id(), transport->port());
    }
  }
  for (auto& n : nodes) n->start();

  std::printf("== Replicated KV store over Newtop (UDP loopback) ==\n");
  const std::vector<ProcessId> members = {0, 1, 2, 3};
  for (ProcessId p : members) {
    GroupOptions opts;
    // The store retains delivered commands; pooled copies release the
    // arrival buffers immediately instead of re-pinning them.
    opts.delivery = DeliveryMode::kPooledCopy;
    // Each incumbent can be asked to serve a joiner: snapshot = its own
    // store as of the moment the engine asks (the cutover stamp).
    opts.snapshot_provider = [&stores, p](GroupId) {
      return stores[p].serialize();
    };
    nodes[p]->create_group(kGroup, members, opts);
  }
  // Static-bootstrap contract: every replica must install V0 before the
  // writers start (see Endpoint::create_group).
  std::this_thread::sleep_for(150ms);

  // Three concurrent writers, each through a different replica's
  // GroupHandle. A writer honours backpressure by backing off.
  auto writer = [&nodes](ProcessId via, const std::string& prefix) {
    GroupHandle group = nodes[via]->group(kGroup);
    for (int i = 0; i < kOpsPerWriter; ++i) {
      const std::string cmd =
          "incr " + prefix + std::to_string(i % 5) + " 1";
      while (group.multicast(bytes_of(cmd)) == SendResult::kBackpressure) {
        std::this_thread::sleep_for(1ms);  // window closed: back off
      }
      std::this_thread::sleep_for(1ms);
    }
  };
  std::thread w0(writer, 0, "x");
  std::thread w1(writer, 1, "y");
  std::thread w2(writer, 2, "x");  // deliberately contends with w0

  // Mid-load: the fifth replica asks in. Its snapshot installer resets
  // its store to the transferred bytes; every command after the cutover
  // stamp then applies through the normal delivery path.
  std::this_thread::sleep_for(30ms);
  std::printf("P%u joining mid-load...\n", kJoiner);
  JoinOptions jo;
  jo.contacts = {0, 1, 2, 3};
  jo.options.delivery = DeliveryMode::kPooledCopy;
  jo.options.snapshot_provider = [&stores](GroupId) {
    return stores[kJoiner].serialize();
  };
  jo.options.snapshot_installer = [&stores](
                                      GroupId,
                                      const std::vector<std::uint8_t>& b) {
    stores[kJoiner].install(b);
  };
  if (!nodes[kJoiner]->group(kGroup).join(jo)) {
    std::printf("join request could not be sent\n");
    return 1;
  }

  w0.join();
  w1.join();
  w2.join();

  // The joiner converges: wait for its caught-up event, then fence with
  // one more command through the *joiner itself* and wait until every
  // store (joiner included) has applied it.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!caught_up.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::printf("TIMEOUT waiting for joiner catch-up\n");
      return 1;
    }
    std::this_thread::sleep_for(5ms);
  }
  GroupHandle joiner = nodes[kJoiner]->group(kGroup);
  while (joiner.multicast(bytes_of("put done 1")) != SendResult::kSent) {
    std::this_thread::sleep_for(1ms);
  }
  bool all_done = false;
  while (!all_done) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::printf("TIMEOUT waiting for convergence\n");
      return 1;
    }
    all_done = true;
    for (std::size_t p = 0; p < kReplicas; ++p) {
      if (stores[p].digest().find("done=1") == std::string::npos) {
        all_done = false;
      }
    }
    std::this_thread::sleep_for(5ms);
  }

  // Every writer's admissions are on the record: nothing was silently
  // dropped (backpressured attempts were retried until accepted).
  for (ProcessId p = 0; p < 3; ++p) {
    const SendCounts c = nodes[p]->send_counts();
    std::printf("replica %u admissions: %llu sent, %llu queued, %llu "
                "backpressured (retried)\n",
                p, static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.queued),
                static_cast<unsigned long long>(c.backpressure));
  }
  std::printf("send-window reopenings: %llu\n",
              static_cast<unsigned long long>(window_reopens.load()));

  bool all_equal = true;
  for (std::size_t p = 1; p < kReplicas; ++p) {
    if (stores[p].digest() != stores[0].digest()) all_equal = false;
  }
  std::printf("replica 0 state: %s\n", stores[0].digest().c_str());
  std::printf("%zu replicas (one joined mid-load); states %s\n", kReplicas,
              all_equal ? "IDENTICAL" : "DIVERGED (bug!)");
  for (auto& n : nodes) n->stop();
  return all_equal ? 0 : 1;
}
