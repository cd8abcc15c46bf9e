// Integration tests of the UDP transport host: the full Newtop stack over
// real loopback sockets and real threads. Small and generously timed; the
// simulator suite owns protocol correctness, these own the socket host.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/event_log.h"
#include "transport/udp_transport.h"

namespace newtop::transport {
namespace {

using namespace std::chrono_literals;

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

UdpNodeConfig fast_cfg() {
  UdpNodeConfig cfg;
  cfg.endpoint.omega = 20 * sim::kMillisecond;
  cfg.endpoint.omega_big = 150 * sim::kMillisecond;
  cfg.channel.rto = 30 * sim::kMillisecond;
  return cfg;
}

// Routes a node's events through `log`, then on to cfg's own sink. A
// node records nothing itself; the tests read these logs. Declare the
// logs before the nodes, so every node stops before its log goes away.
UdpNodeConfig logged(UdpNodeConfig cfg, EventLog& log) {
  cfg.on_event = log.sink(std::move(cfg.on_event));
  return cfg;
}

// Builds n nodes on ephemeral ports, fully meshed; node i records into
// logs[i] (appended as needed).
std::vector<std::unique_ptr<UdpNode>> make_mesh(
    std::size_t n, std::deque<EventLog>& logs,
    UdpNodeConfig cfg = fast_cfg()) {
  while (logs.size() < n) logs.emplace_back();
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<UdpNode>(static_cast<ProcessId>(i),
                                              /*port=*/0,
                                              logged(cfg, logs[i])));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        nodes[i]->add_peer(static_cast<ProcessId>(j), nodes[j]->port());
      }
    }
  }
  for (auto& node : nodes) node->start();
  return nodes;
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// Runs `fn` on a helper thread and aborts the binary if it has not
// finished within `limit`: a hung teardown then fails at once with a
// message naming the call, instead of stalling until the ctest timeout.
void bounded(const std::string& what, std::chrono::milliseconds limit,
             std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> done = task.get_future();
  std::thread t(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s did not finish within %lld ms\n", what.c_str(),
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  t.join();
}

TEST(UdpTransport, SocketBindsEphemeralPort) {
  UdpSocket s(0);
  EXPECT_GT(s.port(), 0);
}

TEST(UdpTransport, RawDatagramRoundTrip) {
  UdpSocket a(0), b(0);
  a.send_to(b.port(), bytes_of("ping"));
  ASSERT_TRUE(b.wait_readable(1000));
  std::uint16_t from;
  util::Bytes data;
  ASSERT_TRUE(b.receive(from, data));
  EXPECT_EQ(from, a.port());
  EXPECT_EQ(data, bytes_of("ping"));
}

TEST(UdpTransport, TotalOrderOverLoopback) {
  // Both orderings over real sockets and threads: symmetric with every
  // member sending, and asymmetric with the two non-sequencer members
  // alternating (every message takes the sequencer round trip).
  struct Input {
    OrderMode mode;
    int messages;
    ProcessId first_sender;
    ProcessId senders;
  };
  for (const Input in : {Input{OrderMode::kSymmetric, 30, 0, 3},
                         Input{OrderMode::kAsymmetric, 30, 1, 2}}) {
    SCOPED_TRACE(in.mode == OrderMode::kSymmetric ? "symmetric"
                                                  : "asymmetric");
    std::deque<EventLog> logs;
    auto nodes = make_mesh(3, logs);
    GroupOptions opts;
    opts.mode = in.mode;
    for (auto& node : nodes) node->create_group(1, {0, 1, 2}, opts);
    // Static bootstrap contract (see Endpoint::create_group): all members
    // must have installed V0 before traffic flows. Over real threads that
    // needs a settle delay; dynamic formation (tested below) avoids it.
    std::this_thread::sleep_for(100ms);
    for (int i = 0; i < in.messages; ++i) {
      const ProcessId sender =
          in.first_sender + static_cast<ProcessId>(i) % in.senders;
      nodes[sender]->multicast(1, bytes_of("m" + std::to_string(i)));
    }
    const auto n = static_cast<std::size_t>(in.messages);
    ASSERT_TRUE(wait_for(
        [&] {
          for (auto& node : nodes) {
            if (logs[node->id()].delivery_count(1) < n) return false;
          }
          return true;
        },
        20s));
    const auto ref = logs[0].deliveries();
    ASSERT_EQ(ref.size(), n);
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      const auto d = logs[i].deliveries();
      ASSERT_EQ(d.size(), n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(d[k].delivery.payload, ref[k].delivery.payload)
            << "node " << i << " pos " << k;
        EXPECT_EQ(d[k].delivery.sender, ref[k].delivery.sender);
      }
    }
    for (auto& node : nodes) node->stop();
  }
}

TEST(UdpTransport, AdaptiveRttEstimationOverLoopback) {
  // The adaptive transport timing path end-to-end over real sockets:
  // steady_clock stamps ride the wire, echoes come back, and the
  // estimator's gauges surface through the marshalled stats snapshot.
  UdpNodeConfig cfg = fast_cfg();
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  std::vector<ProcessId> members{0, 1};
  for (auto& node : nodes) node->create_group(1, members);
  std::this_thread::sleep_for(100ms);
  for (int i = 0; i < 10; ++i) {
    nodes[i % 2]->multicast(1, bytes_of("m" + std::to_string(i)));
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(wait_for(
      [&] {
        for (auto& node : nodes) {
          if (logs[node->id()].delivery_count(1) < 10) return false;
        }
        return true;
      },
      10s));
  const auto stats = nodes[0]->transport_stats();
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_GT(stats.rtt_samples, 0u);
  EXPECT_GT(stats.srtt_us, 0);
  // The derived RTO respects its clamp even on a ~zero-latency path.
  EXPECT_GE(stats.rto_current_us, cfg.channel.rto_min);
  EXPECT_LE(stats.rto_current_us, std::max(cfg.channel.rto_max,
                                           cfg.channel.rto));
  for (auto& node : nodes) node->stop();
  // Shutdown-safe: a snapshot after stop is the marshalled fallback,
  // not a hang or a race on the dead loop thread.
  EXPECT_EQ(nodes[0]->transport_stats().delivered, 0u);
}

TEST(UdpTransport, NodeStopTriggersViewChange) {
  std::deque<EventLog> logs;
  auto nodes = make_mesh(3, logs);
  std::vector<ProcessId> members{0, 1, 2};
  for (auto& node : nodes) node->create_group(1, members);
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  nodes[0]->multicast(1, bytes_of("warmup"));
  ASSERT_TRUE(wait_for(
      [&] {
        for (auto& node : nodes) {
          if (logs[node->id()].delivery_count(1) < 1) return false;
        }
        return true;
      },
      10s));
  nodes[2]->stop();  // "crash"
  ASSERT_TRUE(wait_for(
      [&] {
        const auto v0 = logs[0].views();
        const auto v1 = logs[1].views();
        return !v0.empty() &&
               v0.back().view.members == std::vector<ProcessId>{0, 1} &&
               !v1.empty() &&
               v1.back().view.members == std::vector<ProcessId>{0, 1};
      },
      15s))
      << "survivors never excluded the stopped node";
  // Traffic continues among survivors.
  nodes[1]->multicast(1, bytes_of("post-crash"));
  ASSERT_TRUE(wait_for([&] { return logs[0].delivery_count(1) >= 2; },
                       10s));
  nodes[0]->stop();
  nodes[1]->stop();
}

TEST(UdpTransport, GroupHandleFacadeOverLoopback) {
  // The same GroupHandle surface as SimWorld, marshalled onto the node's
  // loop thread, plus SendResult propagation through the async multicast
  // and the per-node SendCounts, the event sink, and departure.
  UdpNodeConfig cfg = fast_cfg();
  std::atomic<int> delivery_events{0};
  cfg.on_event = [&](const Event& ev) {
    if (std::holds_alternative<DeliveryEvent>(ev)) ++delivery_events;
  };
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  std::vector<ProcessId> members{0, 1};
  for (auto& node : nodes) node->create_group(1, members);
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)

  GroupHandle h = nodes[0]->group(1);
  EXPECT_TRUE(send_accepted(h.multicast(bytes_of("via-handle"))));
  ASSERT_TRUE(wait_for(
      [&] {
        for (auto& node : nodes) {
          if (logs[node->id()].delivery_count(1) < 1) return false;
        }
        return true;
      },
      10s));
  const auto v = h.view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, members);
  const RetentionStats rs = h.retention_stats();
  EXPECT_LE(rs.used_bytes, rs.pinned_bytes);

  // Rejections surface instead of vanishing: unknown group over the
  // handle and over the async path with a completion callback.
  EXPECT_EQ(nodes[0]->group(42).multicast(bytes_of("x")),
            SendResult::kNotMember);
  std::promise<SendResult> bad;
  nodes[0]->multicast(77, bytes_of("y"),
                      [&](SendResult r) { bad.set_value(r); });
  EXPECT_EQ(bad.get_future().get(), SendResult::kNotMember);
  const SendCounts counts = nodes[0]->send_counts();
  EXPECT_EQ(counts.accepted(), 1u);
  EXPECT_EQ(counts.not_member, 2u);
  // The event sink saw the one accepted multicast once per member (it
  // runs just after the node's log records, so wait for it too).
  EXPECT_TRUE(wait_for([&] { return delivery_events.load() >= 2; }, 10s));
  EXPECT_EQ(delivery_events.load(), 2);

  // Departure through the handle: the membership (and the view) go away,
  // and a later multicast is rejected.
  h.leave();
  EXPECT_TRUE(wait_for([&] { return !h.view().has_value(); }, 10s))
      << "view still installed after leave";
  EXPECT_EQ(h.multicast(bytes_of("after-leave")), SendResult::kNotMember);

  for (auto& node : nodes) node->stop();
  // Stopped node: every handle call degrades to the rejecting default.
  EXPECT_EQ(h.multicast(bytes_of("post-stop")), SendResult::kNotMember);
  EXPECT_FALSE(h.view().has_value());
}

TEST(UdpTransport, CallsBeforeStartReturnAtOnce) {
  // A node accepts commands only between start() and stop(). Before
  // start() no loop drains its mailbox, so every call is rejected at once,
  // exactly as after stop(), instead of blocking forever.
  UdpNode node(0, /*port=*/0, fast_cfg());
  bounded("calls on a node that was never started", 5000ms, [&node] {
    GroupHandle h = node.group(1);
    EXPECT_FALSE(h.view().has_value());
    EXPECT_EQ(h.multicast(bytes_of("x")), SendResult::kNotMember);
    std::promise<SendResult> done;
    node.multicast(1, bytes_of("y"),
                   [&done](SendResult r) { done.set_value(r); });
    EXPECT_EQ(done.get_future().get(), SendResult::kNotMember);
    EXPECT_EQ(node.endpoint_stats().app_multicasts, 0u);
    EXPECT_EQ(node.transport_stats().tx_datagrams, 0u);
  });
  // The rejections left nothing behind: once started, the node serves.
  node.start();
  node.create_group(1, {0});
  EXPECT_TRUE(
      wait_for([&node] { return node.group(1).view().has_value(); }, 10s));
  bounded("stop of the node", 5000ms, [&node] { node.stop(); });
}

TEST(UdpTransport, SharedTransportMultiGroupIsolation) {
  // Four complete Newtop endpoints multiplexing ONE socket: the wire
  // envelope demuxes by destination process id, so two disjoint groups
  // coexist on a single UdpTransport without cross-delivery.
  auto transport = std::make_shared<UdpTransport>(0);
  std::deque<EventLog> logs(4);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId id = 0; id < 4; ++id) {
    nodes.push_back(std::make_unique<UdpNode>(
        id, transport, logged(fast_cfg(), logs[id])));
  }
  for (auto& n : nodes) {
    for (auto& peer : nodes) {
      if (peer->id() != n->id()) n->add_peer(peer->id(), transport->port());
    }
  }
  for (auto& n : nodes) n->start();
  nodes[0]->create_group(1, {0, 1});
  nodes[1]->create_group(1, {0, 1});
  nodes[2]->create_group(2, {2, 3});
  nodes[3]->create_group(2, {2, 3});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)

  EXPECT_TRUE(send_accepted(nodes[0]->group(1).multicast(bytes_of("g1"))));
  EXPECT_TRUE(send_accepted(nodes[2]->group(2).multicast(bytes_of("g2"))));
  ASSERT_TRUE(wait_for(
      [&] {
        return logs[0].delivery_count(1) >= 1 &&
               logs[1].delivery_count(1) >= 1 &&
               logs[2].delivery_count(2) >= 1 &&
               logs[3].delivery_count(2) >= 1;
      },
      10s));
  // No bleed between the groups sharing the socket.
  for (auto& n : nodes) {
    const GroupId other = n->id() < 2 ? 2 : 1;
    EXPECT_EQ(logs[n->id()].delivery_count(other), 0u) << "node " << n->id();
  }
  // Admission verdicts stay per-node: the senders tallied one accepted
  // send each, their group-mates none.
  EXPECT_EQ(nodes[0]->send_counts().accepted(), 1u);
  EXPECT_EQ(nodes[1]->send_counts().accepted(), 0u);
  EXPECT_EQ(nodes[2]->send_counts().accepted(), 1u);
  // A non-member multicast on the shared socket is rejected locally.
  EXPECT_EQ(nodes[3]->group(1).multicast(bytes_of("x")),
            SendResult::kNotMember);
  EXPECT_EQ(nodes[3]->send_counts().not_member, 1u);
  for (auto& n : nodes) n->stop();
}

TEST(UdpTransport, MixedDisseminationSharedTransport) {
  // A relaying (ring) group and a full-mesh group coexisting on ONE
  // socket: kRelay frames for group 1 demux and forward hop-by-hop
  // while group 2's direct datagrams flow untouched, and both groups
  // keep total order across every member. The TSan leg runs this file,
  // so the relay rx path (forward + seq gate) gets raced for real.
  auto transport = std::make_shared<UdpTransport>(0);
  std::deque<EventLog> logs(4);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId id = 0; id < 4; ++id) {
    nodes.push_back(std::make_unique<UdpNode>(
        id, transport, logged(fast_cfg(), logs[id])));
  }
  for (auto& n : nodes) {
    for (auto& peer : nodes) {
      if (peer->id() != n->id()) n->add_peer(peer->id(), transport->port());
    }
  }
  for (auto& n : nodes) n->start();
  std::vector<ProcessId> members{0, 1, 2, 3};
  GroupOptions ring;
  ring.dissemination = DisseminationStrategy::kRing;
  for (auto& n : nodes) {
    n->create_group(1, members, ring);  // relayed
    n->create_group(2, members);        // full mesh
  }
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)

  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(send_accepted(
        nodes[i]->group(1).multicast(bytes_of("ring" + std::to_string(i)))));
    EXPECT_TRUE(send_accepted(
        nodes[i]->group(2).multicast(bytes_of("mesh" + std::to_string(i)))));
  }
  ASSERT_TRUE(wait_for(
      [&] {
        for (auto& n : nodes) {
          const EventLog& log = logs[n->id()];
          if (log.delivery_count(1) < 3 || log.delivery_count(2) < 3) {
            return false;
          }
        }
        return true;
      },
      15s));
  // Same total order per group at every member.
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    for (GroupId g : {GroupId(1), GroupId(2)}) {
      EXPECT_EQ(logs[i].delivered_strings(g), logs[0].delivered_strings(g))
          << "node " << i << " group " << g;
    }
  }
  // The ring group actually relayed: the senders wrapped their
  // multicasts (and nulls) into RelayFrames, and at least one member
  // forwarded a frame onward. The mesh group contributes nothing to
  // these counters.
  std::uint64_t originated = 0, forwarded = 0;
  for (auto& n : nodes) {
    const EndpointStats es = n->endpoint_stats();
    originated += es.relays_originated;
    forwarded += es.relays_forwarded;
  }
  EXPECT_GT(originated, 0u);
  EXPECT_GT(forwarded, 0u);
  for (auto& n : nodes) n->stop();
}

TEST(UdpTransport, SyscallCountersMonotonic) {
  // The socket-layer io counters surface through transport_stats and
  // only ever grow; the rx path never stages a copy.
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);
  nodes[0]->multicast(1, bytes_of("one"));
  ASSERT_TRUE(wait_for(
      [&] { return logs[1].delivery_count(1) >= 1; }, 10s));
  const ChannelStats s1 = nodes[0]->transport_stats();
  EXPECT_GT(s1.tx_syscalls, 0u);
  EXPECT_GT(s1.rx_syscalls, 0u);
  EXPECT_GT(s1.tx_datagrams, 0u);
  EXPECT_GT(s1.rx_datagrams, 0u);
  EXPECT_GT(s1.wakeups, 0u);
  EXPECT_EQ(s1.rx_copies, 0u);
  for (int i = 0; i < 5; ++i) {
    nodes[1]->multicast(1, bytes_of("more" + std::to_string(i)));
  }
  ASSERT_TRUE(wait_for(
      [&] { return logs[0].delivery_count(1) >= 6; }, 10s));
  const ChannelStats s2 = nodes[0]->transport_stats();
  EXPECT_GE(s2.tx_syscalls, s1.tx_syscalls);
  EXPECT_GE(s2.rx_syscalls, s1.rx_syscalls);
  EXPECT_GT(s2.tx_datagrams, s1.tx_datagrams);
  EXPECT_GT(s2.rx_datagrams, s1.rx_datagrams);
  EXPECT_GE(s2.wakeups, s1.wakeups);
  EXPECT_EQ(s2.rx_copies, 0u);
  for (auto& node : nodes) node->stop();
}

TEST(UdpTransport, ReuseportShardedReceiveSmoke) {
  // Sharded receive: extra SO_REUSEPORT sockets on the same port, each
  // drained by its own thread. The kernel hashes flows across them, so
  // ordered delivery must survive regardless of which socket a peer's
  // datagrams land on.
  UdpNodeConfig cfg = fast_cfg();
  cfg.transport.rx_shards = 2;
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  EXPECT_EQ(nodes[0]->transport()->rx_shards(), 2u);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);
  for (int i = 0; i < 8; ++i) {
    nodes[i % 2]->multicast(1, bytes_of("s" + std::to_string(i)));
  }
  ASSERT_TRUE(wait_for(
      [&] {
        return logs[0].delivery_count(1) >= 8 &&
               logs[1].delivery_count(1) >= 8;
      },
      10s));
  // Total order holds across the sharded path.
  const auto a = logs[0].deliveries();
  const auto b = logs[1].deliveries();
  ASSERT_GE(a.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i].delivery.payload, b[i].delivery.payload) << "pos " << i;
  }
  for (auto& node : nodes) node->stop();
}

TEST(UdpTransport, MmsgFallbackInterop) {
  // The burst syscalls change how datagrams are moved, not what is on
  // the wire: a batched node and a per-packet-fallback node must
  // interoperate transparently.
  UdpNodeConfig mmsg_cfg = fast_cfg();
  mmsg_cfg.transport.use_mmsg = true;
  UdpNodeConfig plain_cfg = fast_cfg();
  plain_cfg.transport.use_mmsg = false;
  std::deque<EventLog> logs(2);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  nodes.push_back(
      std::make_unique<UdpNode>(0, /*port=*/0, logged(mmsg_cfg, logs[0])));
  nodes.push_back(
      std::make_unique<UdpNode>(1, /*port=*/0, logged(plain_cfg, logs[1])));
  EXPECT_FALSE(nodes[1]->transport()->mmsg_enabled());
  nodes[0]->add_peer(1, nodes[1]->port());
  nodes[1]->add_peer(0, nodes[0]->port());
  for (auto& node : nodes) node->start();
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);
  for (int i = 0; i < 6; ++i) {
    nodes[i % 2]->multicast(1, bytes_of("x" + std::to_string(i)));
  }
  ASSERT_TRUE(wait_for(
      [&] {
        return logs[0].delivery_count(1) >= 6 &&
               logs[1].delivery_count(1) >= 6;
      },
      10s));
  const auto a = logs[0].deliveries();
  const auto b = logs[1].deliveries();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a[i].delivery.payload, b[i].delivery.payload) << "pos " << i;
  }
  for (auto& node : nodes) node->stop();
}

TEST(UdpTransport, FastRetransmitViaDeadlineWakeups) {
  // Retransmissions fire at the channel's RTO deadline, not at the next
  // protocol tick: with the tick stretched to 500ms and the adaptive
  // RTO floored at 1ms, a burst of back-to-back retransmissions inside
  // 1.5s is only possible from the deadline-driven wakeup path (the
  // tick alone could produce at most 3 in that window).
  UdpNodeConfig cfg = fast_cfg();
  cfg.channel.rto_min = 1 * sim::kMillisecond;
  cfg.tick_interval = 500 * sim::kMillisecond;
  // Keep suspicion out of the picture: a view change excluding the dead
  // peer resets its channel (and the stats we assert on).
  cfg.endpoint.omega = 50 * sim::kMillisecond;
  cfg.endpoint.omega_big = 30 * sim::kSecond;
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);
  // Establish an RTT estimate (loopback: srtt ~ microseconds, so the
  // RTO clamps to rto_min).
  for (int i = 0; i < 5; ++i) {
    nodes[0]->multicast(1, bytes_of("warm" + std::to_string(i)));
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(wait_for(
      [&] { return logs[1].delivery_count(1) >= 5; }, 10s));
  ASSERT_GT(nodes[0]->transport_stats().rtt_samples, 0u);
  // Kill the peer; everything sent to it from now on is loss.
  nodes[1]->stop();
  nodes[0]->multicast(1, bytes_of("into-the-void"));
  // Backoff from a 1ms floor: rexmits at ~1,2,4,8,16,32ms... — six of
  // them inside ~65ms. A loop waking only on the 500ms tick cannot get
  // past three by the deadline below.
  ASSERT_TRUE(wait_for(
      [&] { return nodes[0]->transport_stats().retransmissions >= 6; },
      1500ms))
      << "retransmissions did not fire ahead of the protocol tick";
  nodes[0]->stop();
}

TEST(UdpTransport, ConcurrentStopIsSafe) {
  // Regression for a race the thread-safety annotation pass surfaced:
  // stop() joined loop_thread_ / shard_threads_ with no lock, so two
  // concurrent stop() calls (an explicit stop racing a destructor on
  // another thread) both reached join() on the same std::thread. The
  // handles are now guarded by join_mutex_; under TSan the old code
  // reports a data race here.
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs);
  nodes[0]->create_group(1, {0, 1});
  nodes[1]->create_group(1, {0, 1});
  std::this_thread::sleep_for(50ms);
  nodes[0]->multicast(1, bytes_of("pre-stop"));
  for (auto& node : nodes) {
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&node] { node->transport()->stop(); });
    }
    for (auto& t : stoppers) t.join();
    node->stop();  // still idempotent after the transport is down
  }
}

TEST(UdpTransport, DetachUnderLoadNeverStalls) {
  // Regression: detach waited for the loop's in_dispatch_ flag to read
  // false, but a busy loop clears it for only a few instructions before
  // re-taking the lock, so the notified waiter could lose that race
  // indefinitely and stop() hung. Here two nodes keep the shared loop
  // busy while groups of nodes are repeatedly attached, given traffic and
  // stopped; every stop must return within a bound.
  auto transport = std::make_shared<UdpTransport>(0);
  std::deque<EventLog> logs(2);
  std::vector<std::unique_ptr<UdpNode>> load;
  for (ProcessId id = 0; id < 2; ++id) {
    load.push_back(std::make_unique<UdpNode>(id, transport,
                                             logged(fast_cfg(), logs[id])));
    load.back()->add_peer(1 - id, transport->port());
  }
  for (auto& n : load) n->start();
  for (auto& n : load) n->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  std::atomic<bool> run{true};
  std::thread sender([&] {
    for (int i = 0; run.load(); ++i) {
      load[static_cast<std::size_t>(i % 2)]->multicast(
          1, bytes_of("load" + std::to_string(i)));
      std::this_thread::sleep_for(200us);
    }
  });

  constexpr int kRounds = 20;
  constexpr ProcessId kPerRound = 4;
  for (int round = 0; round < kRounds; ++round) {
    const ProcessId base = 100 + static_cast<ProcessId>(round) * kPerRound;
    std::vector<ProcessId> members;
    for (ProcessId k = 0; k < kPerRound; ++k) members.push_back(base + k);
    std::vector<std::unique_ptr<UdpNode>> churn;
    for (ProcessId id : members) {
      churn.push_back(std::make_unique<UdpNode>(id, transport, fast_cfg()));
      for (ProcessId peer : members) {
        if (peer != id) churn.back()->add_peer(peer, transport->port());
      }
    }
    for (auto& n : churn) n->start();
    for (auto& n : churn) n->create_group(2, members);
    for (auto& n : churn) n->multicast(2, bytes_of("churn"));
    std::this_thread::sleep_for(5ms);
    for (auto& n : churn) {
      bounded("stop of a churn node", 5000ms, [&n] { n->stop(); });
    }
  }
  run.store(false);
  sender.join();
  EXPECT_GT(logs[1].delivery_count(1), 0u);
  for (auto& n : load) {
    bounded("stop of a load node", 5000ms, [&n] { n->stop(); });
  }
}

// The receive-path variants the packed-slab tests run under: burst
// recvmmsg, the per-packet recvmsg fallback, and sharded receive.
struct RxMode {
  const char* name;
  bool use_mmsg;
  std::size_t rx_shards;
};

void PrintTo(const RxMode& mode, std::ostream* os) { *os << mode.name; }

class PackedReceive : public ::testing::TestWithParam<RxMode> {
 protected:
  // One datagram per multicast (max_batch 1), so datagram counts track
  // message counts.
  static UdpNodeConfig config() {
    UdpNodeConfig cfg = fast_cfg();
    cfg.channel.max_batch = 1;
    cfg.transport.use_mmsg = GetParam().use_mmsg;
    cfg.transport.rx_shards = GetParam().rx_shards;
    return cfg;
  }

  // Multicasts `count` distinct payloads (alternating senders, up to
  // ~400 bytes, lengths varying so datagram offsets in a slab vary; a
  // few thousand of them fill a slab) and waits until both nodes
  // delivered them all (per their logs). Returns the payloads sent.
  static std::vector<std::string> send_and_wait(
      std::vector<std::unique_ptr<UdpNode>>& nodes,
      const std::deque<EventLog>& logs, int first, int count) {
    std::vector<std::string> sent;
    for (int i = first; i < first + count; ++i) {
      std::string payload = std::to_string(i);
      payload.append(static_cast<std::size_t>(i % 389), 'x');
      sent.push_back(std::move(payload));
      UdpNode& sender = *nodes[static_cast<std::size_t>(i % 2)];
      sender.multicast(1, bytes_of(sent.back()));
    }
    const auto want = static_cast<std::size_t>(first + count);
    EXPECT_TRUE(wait_for(
        [&] {
          return logs[0].delivery_count(1) >= want &&
                 logs[1].delivery_count(1) >= want;
        },
        60s))
        << "not all multicasts were delivered";
    return sent;
  }
};

TEST_P(PackedReceive, RetainedPayloadsSurviveLaterTrafficAndShareSlabs) {
  // Received datagrams are packed into shared slabs: a kept payload must
  // stay byte-identical while later datagrams are written into the rest
  // of its slab, and the payloads must share a handful of slabs rather
  // than holding one buffer per datagram.
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, config());
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  constexpr int kKept = 2000;
  const std::vector<std::string> sent = send_and_wait(nodes, logs, 0, kKept);
  // The log's views keep every payload (and its slab) alive.
  const std::vector<DeliveryRecord> kept = logs[1].deliveries();
  ASSERT_EQ(kept.size(), static_cast<std::size_t>(kKept));
  std::vector<std::string> snapshot;
  for (const DeliveryRecord& r : kept) {
    snapshot.emplace_back(r.delivery.payload.begin(),
                          r.delivery.payload.end());
  }
  EXPECT_EQ(std::multiset<std::string>(snapshot.begin(), snapshot.end()),
            std::multiset<std::string>(sent.begin(), sent.end()));

  const std::uint64_t datagrams =
      nodes[1]->transport()->io_stats().rx_datagrams;
  send_and_wait(nodes, logs, kKept, 1000);  // written into the same slabs
  // Node 1's own multicasts are delivered from its send buffers; the
  // peer's arrived over the socket and are slices of receive slabs.
  std::set<const util::Bytes*> slabs;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Delivery& d = kept[i].delivery;
    EXPECT_EQ(std::string(d.payload.begin(), d.payload.end()), snapshot[i])
        << "payload " << i << " changed under later traffic";
    if (d.sender == 0) slabs.insert(d.payload.buffer().get());
  }
  EXPECT_GE(datagrams, static_cast<std::uint64_t>(kKept / 2));
  EXPECT_LT(slabs.size() * 10, datagrams)
      << slabs.size() << " backing buffers for " << datagrams << " datagrams";
  EXPECT_EQ(nodes[1]->transport()->io_stats().rx_copies, 0u);
  for (auto& node : nodes) node->stop();
}

TEST_P(PackedReceive, LargeDatagramAfterManySmallIsNotTruncated) {
  // A slot moves to a fresh slab before its tail gets shorter than a
  // full receive window, so the largest payload a node accepts,
  // arriving after thousands of small datagrams (slots well into, or
  // past, their slabs), is never cut short. A small burst makes each
  // slot fill and rotate.
  UdpNodeConfig cfg = config();
  cfg.transport.burst = 2;
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  constexpr int kSmall = 4000;
  send_and_wait(nodes, logs, 0, kSmall);
  // Node 0's datagrams are one flow, so one receive context (the loop's
  // or one shard's) took them all, into at most this many slots.
  const std::size_t slots =
      nodes[1]->transport()->mmsg_enabled() ? cfg.transport.burst : 1;
  std::set<const util::Bytes*> slabs;
  for (const DeliveryRecord& r : logs[1].deliveries()) {
    const Delivery& d = r.delivery;
    if (d.sender == 0) slabs.insert(d.payload.buffer().get());
  }
  EXPECT_GT(slabs.size(), slots) << "no receive slot moved to a fresh slab";

  util::Bytes big(kMaxUdpPayload);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  nodes[0]->multicast(1, big);
  ASSERT_TRUE(wait_for(
      [&] {
        return logs[0].delivery_count(1) > kSmall &&
               logs[1].delivery_count(1) > kSmall;
      },
      20s))
      << "large multicast was not delivered";
  for (auto& node : nodes) {
    EXPECT_EQ(logs[node->id()].deliveries().back().delivery.payload, big)
        << "node " << node->id();
    EXPECT_EQ(node->transport()->io_stats().rx_truncated, 0u);
  }
  for (auto& node : nodes) node->stop();
}

TEST_P(PackedReceive, FullBurstsAreCounted) {
  // rx_full_bursts counts the recvmmsg calls that filled every offered
  // slot, the sign that the burst depth limits a drain. Two slots under
  // thousands of back-to-back datagrams fill often; the per-packet
  // recvmsg path has no burst to fill.
  UdpNodeConfig cfg = config();
  cfg.transport.burst = 2;
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs, cfg);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  send_and_wait(nodes, logs, 0, 4000);
  for (auto& node : nodes) {
    const TransportIoStats io = node->transport()->io_stats();
    if (node->transport()->mmsg_enabled()) {
      EXPECT_GT(io.rx_full_bursts, 0u) << "node " << node->id();
      EXPECT_LE(io.rx_full_bursts * 2, io.rx_datagrams);
    } else {
      EXPECT_EQ(io.rx_full_bursts, 0u) << "node " << node->id();
    }
  }
  for (auto& node : nodes) node->stop();
}

INSTANTIATE_TEST_SUITE_P(
    RxModes, PackedReceive,
    ::testing::Values(RxMode{"mmsg", true, 0}, RxMode{"recvmsg", false, 0},
                      RxMode{"shards2", true, 2}),
    [](const ::testing::TestParamInfo<RxMode>& mode) {
      return std::string(mode.param.name);
    });

TEST(UdpTransport, NodeHoldsNoDeliveredPayload) {
  // A UdpNode hands each delivery to the sink and keeps no reference of
  // its own. Copy-out delivery, so the payload is a right-sized buffer
  // rather than a slice of a receive slab the transport is still
  // filling: once the message is stable, the sink's copy of the view is
  // the buffer's only owner.
  UdpNodeConfig cfg = fast_cfg();
  std::mutex mu;
  util::BytesView kept;  // the first 1 KB payload node 1 delivered
  auto transport = std::make_shared<UdpTransport>(0);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId id = 0; id < 3; ++id) {
    UdpNodeConfig node_cfg = cfg;
    if (id == 1) {
      node_cfg.on_event = [&](const Event& ev) {
        const auto* d = std::get_if<DeliveryEvent>(&ev);
        std::lock_guard<std::mutex> lock(mu);
        if (d != nullptr && kept.empty()) kept = d->delivery.payload;
      };
    }
    nodes.push_back(std::make_unique<UdpNode>(id, transport, node_cfg));
  }
  for (auto& n : nodes) {
    for (auto& peer : nodes) {
      if (peer->id() != n->id()) n->add_peer(peer->id(), transport->port());
    }
  }
  for (auto& n : nodes) n->start();
  GroupOptions opts;
  opts.delivery = DeliveryMode::kPooledCopy;
  for (auto& n : nodes) n->create_group(1, {0, 1, 2}, opts);
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  nodes[0]->multicast(1, util::Bytes(1024, std::uint8_t{0xab}));

  auto sole_owner = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return kept.size() == 1024 && kept.buffer().use_count() == 1;
  };
  EXPECT_TRUE(wait_for(sole_owner, 3s))
      << "something besides the application holds the delivered payload";
  for (auto& n : nodes) n->stop();
}

TEST(UdpTransport, HeaderAllowanceCoversLargestWireHeaders) {
  // kMaxUdpPayload leaves kWireHeaderAllowance bytes for what the wire
  // encoders wrap around an application payload on its way out. Encode
  // every stack a payload travels in, every varint at its widest, and
  // check the datagram still fits.
  constexpr std::uint64_t kWide = ~std::uint64_t{0};
  constexpr std::uint32_t kWide32 = ~std::uint32_t{0};
  const util::Bytes app(kMaxUdpPayload, std::uint8_t{0x5a});
  auto shared = [](util::Bytes b) {
    return util::BytesView(util::share(std::move(b)));
  };
  auto channel = [](util::BytesView inner) {
    ChannelDataFrame f;
    f.seq = kWide;
    f.cum_ack = kWide;
    f.timing = TimingStamp{kWide, true};
    f.echo = TimingStamp{kWide, false};
    f.payload = std::move(inner);
    return f.encode();
  };
  OrderedMsg m;  // a direct multicast, sequencer echo or relayed content
  m.group = kWide32;
  m.sender = kWide32;
  m.emitter = kWide32;
  m.counter = kWide;
  m.origin_counter = kWide;
  m.ldn = kWide;
  m.payload = shared(app);
  const util::Bytes ordered = m.encode();
  FwdMsg fwd;  // asymmetric origin -> sequencer
  fwd.group = kWide32;
  fwd.origin = kWide32;
  fwd.origin_counter = kWide;
  fwd.payload = shared(app);
  RelayFrame relay;  // tree or ring overlay hop
  relay.group = kWide32;
  relay.origin = kWide32;
  relay.seq = kWide;
  relay.payload = shared(ordered);
  for (const util::Bytes& datagram :
       {channel(shared(ordered)), channel(shared(fwd.encode())),
        channel(shared(relay.encode()))}) {
    EXPECT_LE(datagram.size() - app.size(), kWireHeaderAllowance);
    EXPECT_LE(kUdpEnvelopeSize + datagram.size(), kMaxUdpDatagram);
  }
  // A relay batch stops growing at Router::kMaxRelayBatchBytes (payloads
  // plus their length prefixes); its frame head and channel header must
  // fit on top of that as well.
  const std::size_t head = BatchFrame::encoded_size_bound({});
  const std::size_t channel_header = channel(shared(app)).size() - app.size();
  EXPECT_LE(kUdpEnvelopeSize + channel_header + head +
                Router::kMaxRelayBatchBytes,
            kMaxUdpDatagram);
}

TEST(UdpTransport, OversizedMulticastIsRejected) {
  // A payload that cannot fit in one datagram is refused before the
  // engine sees it: the sender does not deliver it to itself, nothing
  // reaches the socket, and the group carries on in its view.
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  const std::size_t views = logs[0].views().size();
  EXPECT_EQ(nodes[0]->group(1).multicast(util::Bytes(70000)),
            SendResult::kTooLarge);
  std::promise<SendResult> verdict;
  nodes[0]->multicast(1, util::Bytes(kMaxUdpPayload + 1),
                      [&](SendResult r) { verdict.set_value(r); });
  EXPECT_EQ(verdict.get_future().get(), SendResult::kTooLarge);
  EXPECT_EQ(nodes[0]->send_counts().too_large, 2u);

  // The group still works, and the rejected payloads never show up.
  nodes[0]->multicast(1, bytes_of("after"));
  ASSERT_TRUE(wait_for(
      [&] {
        return logs[0].delivery_count(1) >= 1 &&
               logs[1].delivery_count(1) >= 1;
      },
      5s));
  std::this_thread::sleep_for(500ms);  // several suspicion periods
  for (auto& node : nodes) {
    const EventLog& log = logs[node->id()];
    EXPECT_EQ(log.delivered_strings(1), std::vector<std::string>{"after"})
        << "node " << node->id();
    EXPECT_EQ(log.views().size(), views) << "node " << node->id();
    EXPECT_EQ(node->transport()->io_stats().tx_dropped, 0u);
  }
  for (auto& node : nodes) node->stop();
}

// The largest accepted payload crosses every dissemination: direct
// symmetric fan-out, the asymmetric forward and sequencer echo, and a
// tree overlay whose relays forward it (and batch their other forwards
// around it) with six members.
struct Dissemination {
  const char* name;
  OrderMode mode;
  DisseminationStrategy strategy;
};

void PrintTo(const Dissemination& d, std::ostream* os) { *os << d.name; }

class LargestPayload : public ::testing::TestWithParam<Dissemination> {};

TEST_P(LargestPayload, DeliveredEverywhere) {
  constexpr std::size_t kNodes = 6;
  std::deque<EventLog> logs;
  auto nodes = make_mesh(kNodes, logs);
  GroupOptions opts;
  opts.mode = GetParam().mode;
  opts.dissemination = GetParam().strategy;
  opts.relay_arity = 4;
  std::vector<ProcessId> members;
  for (ProcessId p = 0; p < kNodes; ++p) members.push_back(p);
  for (auto& node : nodes) node->create_group(1, members, opts);
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  const std::size_t views = logs[0].views().size();

  // Two large payloads from different senders amid small traffic, so
  // relays see large and small forwards in the same iteration.
  std::vector<util::Bytes> big;
  for (std::uint8_t k = 0; k < 2; ++k) {
    util::Bytes b(kMaxUdpPayload);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(i * 31 + k);
    }
    big.push_back(std::move(b));
  }
  constexpr std::size_t kSmall = 40;
  for (std::size_t i = 0; i < kSmall; ++i) {
    nodes[i % kNodes]->multicast(1, bytes_of("s" + std::to_string(i)));
    if (i == kSmall / 4) nodes[1]->multicast(1, big[0]);
    if (i == kSmall / 2) nodes[4]->multicast(1, big[1]);
  }
  const std::size_t want = kSmall + big.size();
  ASSERT_TRUE(wait_for(
      [&] {
        for (const EventLog& log : logs) {
          if (log.delivery_count(1) < want) return false;
        }
        return true;
      },
      20s))
      << "not every member delivered every message";
  for (auto& node : nodes) {
    const EventLog& log = logs[node->id()];
    std::size_t large = 0;
    for (const DeliveryRecord& r : log.deliveries()) {
      const util::BytesView& p = r.delivery.payload;
      if (p.size() != kMaxUdpPayload) continue;
      EXPECT_TRUE(p == big[0] || p == big[1]) << "node " << node->id();
      ++large;
    }
    EXPECT_EQ(large, big.size()) << "node " << node->id();
    EXPECT_EQ(log.delivered_strings(1), logs[0].delivered_strings(1));
    EXPECT_EQ(log.views().size(), views) << "node " << node->id();
    const TransportIoStats io = node->transport()->io_stats();
    EXPECT_EQ(io.rx_truncated, 0u);
    EXPECT_EQ(io.tx_dropped, 0u);
  }
  if (opts.dissemination == DisseminationStrategy::kTree) {
    std::uint64_t forwarded = 0;
    for (auto& node : nodes) {
      forwarded += node->endpoint_stats().relays_forwarded;
    }
    EXPECT_GT(forwarded, 0u) << "no member relayed";
  }
  for (auto& node : nodes) node->stop();
}

INSTANTIATE_TEST_SUITE_P(
    Disseminations, LargestPayload,
    ::testing::Values(
        Dissemination{"symmetric", OrderMode::kSymmetric,
                      DisseminationStrategy::kFullMesh},
        Dissemination{"asymmetric", OrderMode::kAsymmetric,
                      DisseminationStrategy::kFullMesh},
        Dissemination{"tree4", OrderMode::kSymmetric,
                      DisseminationStrategy::kTree}),
    [](const ::testing::TestParamInfo<Dissemination>& d) {
      return std::string(d.param.name);
    });

TEST(UdpTransport, EventLogReadWhileLoopThreadRecords) {
  // An EventLog attached to a UdpNode is written on the transport's loop
  // thread while the application reads it from its own; the TSan leg
  // runs this file, so every snapshot below races a record for real.
  std::deque<EventLog> logs;
  auto nodes = make_mesh(2, logs);
  for (auto& node : nodes) node->create_group(1, {0, 1});
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)
  constexpr std::size_t kMessages = 200;
  std::thread sender([&] {
    for (std::size_t i = 0; i < kMessages; ++i) {
      nodes[i % 2]->multicast(1, bytes_of("m" + std::to_string(i)));
      std::this_thread::sleep_for(200us);
    }
  });
  // Counts and snapshots only grow, and a snapshot taken after a count
  // holds at least that many deliveries.
  std::size_t last = 0;
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (last < kMessages && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = logs[1].delivery_count(1);
    EXPECT_GE(n, last);
    EXPECT_GE(logs[1].deliveries().size(), n);
    EXPECT_GE(logs[1].delivered_strings(1).size(), n);
    last = n;
    std::this_thread::yield();
  }
  sender.join();
  ASSERT_EQ(last, kMessages) << "not all multicasts were delivered";
  ASSERT_TRUE(
      wait_for([&] { return logs[0].delivery_count(1) == kMessages; }, 10s));
  EXPECT_EQ(logs[0].delivered_strings(1), logs[1].delivered_strings(1));
  for (auto& node : nodes) node->stop();
}

TEST(UdpTransport, DynamicFormationOverLoopback) {
  std::deque<EventLog> logs;
  auto nodes = make_mesh(3, logs);
  nodes[0]->initiate_group(5, {0, 1, 2});
  std::this_thread::sleep_for(300ms);
  nodes[1]->multicast(5, bytes_of("over udp"));
  ASSERT_TRUE(wait_for(
      [&] {
        for (auto& node : nodes) {
          if (logs[node->id()].delivery_count(5) < 1) return false;
        }
        return true;
      },
      10s));
  for (auto& node : nodes) node->stop();
}

TEST(UdpTransport, JoinLiveGroupOverLoopback) {
  // A fourth process joins a running group over real sockets while the
  // incumbents keep multicasting: an incumbent streams a snapshot as of
  // the cutover stamp and the joiner installs it before any later
  // delivery. A replica's state is the concatenation of its delivered
  // payloads, so a byte-identical state at the joiner proves both the
  // transfer and its agreement on the total order.
  constexpr ProcessId kJoiner = 3;
  struct Replica {
    std::mutex mu;
    std::string state;
  };
  std::array<Replica, 4> replicas;
  std::atomic<bool> caught_up{false};
  std::atomic<int> joins_seen{0};
  auto transport = std::make_shared<UdpTransport>(0);
  std::deque<EventLog> logs(4);
  std::vector<std::unique_ptr<UdpNode>> nodes;
  for (ProcessId id = 0; id < 4; ++id) {
    UdpNodeConfig cfg = fast_cfg();
    cfg.on_event = [&, id](const Event& ev) {
      if (const auto* d = std::get_if<DeliveryEvent>(&ev)) {
        std::lock_guard<std::mutex> lock(replicas[id].mu);
        replicas[id].state += '|';
        replicas[id].state.append(d->delivery.payload.begin(),
                                  d->delivery.payload.end());
      } else if (const auto* st = std::get_if<StateTransferEvent>(&ev)) {
        if (st->phase == StateTransferEvent::Phase::kCaughtUp) {
          caught_up.store(true);
        }
      } else if (const auto* mj = std::get_if<MemberJoinedEvent>(&ev)) {
        if (id != kJoiner && mj->member == kJoiner) ++joins_seen;
      }
    };
    nodes.push_back(
        std::make_unique<UdpNode>(id, transport, logged(cfg, logs[id])));
  }
  for (auto& n : nodes) {
    for (auto& peer : nodes) {
      if (peer->id() != n->id()) n->add_peer(peer->id(), transport->port());
    }
  }
  for (auto& n : nodes) n->start();
  auto options_for = [&replicas](ProcessId p) {
    GroupOptions o;
    o.snapshot_provider = [&replicas, p](GroupId) {
      std::lock_guard<std::mutex> lock(replicas[p].mu);
      return std::vector<std::uint8_t>(replicas[p].state.begin(),
                                       replicas[p].state.end());
    };
    o.snapshot_installer = [&replicas, p](GroupId,
                                          const std::vector<std::uint8_t>& b) {
      std::lock_guard<std::mutex> lock(replicas[p].mu);
      replicas[p].state.assign(b.begin(), b.end());
    };
    return o;
  };
  for (ProcessId p = 0; p < kJoiner; ++p) {
    nodes[p]->create_group(1, {0, 1, 2}, options_for(p));
  }
  std::this_thread::sleep_for(100ms);  // bootstrap settle (see above)

  std::atomic<bool> run{true};
  std::thread sender([&] {
    for (int i = 0; run.load(); ++i) {
      nodes[static_cast<std::size_t>(i % 3)]->multicast(
          1, bytes_of("m" + std::to_string(i)));
      std::this_thread::sleep_for(2ms);
    }
  });
  std::this_thread::sleep_for(50ms);  // history before the join
  JoinOptions jo;
  jo.contacts = {0, 1, 2};
  jo.options = options_for(kJoiner);
  bool requested = false;
  bounded("join request", 5000ms, [&] {
    requested = nodes[kJoiner]->group(1).join(jo);
  });
  const bool joined = requested && wait_for(
                                       [&] {
                                         return caught_up.load() &&
                                                joins_seen.load() == 3;
                                       },
                                       15s);
  std::this_thread::sleep_for(50ms);  // live traffic after the cutover
  run.store(false);
  sender.join();
  ASSERT_TRUE(requested) << "join request could not be sent";
  ASSERT_TRUE(joined) << "joiner never caught up at every member";

  // Fence through the joiner itself, then wait for every replica to hold
  // the same state (messages ordered after the fence settle too).
  SendResult fence = SendResult::kNotMember;
  bounded("fence multicast", 5000ms, [&] {
    fence = nodes[kJoiner]->group(1).multicast(bytes_of("fence"));
  });
  ASSERT_TRUE(send_accepted(fence));
  auto state_of = [&replicas](ProcessId p) {
    std::lock_guard<std::mutex> lock(replicas[p].mu);
    return replicas[p].state;
  };
  EXPECT_TRUE(wait_for(
      [&] {
        const std::string ref = state_of(0);
        if (ref.find("|fence") == std::string::npos) return false;
        for (ProcessId p = 1; p < 4; ++p) {
          if (state_of(p) != ref) return false;
        }
        return true;
      },
      15s))
      << "joiner state diverged from the incumbents";

  // The joiner's own delivery sequence is a proper suffix of an
  // incumbent's: it delivered only what followed the cutover, and the
  // snapshot carried the rest.
  const auto d0 = logs[0].delivered_strings(1);
  const auto dj = logs[kJoiner].delivered_strings(1);
  ASSERT_FALSE(dj.empty());
  EXPECT_EQ(dj.back(), "fence");
  ASSERT_LT(dj.size(), d0.size());
  EXPECT_TRUE(std::equal(dj.rbegin(), dj.rend(), d0.rbegin()));
  for (auto& n : nodes) {
    bounded("stop of a join node", 5000ms, [&n] { n->stop(); });
  }
}

}  // namespace
}  // namespace newtop::transport
