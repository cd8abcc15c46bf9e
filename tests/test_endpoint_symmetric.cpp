// Integration tests of the symmetric total-order protocol (§4.1) in a
// failure-free static world: logical clock rules, delivery conditions
// safe1'/safe2, time-silence liveness, and the multi-group guarantees
// MD4/MD4'/MD5.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig small_world(std::size_t n, std::uint64_t seed = 1) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 8 * kMillisecond);
  return cfg;
}

// All processes must deliver the same sequence of payloads in a group.
void expect_identical_delivery(LoggedWorld& w, GroupId g,
                               const std::vector<ProcessId>& members,
                               std::size_t expect_count) {
  const auto ref = w.log(members[0]).delivered_strings(g);
  EXPECT_EQ(ref.size(), expect_count)
      << "P" << members[0] << " delivered wrong count";
  for (ProcessId p : members) {
    EXPECT_EQ(w.log(p).delivered_strings(g), ref)
        << "P" << p << " diverges from P" << members[0];
  }
}

TEST(Symmetric, SingleMessageDeliversEverywhere) {
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "hello");
  w.run_for(kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2}, 1);
}

TEST(Symmetric, SenderDeliversOwnMessage) {
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "mine");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(1),
            std::vector<std::string>{"mine"});
  EXPECT_EQ(w.log(0).deliveries()[0].delivery.sender, 0u);
}

TEST(Symmetric, TotalOrderManySendersIdenticalEverywhere) {
  LoggedWorld w(small_world(5));
  w.create_group(1, {0, 1, 2, 3, 4});
  for (int round = 0; round < 10; ++round) {
    for (ProcessId p = 0; p < 5; ++p) {
      w.multicast(p, 1, "r" + std::to_string(round) + "p" +
                            std::to_string(p));
      w.run_for(2 * kMillisecond);
    }
  }
  w.run_for(3 * kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2, 3, 4}, 50);
}

TEST(Symmetric, DeliveryRequiresTimeSilenceFromQuietMembers) {
  // With only one sender, messages become deliverable only after the
  // silent members' null messages raise D — the protocol's liveness
  // depends on time-silence (§4.1).
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "solo");
  // Before omega elapses, nothing can be delivered (D still 0).
  w.run_for(5 * kMillisecond);
  EXPECT_TRUE(w.log(1).delivered_strings(1).empty());
  w.run_for(kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2}, 1);
  EXPECT_GT(w.ep(0).stats().nulls_sent, 0u);
}

TEST(Symmetric, FifoOrderPerSenderPreserved) {
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  for (int i = 0; i < 20; ++i) w.multicast(0, 1, "s" + std::to_string(i));
  w.run_for(2 * kSecond);
  const auto got = w.log(2).delivered_strings(1);
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], "s" + std::to_string(i));
}

TEST(Symmetric, CausalOrderAcrossSenders) {
  // P0 multicasts a; P1 delivers a then multicasts b: a -> b must hold in
  // every delivery order (MD4 second clause).
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "a");
  ASSERT_TRUE(w.run_until_pred(
      [&] { return !w.log(1).delivered_strings(1).empty(); },
      5 * kSecond));
  w.multicast(1, 1, "b");
  w.run_for(2 * kSecond);
  for (ProcessId p : {0u, 1u, 2u}) {
    const auto got = w.log(p).delivered_strings(1);
    ASSERT_EQ(got.size(), 2u) << "P" << p;
    EXPECT_EQ(got[0], "a");
    EXPECT_EQ(got[1], "b");
  }
}

TEST(Symmetric, CountersStrictlyIncreasePerSender) {
  // pr1: send_i(m) -> send_i(m') => m.c < m'.c — visible in delivery
  // records.
  LoggedWorld w(small_world(2));
  w.create_group(1, {0, 1});
  for (int i = 0; i < 5; ++i) w.multicast(0, 1, "x");
  w.run_for(kSecond);
  const auto dels = w.log(1).deliveries();
  Counter prev = 0;
  int from0 = 0;
  for (const auto& r : dels) {
    if (r.delivery.sender == 0) {
      EXPECT_GT(r.delivery.counter, prev);
      prev = r.delivery.counter;
      ++from0;
    }
  }
  EXPECT_EQ(from0, 5);
}

TEST(Symmetric, MultiGroupMemberTotallyOrdersAcrossGroups) {
  // MD4': P1 and P2 are both in g1 and g2; messages of both groups must
  // interleave identically at both.
  LoggedWorld w(small_world(4));
  w.create_group(1, {0, 1, 2});
  w.create_group(2, {1, 2, 3});
  for (int i = 0; i < 8; ++i) {
    w.multicast(0, 1, "g1#" + std::to_string(i));
    w.multicast(3, 2, "g2#" + std::to_string(i));
    w.run_for(3 * kMillisecond);
  }
  w.run_for(3 * kSecond);
  // Common members P1, P2 see one merged total order.
  auto merged = [&](ProcessId p) {
    std::vector<std::string> out;
    for (const auto& r : w.log(p).deliveries()) {
      out.push_back(simhost::to_string(r.delivery.payload));
    }
    return out;
  };
  const auto m1 = merged(1);
  const auto m2 = merged(2);
  EXPECT_EQ(m1.size(), 16u);
  EXPECT_EQ(m1, m2);
}

TEST(Symmetric, CrossGroupCausalityMD5Prime) {
  // m1 in g1 (P0 -> P1), then P1 sends m2 in g2; P2 in g2 must deliver m2
  // after... and since P2 is also in g1, m1 must precede m2 at P2 (MD4').
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.create_group(2, {1, 2});
  w.multicast(0, 1, "m1");
  ASSERT_TRUE(w.run_until_pred(
      [&] { return !w.log(1).delivered_strings(1).empty(); },
      5 * kSecond));
  w.multicast(1, 2, "m2");
  w.run_for(2 * kSecond);
  const auto dels = w.log(2).deliveries();
  std::size_t i1 = SIZE_MAX, i2 = SIZE_MAX;
  for (std::size_t i = 0; i < dels.size(); ++i) {
    const auto s = simhost::to_string(dels[i].delivery.payload);
    if (s == "m1") i1 = i;
    if (s == "m2") i2 = i;
  }
  ASSERT_NE(i1, SIZE_MAX);
  ASSERT_NE(i2, SIZE_MAX);
  EXPECT_LT(i1, i2) << "causally later message delivered first";
}

TEST(Symmetric, TieBreakIsDeterministicAcrossProcesses) {
  // Simultaneous multicasts from distinct senders often carry the same
  // counter; safe2's fixed tie-break must produce identical orders.
  LoggedWorld w(small_world(4, /*seed=*/99));
  w.create_group(1, {0, 1, 2, 3});
  for (int round = 0; round < 15; ++round) {
    for (ProcessId p = 0; p < 4; ++p) {
      w.multicast(p, 1, "r" + std::to_string(round) + "p" +
                            std::to_string(p));
    }
    w.run_for(1 * kMillisecond);
  }
  w.run_for(3 * kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2, 3}, 60);
}

TEST(Symmetric, PayloadIntegrity) {
  LoggedWorld w(small_world(2));
  w.create_group(1, {0, 1});
  util::Bytes binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<uint8_t>(i));
  w.ep(0).multicast(1, binary, w.now());
  w.run_for(kSecond);
  ASSERT_EQ(w.log(1).deliveries().size(), 1u);
  EXPECT_EQ(w.log(1).deliveries()[0].delivery.payload, binary);
}

TEST(Symmetric, NullsAreNotDeliveredToApplication) {
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  w.run_for(2 * kSecond);  // plenty of time-silence traffic
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(w.log(p).deliveries().empty());
  }
  EXPECT_GT(w.ep(0).stats().nulls_sent, 5u);
}

TEST(Symmetric, MulticastToUnknownGroupReportsNotMember) {
  SimWorld w(small_world(2));
  EXPECT_EQ(w.multicast(0, 42, "nope"), SendResult::kNotMember);
}

TEST(Symmetric, BackpressureOverSimWorldDrainsAndSignalsWindow) {
  // A zero-time flood through the GroupHandle facade: the flow window
  // parks sends, max_pending_sends bounds the parking, the overflow is
  // rejected as kBackpressure — and once the backlog drains, the host's
  // event log shows the SendWindowEvent and every *accepted* message
  // still delivers identically everywhere.
  WorldConfig cfg = small_world(3);
  cfg.host.endpoint.flow_window = 4;
  cfg.host.endpoint.max_pending_sends = 8;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2});

  GroupHandle h = w.group(0, 1);
  SendCounts counts;
  for (int i = 0; i < 100; ++i) {
    counts.note(h.multicast(simhost::to_bytes("f" + std::to_string(i))));
  }
  EXPECT_GT(counts.accepted(), 0u);
  EXPECT_GT(counts.backpressure, 0u);
  EXPECT_EQ(counts.total(), 100u);
  // The cap bounds the local backlog at the moment of the flood.
  EXPECT_LE(w.ep(0).queued_sends(), 8u);

  w.run_for(3 * kSecond);
  EXPECT_GE(w.log(0).send_windows().size(), 1u);
  EXPECT_EQ(w.log(0).send_windows()[0].event.group, 1u);
  expect_identical_delivery(w, 1, {0, 1, 2},
                            static_cast<std::size_t>(counts.accepted()));
  EXPECT_EQ(w.ep(0).stats().sends_rejected, counts.backpressure);
}

TEST(Symmetric, StabilityBoundsRetention) {
  // With everyone lively, stability advances and retained buffers stay
  // bounded (§5.1) instead of growing with traffic volume.
  SimWorld w(small_world(3));
  w.create_group(1, {0, 1, 2});
  for (int i = 0; i < 50; ++i) {
    w.multicast(0, 1, "m" + std::to_string(i));
    w.run_for(10 * kMillisecond);
  }
  w.run_for(2 * kSecond);
  EXPECT_LT(w.ep(1).retained_messages(1), 50u);
}

TEST(Symmetric, AtomicOnlyDeliversWithoutOrderingDelay) {
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  LoggedWorld w(small_world(3));
  w.create_group(1, {0, 1, 2}, opts);
  w.multicast(0, 1, "fast");
  // Atomic delivery happens on receipt — no need to wait for nulls.
  w.run_for(20 * kMillisecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"fast"});
}

TEST(Symmetric, GlobalDiIsMinOverGroups) {
  SimWorld w(small_world(3));
  w.create_group(1, {0, 1});
  w.create_group(2, {0, 2});
  w.run_for(kSecond);
  const Counter d1 = w.ep(0).group_d(1);
  const Counter d2 = w.ep(0).group_d(2);
  EXPECT_EQ(w.ep(0).global_d(), std::min(d1, d2));
}

}  // namespace
}  // namespace newtop
