// Focused unit tests of core components: logical clock rules CA1/CA2 and
// properties pr1/pr2, views and signature views, endpoint-level edge cases
// (invitation veto hook, flow control, self-delivery, config checks).
#include <gtest/gtest.h>

#include <vector>

#include "core/endpoint.h"
#include "core/lamport.h"
#include "core/sim_host.h"
#include "core/types.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

TEST(LamportClock, CA1IncrementsBeforeSend) {
  LamportClock lc;
  EXPECT_EQ(lc.stamp_send(), 1u);
  EXPECT_EQ(lc.stamp_send(), 2u);
  EXPECT_EQ(lc.value(), 2u);
}

TEST(LamportClock, CA2TakesMax) {
  LamportClock lc;
  lc.observe(10);
  EXPECT_EQ(lc.value(), 10u);
  lc.observe(5);  // smaller: no change
  EXPECT_EQ(lc.value(), 10u);
  EXPECT_EQ(lc.stamp_send(), 11u);  // pr2: deliveries precede later sends
}

TEST(LamportClock, Pr1SendNumbersStrictlyIncrease) {
  LamportClock lc;
  Counter prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Counter c = lc.stamp_send();
    EXPECT_GT(c, prev);
    prev = c;
    if (i % 7 == 0) lc.observe(c + 3);  // interleave receives
  }
}

TEST(LamportClock, RaiseToForFormation) {
  LamportClock lc;
  lc.raise_to(100);
  EXPECT_EQ(lc.stamp_send(), 101u);
}

TEST(View, ContainsAndSize) {
  View v;
  v.members = {1, 3, 5};
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(2));
  EXPECT_EQ(v.size(), 3u);
}

TEST(View, ToStringFormat) {
  View v;
  v.seq = 2;
  v.members = {0, 4};
  EXPECT_EQ(to_string(v), "V2{P0,P4}");
}

TEST(SignatureView, IntersectionSemantics) {
  SignatureView a, b, c;
  a.signatures = {{1, 0}, {2, 0}};
  b.signatures = {{2, 0}, {3, 0}};  // shares (2, 0)
  c.signatures = {{2, 1}, {3, 1}};  // same pids, different epoch
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
}

// --- Endpoint-level units over the sim harness -----------------------

WorldConfig tiny(std::size_t n, std::uint64_t seed = 8) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  return cfg;
}

TEST(EndpointUnit, AcceptInviteHookCanVeto) {
  // Build a bare endpoint whose accept_invite always says no, wired
  // back-to-back with an initiator.
  std::vector<std::pair<ProcessId, util::Bytes>> wire0, wire1;
  std::vector<FormationOutcome> outcomes0;
  EndpointHooks h0;
  h0.send = [&](ProcessId to, util::SharedBytes b) {
    wire0.emplace_back(to, *b);
  };
  h0.on_event = [&](const Event& ev) {
    if (const auto* f = std::get_if<FormationEvent>(&ev))
      outcomes0.push_back(f->outcome);
  };
  Endpoint e0(0, {}, std::move(h0));

  EndpointHooks h1;
  h1.send = [&](ProcessId to, util::SharedBytes b) {
    wire1.emplace_back(to, *b);
  };
  h1.accept_invite = [](const FormInviteMsg&) { return false; };  // veto
  std::vector<FormationOutcome> outcomes1;
  h1.on_event = [&](const Event& ev) {
    if (const auto* f = std::get_if<FormationEvent>(&ev))
      outcomes1.push_back(f->outcome);
  };
  Endpoint e1(1, {}, std::move(h1));

  e0.initiate_group(7, {0, 1}, {}, 0);
  // Deliver the invite to P1; it votes no and aborts locally.
  ASSERT_EQ(wire0.size(), 1u);
  e1.on_message(0, wire0[0].second, 1);
  ASSERT_EQ(outcomes1.size(), 1u);
  EXPECT_EQ(outcomes1[0], FormationOutcome::kVetoed);
  EXPECT_FALSE(e1.is_member(7));
  // Deliver P1's no to P0: the veto propagates.
  ASSERT_FALSE(wire1.empty());
  for (const auto& [to, data] : wire1) {
    if (to == 0) e0.on_message(1, data, 2);
  }
  ASSERT_EQ(outcomes0.size(), 1u);
  EXPECT_EQ(outcomes0[0], FormationOutcome::kVetoed);
  EXPECT_FALSE(e0.is_member(7));
}

TEST(EndpointUnit, FlowControlQueuesWhenWindowFull) {
  WorldConfig cfg = tiny(3);
  cfg.host.endpoint.flow_window = 4;
  // Slow everything down so nothing stabilises during the burst.
  cfg.network.latency = sim::LatencyModel::constant(50 * kMillisecond);
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2});
  for (int i = 0; i < 20; ++i) w.multicast(0, 1, "b" + std::to_string(i));
  // Only the window's worth goes out immediately; the rest queue.
  EXPECT_GT(w.ep(0).queued_sends(), 0u);
  EXPECT_LE(w.ep(0).own_unstable(1), 4u);
  EXPECT_GT(w.ep(0).stats().sends_flow_blocked, 0u);
  // Everything still delivers eventually, in order.
  w.run_for(30 * kSecond);
  EXPECT_EQ(w.ep(0).queued_sends(), 0u);
  const auto got = w.log(2).delivered_strings(1);
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], "b" + std::to_string(i));
}

TEST(EndpointUnit, FlowControlDisabledWithZeroWindow) {
  WorldConfig cfg = tiny(2);
  cfg.host.endpoint.flow_window = 0;
  cfg.network.latency = sim::LatencyModel::constant(50 * kMillisecond);
  SimWorld w(cfg);
  w.create_group(1, {0, 1});
  for (int i = 0; i < 50; ++i) w.multicast(0, 1, "x");
  EXPECT_EQ(w.ep(0).queued_sends(), 0u);  // nothing held back
}

TEST(EndpointUnit, LeaveIsIdempotentAndSafe) {
  SimWorld w(tiny(2));
  w.create_group(1, {0, 1});
  w.ep(0).leave_group(1, w.now());
  w.ep(0).leave_group(1, w.now());  // no-op
  EXPECT_FALSE(w.ep(0).is_member(1));
  // Multicast to the departed group fails cleanly.
  EXPECT_EQ(w.multicast(0, 1, "ghost"), SendResult::kNotMember);
}

TEST(EndpointUnit, MessagesForUnknownGroupIgnored) {
  LoggedWorld w(tiny(2));
  w.create_group(1, {0, 1});
  // Hand-deliver a message for a group P1 doesn't know.
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 99;
  m.sender = m.emitter = 0;
  m.counter = 1;
  w.ep(1).on_message(0, m.encode(), w.now());
  EXPECT_TRUE(w.log(1).deliveries().empty());
}

TEST(EndpointUnit, MalformedMessageIgnored) {
  LoggedWorld w(tiny(2));
  w.create_group(1, {0, 1});
  w.ep(1).on_message(0, util::Bytes{0x01, 0xFF}, w.now());  // truncated App
  w.ep(1).on_message(0, util::Bytes{}, w.now());
  w.ep(1).on_message(0, util::Bytes{0x63}, w.now());  // unknown type
  w.multicast(0, 1, "still fine");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"still fine"});
}

TEST(EndpointUnit, GroupIdsListsOnlyLiveGroups) {
  SimWorld w(tiny(2));
  w.create_group(1, {0, 1});
  w.create_group(2, {0, 1});
  EXPECT_EQ(w.ep(0).group_ids(), (std::vector<GroupId>{1, 2}));
  w.ep(0).leave_group(1, w.now());
  EXPECT_EQ(w.ep(0).group_ids(), (std::vector<GroupId>{2}));
}

TEST(EndpointUnit, DeliveryRecordsCarryViewSeq) {
  LoggedWorld w(tiny(3, /*seed=*/15));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "v0 msg");
  w.run_for(kSecond);
  ASSERT_FALSE(w.log(1).deliveries().empty());
  EXPECT_EQ(w.log(1).deliveries()[0].delivery.view_seq, 0u);
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(0).view(1);
        return v && v->seq == 1;
      },
      w.now() + 10 * kSecond));
  w.multicast(0, 1, "v1 msg");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).deliveries().back().delivery.view_seq, 1u);
}

TEST(EndpointUnit, SelfMulticastInSingletonGroup) {
  LoggedWorld w(tiny(1));
  w.create_group(1, {0});
  w.multicast(0, 1, "alone");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(1),
            std::vector<std::string>{"alone"});
}

TEST(EndpointUnit, StatsTrackNullsAndDeliveries) {
  SimWorld w(tiny(2));
  w.create_group(1, {0, 1});
  w.multicast(0, 1, "x");
  w.run_for(2 * kSecond);
  const auto& st = w.ep(0).stats();
  EXPECT_EQ(st.app_multicasts, 1u);
  EXPECT_GT(st.nulls_sent, 0u);
  EXPECT_EQ(st.deliveries, 1u);
}

TEST(EndpointUnit, LargeGroupStillOrdersCorrectly) {
  WorldConfig cfg = tiny(16, /*seed=*/21);
  LoggedWorld w(cfg);
  std::vector<ProcessId> members;
  for (ProcessId p = 0; p < 16; ++p) members.push_back(p);
  w.create_group(1, members);
  for (int i = 0; i < 4; ++i) {
    w.multicast(static_cast<ProcessId>(i * 5 % 16), 1,
                "m" + std::to_string(i));
  }
  w.run_for(5 * kSecond);
  const auto ref = w.log(0).delivered_strings(1);
  EXPECT_EQ(ref.size(), 4u);
  for (ProcessId p = 1; p < 16; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1), ref) << "P" << p;
  }
}

}  // namespace
}  // namespace newtop
