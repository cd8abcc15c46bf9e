// Tests of the asymmetric (sequencer) total-order protocol (§4.2), the
// generic mixed-mode version (§4.3) with its blocking rules, and the
// sequencer-failover extension described in DESIGN.md.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 5) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 6 * kMillisecond);
  return cfg;
}

GroupOptions asym() {
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  return o;
}

void expect_identical_delivery(LoggedWorld& w, GroupId g,
                               const std::vector<ProcessId>& members,
                               std::size_t expect_count) {
  const auto ref = w.log(members[0]).delivered_strings(g);
  EXPECT_EQ(ref.size(), expect_count);
  for (ProcessId p : members) {
    EXPECT_EQ(w.log(p).delivered_strings(g), ref) << "P" << p;
  }
}

TEST(Asymmetric, SequencerIsLowestMember) {
  SimWorld w(world_cfg(3));
  w.create_group(1, {2, 0, 1}, asym());
  EXPECT_EQ(w.ep(0).sequencer_of(1), 0u);
  EXPECT_EQ(w.ep(2).sequencer_of(1), 0u);
}

TEST(Asymmetric, BasicTotalOrder) {
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1, 2, 3}, asym());
  for (int i = 0; i < 10; ++i) {
    w.multicast(1 + (i % 3), 1, "m" + std::to_string(i));
    w.run_for(2 * kMillisecond);
  }
  w.run_for(2 * kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2, 3}, 10);
}

TEST(Asymmetric, SequencerOwnSendsWork) {
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, asym());
  w.multicast(0, 1, "from sequencer");  // P0 is the sequencer
  w.run_for(kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2}, 1);
  EXPECT_EQ(w.log(1).deliveries()[0].delivery.sender, 0u);
}

TEST(Asymmetric, DeliveryWithoutWaitingForAllMembers) {
  // The asymmetric advantage: delivery needs only the sequencer's stream,
  // not nulls from every member. A message should deliver in ~2 hops even
  // though other members never speak.
  LoggedWorld w(world_cfg(5));
  w.create_group(1, {0, 1, 2, 3, 4}, asym());
  w.multicast(4, 1, "quick");
  // 2 network hops at <=6ms each plus processing: well under omega.
  w.run_for(30 * kMillisecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"quick"});
}

TEST(Asymmetric, FifoPerOriginPreserved) {
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, asym());
  for (int i = 0; i < 20; ++i) w.multicast(2, 1, "s" + std::to_string(i));
  w.run_for(2 * kSecond);
  const auto got = w.log(1).delivered_strings(1);
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], "s" + std::to_string(i));
}

TEST(Asymmetric, SenderLearnsOrderFromEcho) {
  // The origin delivers its own message only when the sequencer's echo
  // returns — and at the sequencer-assigned position.
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, asym());
  w.multicast(1, 1, "a");  // non-sequencer
  w.multicast(2, 1, "b");  // non-sequencer
  w.run_for(2 * kSecond);
  expect_identical_delivery(w, 1, {0, 1, 2}, 2);
}

TEST(Asymmetric, CrashOfMemberDetectedAndExcluded) {
  LoggedWorld w(world_cfg(4, /*seed=*/67));
  w.create_group(1, {0, 1, 2, 3}, asym());
  w.run_for(300 * kMillisecond);
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(0).view(1);
        return v && v->members == std::vector<ProcessId>{0, 1, 3};
      },
      w.now() + 20 * kSecond));
  w.multicast(3, 1, "after exclusion");
  w.run_for(2 * kSecond);
  expect_identical_delivery(w, 1, {0, 1, 3}, 1);
}

TEST(Asymmetric, SequencerFailoverReroutesAndRedelivers) {
  // The extension the paper defers to [7]: the sequencer crashes; the new
  // view picks the next-lowest member; outstanding unicasts are
  // re-submitted and delivered exactly once, identically everywhere.
  LoggedWorld w(world_cfg(4, /*seed=*/71));
  w.create_group(1, {0, 1, 2, 3}, asym());
  w.run_for(300 * kMillisecond);
  w.multicast(1, 1, "pre-crash");
  w.run_for(kSecond);
  w.crash(0);  // the sequencer
  // Submit while the group still believes in the dead sequencer.
  w.multicast(2, 1, "limbo");
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(1).view(1);
        return v && v->members == std::vector<ProcessId>{1, 2, 3} &&
               w.ep(1).sequencer_of(1) == 1u;
      },
      w.now() + 20 * kSecond));
  w.multicast(3, 1, "post-failover");
  w.run_for(3 * kSecond);
  const auto d1 = w.log(1).delivered_strings(1);
  const auto d2 = w.log(2).delivered_strings(1);
  const auto d3 = w.log(3).delivered_strings(1);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d3);
  // "limbo" must survive via re-submission, exactly once.
  EXPECT_EQ(std::count(d1.begin(), d1.end(), std::string("limbo")), 1);
  EXPECT_EQ(std::count(d1.begin(), d1.end(), std::string("post-failover")),
            1);
}

TEST(Asymmetric, SendBlockingRuleAcrossTwoAsymGroups) {
  // §4.2 Send Blocking Rule: a second unicast in a *different* group is
  // delayed until the first has come back from its sequencer. Observable
  // through the sends_blocked stat and — crucially — through order: the
  // counters assigned must respect the submission order.
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 3}, asym());   // sequencer P0
  w.create_group(2, {1, 3}, asym());   // sequencer P1
  w.run_for(300 * kMillisecond);
  // P3 sends back-to-back in g1 then g2 with no time for echoes.
  w.multicast(3, 1, "first");
  w.multicast(3, 2, "second");
  EXPECT_GE(w.ep(3).queued_sends(), 1u);  // second is blocked
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.ep(3).queued_sends(), 0u);
  EXPECT_GT(w.ep(3).stats().sends_blocked, 0u);
  // Causal order across groups at the common member P3 (MD4').
  const auto dels = w.log(3).deliveries();
  std::size_t i1 = SIZE_MAX, i2 = SIZE_MAX;
  for (std::size_t i = 0; i < dels.size(); ++i) {
    const auto s = simhost::to_string(dels[i].delivery.payload);
    if (s == "first") i1 = i;
    if (s == "second") i2 = i;
  }
  ASSERT_NE(i1, SIZE_MAX);
  ASSERT_NE(i2, SIZE_MAX);
  EXPECT_LT(i1, i2);
}

TEST(Asymmetric, SameGroupSendsDoNotBlock) {
  // The blocking rules only cover m'.g != m.g: two quick sends in the
  // same asymmetric group go out immediately.
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 2}, asym());
  w.run_for(300 * kMillisecond);
  w.multicast(2, 1, "a");
  w.multicast(2, 1, "b");
  EXPECT_EQ(w.ep(2).queued_sends(), 0u);
  w.run_for(kSecond);
  EXPECT_EQ(w.log(2).delivered_strings(1),
            (std::vector<std::string>{"a", "b"}));
}

TEST(MixedMode, SymmetricSendBlockedByOutstandingUnicast) {
  // §4.3 Mixed-mode Blocking Rule: even a *multicast* (symmetric group)
  // waits for outstanding unicasts in other groups.
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 3}, asym());  // P3 non-sequencer
  w.create_group(2, {1, 2, 3});       // symmetric
  w.run_for(300 * kMillisecond);
  w.multicast(3, 1, "unicast-first");
  w.multicast(3, 2, "multicast-second");
  EXPECT_GE(w.ep(3).queued_sends(), 1u);
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.ep(3).queued_sends(), 0u);
  // Cross-group order at P3 respects submission order.
  const auto dels = w.log(3).deliveries();
  ASSERT_EQ(dels.size(), 2u);
  EXPECT_EQ(simhost::to_string(dels[0].delivery.payload), "unicast-first");
  EXPECT_EQ(simhost::to_string(dels[1].delivery.payload),
            "multicast-second");
}

TEST(MixedMode, SymmetricOnlyProcessNeverBlocks) {
  // §7: "If only symmetric version is used, Newtop is totally
  // non-blocking on send operations."
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1, 3});
  w.create_group(2, {1, 2, 3});
  w.run_for(300 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    w.multicast(3, 1, "a" + std::to_string(i));
    w.multicast(3, 2, "b" + std::to_string(i));
  }
  EXPECT_EQ(w.ep(3).queued_sends(), 0u);
  EXPECT_EQ(w.ep(3).stats().sends_blocked, 0u);
  w.run_for(3 * kSecond);
  EXPECT_EQ(w.log(3).deliveries().size(), 20u);
}

TEST(MixedMode, TotalOrderAcrossSymAndAsymGroups) {
  // The generic version: common members of a symmetric and an asymmetric
  // group deliver the union in one agreed order (made possible by the
  // shared numbering scheme, §4.3).
  LoggedWorld w(world_cfg(4, /*seed=*/73));
  w.create_group(1, {0, 1, 2, 3});          // symmetric
  w.create_group(2, {0, 1, 2, 3}, asym());  // asymmetric
  w.run_for(300 * kMillisecond);
  for (int i = 0; i < 6; ++i) {
    w.multicast(i % 4, 1, "sym" + std::to_string(i));
    w.run_for(5 * kMillisecond);
    w.multicast((i + 1) % 4, 2, "asym" + std::to_string(i));
    w.run_for(5 * kMillisecond);
  }
  w.run_for(3 * kSecond);
  auto merged = [&](ProcessId p) {
    std::vector<std::string> out;
    for (const auto& r : w.log(p).deliveries()) {
      out.push_back(simhost::to_string(r.delivery.payload));
    }
    return out;
  };
  const auto ref = merged(0);
  EXPECT_EQ(ref.size(), 12u);
  for (ProcessId p : {1u, 2u, 3u}) EXPECT_EQ(merged(p), ref) << "P" << p;
}

TEST(Asymmetric, LeaveFromAsymmetricGroup) {
  LoggedWorld w(world_cfg(3, /*seed=*/79));
  w.create_group(1, {0, 1, 2}, asym());
  w.run_for(300 * kMillisecond);
  w.multicast(2, 1, "bye-soon");
  w.run_for(kSecond);
  w.ep(2).leave_group(1, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(0).view(1);
        return v && v->members == std::vector<ProcessId>{0, 1};
      },
      w.now() + 15 * kSecond));
  EXPECT_EQ(w.log(0).delivered_strings(1),
            (std::vector<std::string>{"bye-soon"}));
}

TEST(Asymmetric, SequencerLeavesGracefully) {
  LoggedWorld w(world_cfg(3, /*seed=*/83));
  w.create_group(1, {0, 1, 2}, asym());
  w.run_for(300 * kMillisecond);
  w.ep(0).leave_group(1, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return w.ep(1).sequencer_of(1) == 1u &&
               w.ep(2).sequencer_of(1) == 1u;
      },
      w.now() + 15 * kSecond));
  w.multicast(2, 1, "new regime");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            (std::vector<std::string>{"new regime"}));
}

TEST(Asymmetric, FailureFreeModeOnlySequencerSendsNulls) {
  // §4.2: in the static failure-free configuration only the sequencer
  // operates time-silence; delivery stays live because only its stream
  // gates D.
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  o.failure_free = true;
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1, 2, 3}, o);
  w.run_for(2 * kSecond);
  EXPECT_GT(w.ep(0).stats().nulls_sent, 0u);   // sequencer
  EXPECT_EQ(w.ep(1).stats().nulls_sent, 0u);   // silent member
  EXPECT_EQ(w.ep(2).stats().nulls_sent, 0u);
  w.multicast(3, 1, "still delivers");
  w.run_for(kSecond);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              std::vector<std::string>{"still delivers"});
  }
  // No suspicions despite the silence: the suspector is off.
  EXPECT_EQ(w.ep(0).stats().suspects_sent, 0u);
}

TEST(Asymmetric, FailureFreeSymmetricStillNeedsAllNulls) {
  // Contrast: a failure-free *symmetric* group still requires nulls from
  // every member, since D is the minimum over all receive vector entries.
  GroupOptions o;
  o.failure_free = true;
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, o);
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_GT(w.ep(p).stats().nulls_sent, 0u) << "P" << p;
  }
  w.multicast(0, 1, "sym ff");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(2).delivered_strings(1),
            std::vector<std::string>{"sym ff"});
}

TEST(Asymmetric, AtomicOnlyAsymmetricGroup) {
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  o.guarantee = Guarantee::kAtomicOnly;
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, o);
  w.multicast(2, 1, "atomic");
  w.run_for(100 * kMillisecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"atomic"});
}

}  // namespace
}  // namespace newtop
