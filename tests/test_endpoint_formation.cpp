// Group formation tests (§5.3): the two-phase invite, vetoes and
// timeouts, the start-group number agreement, interaction with other
// groups' delivery (D pinning), member failure during formation, and the
// paper's Fig. 1 online-server-migration scenario built on formation +
// departure.
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

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 6) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 6 * kMillisecond);
  return cfg;
}

bool formed(SimWorld& w, ProcessId p, GroupId g) {
  return w.ep(p).is_member(g) && w.ep(p).open_for_app(g);
}

TEST(Formation, ThreeProcessGroupForms) {
  LoggedWorld w(world_cfg(3));
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 1) && formed(w, 1, 1) && formed(w, 2, 1); },
      10 * kSecond));
  for (ProcessId p = 0; p < 3; ++p) {
    ASSERT_EQ(w.log(p).formations().size(), 1u);
    EXPECT_EQ(w.log(p).formations()[0].outcome, FormationOutcome::kFormed);
    EXPECT_EQ(w.ep(p).view(1)->members, (std::vector<ProcessId>{0, 1, 2}));
  }
}

TEST(Formation, MessagesFlowAfterFormation) {
  LoggedWorld w(world_cfg(3));
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 1) && formed(w, 1, 1) && formed(w, 2, 1); },
      10 * kSecond));
  w.multicast(0, 1, "first post");
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              std::vector<std::string>{"first post"});
  }
}

TEST(Formation, SendsQueuedDuringFormationAreDeliveredAfter) {
  // multicast() during formation queues locally and flushes at step 5.
  LoggedWorld w(world_cfg(3));
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  EXPECT_EQ(w.ep(0).multicast(1, simhost::to_bytes("eager"), w.now()),
            SendResult::kQueued);
  w.run_for(5 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              std::vector<std::string>{"eager"})
        << "P" << p;
  }
}

TEST(Formation, AbortDropsSendsQueuedDuringFormation) {
  // Sends parked during a formation die with it: after the initiator's
  // timeout veto, nothing stays queued, and re-creating the same group
  // id must not replay the doomed payload into the new membership.
  LoggedWorld w(world_cfg(3));
  w.crash(2);  // invitee never votes -> initiator vetoes on timeout
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  EXPECT_EQ(w.ep(0).multicast(1, simhost::to_bytes("doomed"), w.now()),
            SendResult::kQueued);
  EXPECT_EQ(w.ep(0).queued_sends(), 1u);
  // The initiator vetoes at formation_timeout; the invitee gives up
  // unilaterally at twice that. Wait for both before reusing the id.
  ASSERT_TRUE(w.run_until_pred(
      [&] { return !w.ep(0).is_member(1) && !w.ep(1).is_member(1); },
      10 * kSecond));
  EXPECT_EQ(w.ep(0).queued_sends(), 0u);

  // Fresh static group under the same id: only its own traffic appears.
  w.ep(0).create_group(1, {0, 1}, {}, w.now());
  w.ep(1).create_group(1, {0, 1}, {}, w.now());
  w.multicast(0, 1, "fresh");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"fresh"});
}

TEST(Formation, VetoAbortsEveryone) {
  WorldConfig cfg = world_cfg(3);
  LoggedWorld w(cfg);
  // P2 refuses all invitations.
  // (Hook must be set before the invite arrives; SimProcess exposes the
  // endpoint, but hooks are fixed at construction — so emulate a veto by
  // having P2 leave immediately... instead, use accept_invite via a
  // custom endpoint is not available here; we test the veto path through
  // the initiator timeout below and through a dedicated Endpoint-level
  // test in test_endpoint_units.)
  // Initiator includes a crashed process: nobody can say yes for it.
  w.crash(2);
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return !w.log(0).formations().empty() &&
               !w.log(1).formations().empty();
      },
      20 * kSecond));
  EXPECT_NE(w.log(0).formations()[0].outcome, FormationOutcome::kFormed);
  EXPECT_NE(w.log(1).formations()[0].outcome, FormationOutcome::kFormed);
  EXPECT_FALSE(w.ep(0).is_member(1));
  EXPECT_FALSE(w.ep(1).is_member(1));
}

TEST(Formation, InitiatorCrashLeavesNoZombieGroup) {
  SimWorld w(world_cfg(3, /*seed=*/89));
  w.ep(0).initiate_group(1, {0, 1, 2}, {}, w.now());
  w.run_for(2 * kMillisecond);  // invites on the wire
  w.crash(0);
  // Invitees must eventually give up (initiator never casts its yes).
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return !w.ep(1).is_member(1) && !w.ep(2).is_member(1);
      },
      30 * kSecond));
}

TEST(Formation, MemberCrashDuringStartGroupWaitResolved) {
  // A member dies after voting yes but (possibly) before its start-group
  // reaches everyone: the remaining members' GV excludes it and the
  // formation completes on the shrunken view (§5.3 step 5 note).
  LoggedWorld w(world_cfg(4, /*seed=*/97));
  // Slow P3 down so its vote arrives but its start-group doesn't.
  w.ep(0).initiate_group(1, {0, 1, 2, 3}, {}, w.now());
  w.run_for(8 * kMillisecond);  // votes are out
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 1) && formed(w, 1, 1) && formed(w, 2, 1); },
      60 * kSecond));
  w.multicast(0, 1, "works");
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    const auto d = w.log(p).delivered_strings(1);
    EXPECT_EQ(d, std::vector<std::string>{"works"}) << "P" << p;
  }
}

TEST(Formation, NewGroupDoesNotReorderExistingGroups) {
  // While a formation is in flight, the initiator's deliveries in its
  // existing groups continue and stay identical to other members'.
  LoggedWorld w(world_cfg(4, /*seed=*/101));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  w.ep(0).initiate_group(2, {0, 1}, {}, w.now());
  for (int i = 0; i < 10; ++i) {
    w.multicast(2, 1, "g1#" + std::to_string(i));
    w.run_for(3 * kMillisecond);
  }
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 2) && formed(w, 1, 2); }, 10 * kSecond));
  w.run_for(3 * kSecond);
  const auto ref = w.log(0).delivered_strings(1);
  EXPECT_EQ(ref.size(), 10u);
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1), ref) << "P" << p;
  }
}

TEST(Formation, CrossGroupOrderWithNewGroup) {
  // MD4' with a dynamically formed group: messages in old g1 and new g2
  // interleave identically at common members P0, P1.
  LoggedWorld w(world_cfg(3, /*seed=*/103));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.ep(0).initiate_group(2, {0, 1}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 2) && formed(w, 1, 2); }, 10 * kSecond));
  for (int i = 0; i < 6; ++i) {
    w.multicast(2, 1, "old" + std::to_string(i));
    w.run_for(4 * kMillisecond);
    w.multicast(0, 2, "new" + std::to_string(i));
    w.run_for(4 * kMillisecond);
  }
  w.run_for(3 * kSecond);
  auto merged = [&](ProcessId p) {
    std::vector<std::string> out;
    for (const auto& r : w.log(p).deliveries()) {
      out.push_back(simhost::to_string(r.delivery.payload));
    }
    return out;
  };
  const auto m0 = merged(0);
  EXPECT_EQ(m0.size(), 12u);
  EXPECT_EQ(m0, merged(1));
}

TEST(Formation, AsymmetricGroupFormsAndOrders) {
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  LoggedWorld w(world_cfg(3));
  w.ep(1).initiate_group(5, {0, 1, 2}, o, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 5) && formed(w, 1, 5) && formed(w, 2, 5); },
      10 * kSecond));
  EXPECT_EQ(w.ep(2).sequencer_of(5), 0u);
  w.multicast(2, 5, "via sequencer");
  w.run_for(kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(5),
              std::vector<std::string>{"via sequencer"});
  }
}

TEST(Formation, SingletonGroupFormsImmediately) {
  LoggedWorld w(world_cfg(2));
  w.ep(0).initiate_group(9, {0}, {}, w.now());
  w.run_for(100 * kMillisecond);
  EXPECT_TRUE(formed(w, 0, 9));
  w.multicast(0, 9, "note to self");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(9),
            std::vector<std::string>{"note to self"});
}

TEST(Formation, RejoinAfterDepartureViaNewGroup) {
  // §3: "Processes wishing to join their former co-members do so by
  // forming a new group" — the paper's replacement for explicit joins.
  LoggedWorld w(world_cfg(3, /*seed=*/107));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.ep(2).leave_group(1, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(0).view(1);
        return v && v->members == std::vector<ProcessId>{0, 1};
      },
      15 * kSecond));
  // P2 "rejoins" by forming g2 with the same membership.
  w.ep(2).initiate_group(2, {0, 1, 2}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return formed(w, 0, 2) && formed(w, 1, 2) && formed(w, 2, 2); },
      10 * kSecond));
  w.multicast(2, 2, "i'm back");
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(2),
              std::vector<std::string>{"i'm back"});
  }
}

TEST(Formation, Fig1OnlineServerMigration) {
  // The paper's Fig. 1 walkthrough: g1 = {P1, P2} serves clients; P2 must
  // migrate to a new machine hosting P3. P3 forms g2 = {P1, P2, P3};
  // state transfer happens in g2 while g1 keeps serving; then P2 departs
  // from both, leaving g1 = {P1} and g2 = {P1, P3} as the server group.
  LoggedWorld w(world_cfg(4, /*seed=*/109));
  const ProcessId p1 = 1, p2 = 2, p3 = 3, client = 0;
  w.create_group(1, {p1, p2});  // server group g1
  w.run_for(300 * kMillisecond);

  // Clients are modelled by P1 multicasting request markers into g1.
  w.multicast(p1, 1, "req-1");

  // Migration starts: P3 initiates g2.
  w.ep(p3).initiate_group(2, {p1, p2, p3}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return formed(w, p1, 2) && formed(w, p2, 2) && formed(w, p3, 2);
      },
      10 * kSecond));

  // State transfer in g2 concurrent with service in g1.
  w.multicast(p1, 2, "state-chunk-1");
  w.multicast(p1, 1, "req-2");
  w.multicast(p1, 2, "state-chunk-2");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(p3).delivered_strings(2),
            (std::vector<std::string>{"state-chunk-1", "state-chunk-2"}));

  // P2 departs from both groups.
  w.ep(p2).leave_group(1, w.now());
  w.ep(p2).leave_group(2, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v1 = w.ep(p1).view(1);
        const View* v2 = w.ep(p1).view(2);
        const View* v3 = w.ep(p3).view(2);
        return v1 && v1->members == std::vector<ProcessId>{p1} && v2 &&
               v2->members == std::vector<ProcessId>{p1, p3} && v3 &&
               v3->members == std::vector<ProcessId>{p1, p3};
      },
      20 * kSecond))
      << "migration views never stabilised";

  // Service continues in the surviving group g2.
  w.multicast(p1, 2, "req-3");
  w.run_for(2 * kSecond);
  const auto d3 = w.log(p3).delivered_strings(2);
  EXPECT_EQ(std::count(d3.begin(), d3.end(), std::string("req-3")), 1);
  (void)client;
}

TEST(Formation, ConcurrentFormationsDoNotInterfere) {
  LoggedWorld w(world_cfg(4, /*seed=*/113));
  w.ep(0).initiate_group(1, {0, 1}, {}, w.now());
  w.ep(2).initiate_group(2, {2, 3}, {}, w.now());
  w.ep(1).initiate_group(3, {1, 2}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return formed(w, 0, 1) && formed(w, 1, 1) && formed(w, 2, 2) &&
               formed(w, 3, 2) && formed(w, 1, 3) && formed(w, 2, 3);
      },
      15 * kSecond));
  w.multicast(0, 1, "a");
  w.multicast(2, 2, "b");
  w.multicast(1, 3, "c");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"a"});
  EXPECT_EQ(w.log(3).delivered_strings(2),
            std::vector<std::string>{"b"});
  EXPECT_EQ(w.log(2).delivered_strings(3),
            std::vector<std::string>{"c"});
}

}  // namespace
}  // namespace newtop
