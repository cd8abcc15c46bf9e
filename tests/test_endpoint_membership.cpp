// Fault-tolerance tests (§5): the failure suspector, the membership
// agreement protocol, the view-installation barrier, message recovery via
// refutes, voluntary departure, and the paper's worked Examples 1-3.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 3) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 6 * kMillisecond);
  return cfg;
}

std::vector<ProcessId> view_members(SimWorld& w, ProcessId p, GroupId g) {
  const View* v = w.ep(p).view(g);
  return v != nullptr ? v->members : std::vector<ProcessId>{};
}

bool view_is(SimWorld& w, ProcessId p, GroupId g,
             std::vector<ProcessId> expect) {
  std::sort(expect.begin(), expect.end());
  return view_members(w, p, g) == expect;
}

TEST(Membership, CrashDetectedAndViewInstalled) {
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);  // settle
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1, 2}) && view_is(w, 1, 1, {0, 1, 2}) &&
               view_is(w, 2, 1, {0, 1, 2});
      },
      w.now() + 10 * kSecond))
      << "survivors never agreed on the crash";
  // VC1: all survivors installed the same view sequence.
  for (ProcessId p : {0u, 1u, 2u}) {
    ASSERT_EQ(w.log(p).views().size(), 1u) << "P" << p;
    EXPECT_EQ(w.log(p).views()[0].view.seq, 1u);
  }
}

TEST(Membership, DeliveryContinuesAfterViewChange) {
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2});
  w.multicast(0, 1, "before");
  w.run_for(300 * kMillisecond);
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}); },
      w.now() + 10 * kSecond));
  w.multicast(1, 1, "after");
  w.run_for(2 * kSecond);
  for (ProcessId p : {0u, 1u}) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              (std::vector<std::string>{"before", "after"}))
        << "P" << p;
  }
}

TEST(Membership, MessageDeliveredBeforeCrashCutoffSurvives) {
  // A message the crashed process sent (and everyone received) before
  // dying is delivered by all survivors in the pre-change view.
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.multicast(2, 1, "last words");
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return w.log(0).delivered_strings(1).size() == 1 &&
               w.log(1).delivered_strings(1).size() == 1;
      },
      w.now() + 5 * kSecond));
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}); },
      w.now() + 10 * kSecond));
  for (ProcessId p : {0u, 1u}) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              (std::vector<std::string>{"last words"}));
  }
}

TEST(Membership, PartialMulticastResolvedConsistently) {
  // Example 1 setup: the crash interrupts a multicast so only some
  // destinations receive it. Survivors must either all deliver it (via
  // refute recovery) or none (discarded by the lnmn cut) — never a split.
  LoggedWorld w(world_cfg(4, /*seed=*/7));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  // P3's multicast reaches at most 1 peer datagram before the crash.
  w.process(3).crash_after_sends(1);
  w.multicast(3, 1, "orphan?");
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1, 2}) && view_is(w, 1, 1, {0, 1, 2}) &&
               view_is(w, 2, 1, {0, 1, 2});
      },
      w.now() + 15 * kSecond));
  w.run_for(kSecond);
  const auto d0 = w.log(0).delivered_strings(1);
  EXPECT_EQ(d0, w.log(1).delivered_strings(1));
  EXPECT_EQ(d0, w.log(2).delivered_strings(1));
}

TEST(Membership, Example1CrashChainNoOrphanDelivery) {
  // Paper Example 1: Pr crashes during multicast of m such that only Ps
  // receives m; Ps delivers m, multicasts m' (m -> m'), then crashes
  // before refuting the others' suspicion of Pr. Pi and Pj must not
  // deliver m' when m cannot be delivered — they detect Pr and Ps
  // together and the lnmn cut discards m'.
  LoggedWorld w(world_cfg(4, /*seed=*/11));
  const ProcessId pi = 0, pj = 1, pr = 2, ps = 3;
  w.create_group(1, {pi, pj, pr, ps});
  w.run_for(300 * kMillisecond);

  // Pr sends m only to Ps: cut Pr's links to Pi and Pj, then crash it
  // shortly after (the cut models the interrupted multicast).
  w.network().set_link_down(pr, pi, true);
  w.network().set_link_down(pr, pj, true);
  w.multicast(pr, 1, "m");
  w.run_for(50 * kMillisecond);
  w.crash(pr);
  // Let Ps deliver m (possible once D catches up) and send m'.
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const auto d = w.log(ps).delivered_strings(1);
        return std::find(d.begin(), d.end(), "m") != d.end();
      },
      w.now() + 15 * kSecond))
      << "Ps never delivered m";
  w.multicast(ps, 1, "m'");
  w.run_for(20 * kMillisecond);
  w.crash(ps);

  // Pi and Pj agree on a view without Pr and Ps.
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, pi, 1, {pi, pj}) && view_is(w, pj, 1, {pi, pj});
      },
      w.now() + 30 * kSecond));
  w.run_for(kSecond);

  // MD5: m' must not be delivered anywhere m was not.
  for (ProcessId p : {pi, pj}) {
    const auto d = w.log(p).delivered_strings(1);
    const bool has_m = std::find(d.begin(), d.end(), "m") != d.end();
    const bool has_mp = std::find(d.begin(), d.end(), "m'") != d.end();
    EXPECT_FALSE(has_mp && !has_m)
        << "P" << p << " delivered m' without its causal prefix m";
  }
  EXPECT_EQ(w.log(pi).delivered_strings(1),
            w.log(pj).delivered_strings(1));
}

TEST(Membership, FalseSuspicionRefutedByThirdParty) {
  // Cut only P2 -> P0 traffic: P0 suspects P2, but P1 still hears P2 and
  // refutes; P0 recovers the missing messages and no view change happens
  // (for a while at least — the link stays down, so eventually the
  // asymmetric silence wins; we check the refute path fired first).
  SimWorld w(world_cfg(3, /*seed=*/13));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.network().set_link_down(2, 0, true);
  // Give the suspicion time to form and be refuted at least once.
  w.run_for(2 * kSecond);
  EXPECT_GT(w.ep(1).stats().refutes_sent + w.ep(0).stats().refutes_sent, 0u)
      << "no refutation happened";
  w.network().set_link_down(2, 0, false);
  w.run_for(2 * kSecond);
  // Fully healed: everyone still in the full view (or back to it via the
  // protocol's convergence — the paper allows exclusion under prolonged
  // virtual partitions, but a brief unidirectional glitch refutes away).
  EXPECT_TRUE(view_is(w, 1, 1, {0, 1, 2}));
}

TEST(Membership, RecoveryDeliversMissedMessages) {
  // P0 misses P2's messages during a one-way outage; after refutation and
  // recovery P0's delivery sequence must equal everyone else's.
  LoggedWorld w(world_cfg(3, /*seed=*/17));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.network().set_link_down(2, 0, true);
  w.multicast(2, 1, "hidden1");
  w.multicast(2, 1, "hidden2");
  w.run_for(100 * kMillisecond);
  w.network().set_link_down(2, 0, false);
  w.run_for(5 * kSecond);
  const auto d0 = w.log(0).delivered_strings(1);
  const auto d1 = w.log(1).delivered_strings(1);
  EXPECT_EQ(d0, d1);
  EXPECT_EQ(d0.size(), 2u);
}

TEST(Membership, VoluntaryLeaveInstallsViewEverywhere) {
  SimWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.ep(2).leave_group(1, w.now());
  EXPECT_FALSE(w.ep(2).is_member(1));
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}); },
      w.now() + 10 * kSecond));
}

TEST(Membership, LeaveIsFasterThanCrashDetection) {
  // A graceful Leave injects the suspicion immediately; agreement should
  // complete well before the Ω timeout that a crash would need.
  SimWorld crash_world(world_cfg(3, /*seed=*/19));
  crash_world.create_group(1, {0, 1, 2});
  crash_world.run_for(300 * kMillisecond);
  const sim::Time crash_start = crash_world.now();
  crash_world.crash(2);
  ASSERT_TRUE(crash_world.run_until_pred(
      [&] { return view_is(crash_world, 0, 1, {0, 1}); },
      crash_world.now() + 10 * kSecond));
  const sim::Duration crash_latency = crash_world.now() - crash_start;

  SimWorld leave_world(world_cfg(3, /*seed=*/19));
  leave_world.create_group(1, {0, 1, 2});
  leave_world.run_for(300 * kMillisecond);
  const sim::Time leave_start = leave_world.now();
  leave_world.ep(2).leave_group(1, leave_world.now());
  ASSERT_TRUE(leave_world.run_until_pred(
      [&] { return view_is(leave_world, 0, 1, {0, 1}); },
      leave_world.now() + 10 * kSecond));
  const sim::Duration leave_latency = leave_world.now() - leave_start;

  EXPECT_LT(leave_latency, crash_latency);
}

TEST(Membership, LeaverMessagesAllDeliveredBeforeViewChange) {
  // VC3/MD3: messages the leaver sent before its Leave are delivered to
  // everyone in the old view.
  LoggedWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.multicast(2, 1, "parting1");
  w.multicast(2, 1, "parting2");
  w.ep(2).leave_group(1, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}); },
      w.now() + 10 * kSecond));
  for (ProcessId p : {0u, 1u}) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              (std::vector<std::string>{"parting1", "parting2"}))
        << "P" << p;
  }
}

TEST(Membership, PartitionSplitsIntoConsistentSubgroups) {
  // The headline partitionable-membership property: after a partition,
  // each side installs a view containing exactly its own side (i), and
  // the concurrent views are non-intersecting once stabilised (ii).
  LoggedWorld w(world_cfg(4, /*seed=*/23));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}) &&
               view_is(w, 2, 1, {2, 3}) && view_is(w, 3, 1, {2, 3});
      },
      w.now() + 30 * kSecond))
      << "P0 view: " << to_string(*w.ep(0).view(1))
      << " P2 view: " << to_string(*w.ep(2).view(1));
  // Both sides keep operating — no primary partition requirement.
  w.multicast(0, 1, "sideA");
  w.multicast(2, 1, "sideB");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1).back(), "sideA");
  EXPECT_EQ(w.log(3).delivered_strings(1).back(), "sideB");
}

TEST(Membership, MinoritySubgroupSurvives) {
  // Unlike primary-partition protocols, a 1-vs-4 split leaves both sides
  // live (§2: "this requirement may not always be possible to meet").
  LoggedWorld w(world_cfg(5, /*seed=*/29));
  w.create_group(1, {0, 1, 2, 3, 4});
  w.run_for(300 * kMillisecond);
  w.partition({{0}, {1, 2, 3, 4}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0}) &&
               view_is(w, 1, 1, {1, 2, 3, 4}) &&
               view_is(w, 4, 1, {1, 2, 3, 4});
      },
      w.now() + 30 * kSecond));
  // Singleton side still "operates".
  w.multicast(0, 1, "alone");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(1).back(), "alone");
}

TEST(Membership, Example3ViewsStabiliseToNonIntersecting) {
  // Paper Example 3: g = {Pi,Pj,Pk,Pl,Pm}; Pm crashes; a partition
  // separates {Pi,Pj} from {Pk,Pl} mid-agreement. Transiently the views
  // may intersect, but they must stabilise into {Pi,Pj} and {Pk,Pl}.
  SimWorld w(world_cfg(5, /*seed=*/31));
  w.create_group(1, {0, 1, 2, 3, 4});
  w.run_for(300 * kMillisecond);
  w.crash(4);                                  // Pm
  w.run_for(150 * kMillisecond);               // suspicion forming
  w.partition({{0, 1}, {2, 3}});               // mid-agreement split
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}) &&
               view_is(w, 2, 1, {2, 3}) && view_is(w, 3, 1, {2, 3});
      },
      w.now() + 60 * kSecond))
      << "views: P0=" << to_string(*w.ep(0).view(1))
      << " P2=" << to_string(*w.ep(2).view(1));
  // Final views are non-intersecting.
  const auto va = view_members(w, 0, 1);
  const auto vb = view_members(w, 2, 1);
  for (ProcessId p : va) {
    EXPECT_EQ(std::count(vb.begin(), vb.end(), p), 0)
        << "stabilised views intersect on P" << p;
  }
}

TEST(Membership, SignatureViewsNeverIntersect) {
  // §6 variant: with signature views, even *concurrent* views of the two
  // sides never intersect, because each (process, exclusion-count) pair
  // differs once the sides have excluded different numbers of processes.
  WorldConfig cfg = world_cfg(5, /*seed=*/37);
  cfg.host.endpoint.signature_views = true;
  SimWorld w(cfg);
  w.create_group(1, {0, 1, 2, 3, 4});
  w.run_for(300 * kMillisecond);
  w.crash(4);
  w.run_for(150 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_members(w, 0, 1).size() == 2 &&
               view_members(w, 2, 1).size() == 2;
      },
      w.now() + 60 * kSecond));
  const SignatureView sa = w.ep(0).signature_view(1);
  const SignatureView sb = w.ep(2).signature_view(1);
  EXPECT_FALSE(sa.intersects(sb));
}

TEST(Membership, TwoMemberGroupSplitsOnSilence) {
  // n=2 degenerate case: condition (v)'s endorsement set is empty, so a
  // suspicion confirms instantly and each side ends up alone — the
  // behaviour the protocol design implies (see §5.2 discussion).
  SimWorld w(world_cfg(2, /*seed=*/41));
  w.create_group(1, {0, 1});
  w.run_for(300 * kMillisecond);
  w.partition({{0}, {1}});
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0}) && view_is(w, 1, 1, {1}); },
      w.now() + 20 * kSecond));
}

TEST(Membership, MultipleSimultaneousCrashesDetectedTogether) {
  LoggedWorld w(world_cfg(5, /*seed=*/43));
  w.create_group(1, {0, 1, 2, 3, 4});
  w.run_for(300 * kMillisecond);
  w.crash(3);
  w.crash(4);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1, 2}) && view_is(w, 1, 1, {0, 1, 2}) &&
               view_is(w, 2, 1, {0, 1, 2});
      },
      w.now() + 20 * kSecond));
  // All survivors installed identical view *sequences* (VC1).
  const auto v0 = w.log(0).views();
  for (ProcessId p : {1u, 2u}) {
    const auto vp = w.log(p).views();
    ASSERT_EQ(vp.size(), v0.size()) << "P" << p;
    for (std::size_t i = 0; i < v0.size(); ++i) {
      EXPECT_EQ(vp[i].view.members, v0[i].view.members);
      EXPECT_EQ(vp[i].view.seq, v0[i].view.seq);
    }
  }
}

TEST(Membership, CascadingCrashesHandledSequentially) {
  LoggedWorld w(world_cfg(5, /*seed=*/47));
  w.create_group(1, {0, 1, 2, 3, 4});
  w.run_for(300 * kMillisecond);
  w.crash(4);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_members(w, 0, 1).size() == 4; },
      w.now() + 15 * kSecond));
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_members(w, 0, 1).size() == 3; },
      w.now() + 15 * kSecond));
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1});
      },
      w.now() + 15 * kSecond));
  // VC1 across the whole cascade.
  const auto v0 = w.log(0).views();
  const auto v1 = w.log(1).views();
  ASSERT_EQ(v0.size(), v1.size());
  for (std::size_t i = 0; i < v0.size(); ++i) {
    EXPECT_EQ(v0[i].view.members, v1[i].view.members);
  }
}

TEST(Membership, MultiGroupCrashRemovedFromAllSharedGroups) {
  SimWorld w(world_cfg(4, /*seed=*/53));
  w.create_group(1, {0, 1, 3});
  w.create_group(2, {1, 2, 3});
  w.run_for(300 * kMillisecond);
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}) &&
               view_is(w, 1, 2, {1, 2}) && view_is(w, 2, 2, {1, 2});
      },
      w.now() + 20 * kSecond));
}

TEST(Membership, CrossGroupDeliveryUnblocksAfterExclusion) {
  // Example 2 / MD5' mechanics: P0's delivery in g2 is gated by g1's D
  // while g1 contains a dead member; excluding it unblocks g2.
  LoggedWorld w(world_cfg(4, /*seed=*/59));
  w.create_group(1, {0, 3});       // g1: P0 with soon-dead P3
  w.create_group(2, {0, 1, 2});    // g2: live group
  w.run_for(300 * kMillisecond);
  w.crash(3);
  w.multicast(1, 2, "gated");
  // Eventually P3 is excluded from g1 and "gated" must deliver at P0.
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const auto d = w.log(0).delivered_strings(2);
        return std::find(d.begin(), d.end(), "gated") != d.end();
      },
      w.now() + 20 * kSecond));
  EXPECT_TRUE(view_is(w, 0, 1, {0}));
}

TEST(Membership, StatsCountAgreementTraffic) {
  SimWorld w(world_cfg(3, /*seed=*/61));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  w.crash(2);
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}); }, w.now() + 10 * kSecond));
  EXPECT_GT(w.ep(0).stats().suspects_sent, 0u);
  EXPECT_GT(w.ep(0).stats().confirms_sent, 0u);
  EXPECT_EQ(w.ep(0).stats().views_installed, 1u);
}

}  // namespace
}  // namespace newtop
