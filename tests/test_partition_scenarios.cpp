// Partition scenario matrix (§5.2's partitionable semantics beyond the
// basic split): multi-way splits, partitions under load, post-partition
// isolation (no automatic merge — the paper's model), rejoin through new
// group formation, partitions hitting multi-group processes, and
// partitions racing the formation protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 111) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 6 * kMillisecond);
  return cfg;
}

bool view_is(SimWorld& w, ProcessId p, GroupId g,
             std::vector<ProcessId> expect) {
  std::sort(expect.begin(), expect.end());
  const View* v = w.ep(p).view(g);
  return v != nullptr && v->members == expect;
}

TEST(PartitionScenario, ThreeWaySplitStabilises) {
  LoggedWorld w(world_cfg(6));
  w.create_group(1, {0, 1, 2, 3, 4, 5});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}) &&
               view_is(w, 2, 1, {2, 3}) && view_is(w, 3, 1, {2, 3}) &&
               view_is(w, 4, 1, {4, 5}) && view_is(w, 5, 1, {4, 5});
      },
      w.now() + 60 * kSecond));
  // Each side lives on independently.
  w.multicast(0, 1, "a");
  w.multicast(2, 1, "b");
  w.multicast(4, 1, "c");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1).back(), "a");
  EXPECT_EQ(w.log(3).delivered_strings(1).back(), "b");
  EXPECT_EQ(w.log(5).delivered_strings(1).back(), "c");
}

TEST(PartitionScenario, SplitUnderLoadKeepsSidesInternallyConsistent) {
  LoggedWorld w(world_cfg(4, /*seed=*/117));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  // Traffic before, during and after the split.
  for (int i = 0; i < 10; ++i) {
    w.multicast(static_cast<ProcessId>(i % 4), 1, "pre" + std::to_string(i));
    w.run_for(3 * kMillisecond);
  }
  w.partition({{0, 1}, {2, 3}});
  for (int i = 0; i < 10; ++i) {
    w.multicast(static_cast<ProcessId>(i % 2), 1, "a" + std::to_string(i));
    w.multicast(static_cast<ProcessId>(2 + i % 2), 1,
                "b" + std::to_string(i));
    w.run_for(3 * kMillisecond);
  }
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 2, 1, {2, 3});
      },
      w.now() + 60 * kSecond));
  w.run_for(5 * kSecond);
  // Within each side the delivery sequences are identical.
  EXPECT_EQ(w.log(0).delivered_strings(1),
            w.log(1).delivered_strings(1));
  EXPECT_EQ(w.log(2).delivered_strings(1),
            w.log(3).delivered_strings(1));
  // And side A never delivered side B's post-split traffic.
  for (const auto& s : w.log(0).delivered_strings(1)) {
    EXPECT_NE(s.substr(0, 1), "b") << "cross-partition leak: " << s;
  }
}

TEST(PartitionScenario, NoAutomaticMergeAfterHeal) {
  // §3: once excluded, a process never rejoins the same group; healing
  // the network must not resurrect the old membership — traffic from
  // across the healed split is discarded ("Pk ∉ Vi").
  LoggedWorld w(world_cfg(4, /*seed=*/119));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 2, 1, {2, 3});
      },
      w.now() + 60 * kSecond));
  w.heal();
  w.run_for(2 * kSecond);
  const auto before0 = w.log(0).delivered_strings(1).size();
  w.multicast(2, 1, "ghost from the other side");
  w.run_for(3 * kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(1).size(), before0)
      << "a healed network must not smuggle messages across stabilised "
         "views";
  EXPECT_TRUE(view_is(w, 0, 1, {0, 1}));
}

TEST(PartitionScenario, RejoinAfterHealViaNewGroup) {
  // The paper's prescribed path back together: form a new group.
  LoggedWorld w(world_cfg(4, /*seed=*/121));
  w.create_group(1, {0, 1, 2, 3});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 2, 1, {2, 3});
      },
      w.now() + 60 * kSecond));
  w.heal();
  w.ep(0).initiate_group(2, {0, 1, 2, 3}, {}, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          if (!w.ep(p).open_for_app(2)) return false;
        }
        return true;
      },
      w.now() + 20 * kSecond));
  w.multicast(0, 2, "reunited");
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(2),
              std::vector<std::string>{"reunited"})
        << "P" << p;
  }
}

TEST(PartitionScenario, MultiGroupProcessSplitsConsistentlyEverywhere) {
  // P1 and P2 share two groups; the same physical partition must shrink
  // both groups' views consistently.
  SimWorld w(world_cfg(4, /*seed=*/123));
  w.create_group(1, {0, 1, 2, 3});
  w.create_group(2, {1, 2});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 1, 1, {0, 1}) &&
               view_is(w, 2, 1, {2, 3}) && view_is(w, 1, 2, {1}) &&
               view_is(w, 2, 2, {2});
      },
      w.now() + 60 * kSecond))
      << "g2 views: P1=" << (w.ep(1).view(2) ? to_string(*w.ep(1).view(2)) : "?")
      << " P2=" << (w.ep(2).view(2) ? to_string(*w.ep(2).view(2)) : "?");
}

TEST(PartitionScenario, PartitionDuringFormationResolves) {
  // The network splits while invitations are in flight. Whatever the
  // outcome per process (formed on a shrunken view after GV exclusion, or
  // aborted by timeout), no process may hang forever: every live process
  // either completes or abandons the formation within bounded time.
  LoggedWorld w(world_cfg(4, /*seed=*/127));
  w.ep(0).initiate_group(1, {0, 1, 2, 3}, {}, w.now());
  w.run_for(8 * kMillisecond);  // invites partially propagated
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < 4; ++p) {
          const bool resolved =
              !w.ep(p).is_member(1) || w.ep(p).open_for_app(1);
          if (!resolved) return false;
        }
        return true;
      },
      w.now() + 120 * kSecond))
      << "formation wedged under partition";
  // Side A (with the initiator) that formed must be internally usable.
  if (w.ep(0).open_for_app(1)) {
    w.multicast(0, 1, "sideA works");
    w.run_for(2 * kSecond);
    EXPECT_FALSE(w.log(0).delivered_strings(1).empty());
  }
}

TEST(PartitionScenario, SequentialSplitAndShrink) {
  // Split 6 -> {4, 2}, then the 4-side splits again -> {2, 2}: view
  // sequences must shrink monotonically with consistent members.
  LoggedWorld w(world_cfg(6, /*seed=*/131));
  w.create_group(1, {0, 1, 2, 3, 4, 5});
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1, 2, 3}, {4, 5}});
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1, 2, 3}); },
      w.now() + 60 * kSecond));
  w.partition({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(w.run_until_pred(
      [&] { return view_is(w, 0, 1, {0, 1}) && view_is(w, 2, 1, {2, 3}); },
      w.now() + 60 * kSecond));
  // Monotone shrink at P0: every later view ⊂ earlier view.
  const auto views = w.log(0).views();
  for (std::size_t i = 1; i < views.size(); ++i) {
    for (ProcessId p : views[i].view.members) {
      EXPECT_TRUE(std::count(views[i - 1].view.members.begin(),
                             views[i - 1].view.members.end(), p) > 0)
          << "view " << i << " gained member P" << p;
    }
    EXPECT_LT(views[i].view.members.size(),
              views[i - 1].view.members.size());
  }
}

TEST(PartitionScenario, AsymmetricGroupSplitFailsOverPerSide) {
  // An asymmetric group splits; the side that lost the sequencer elects
  // its own (lowest surviving id) and keeps ordering.
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  LoggedWorld w(world_cfg(4, /*seed=*/137));
  w.create_group(1, {0, 1, 2, 3}, o);
  w.run_for(300 * kMillisecond);
  w.partition({{0, 1}, {2, 3}});
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        return view_is(w, 0, 1, {0, 1}) && view_is(w, 2, 1, {2, 3});
      },
      w.now() + 60 * kSecond));
  EXPECT_EQ(w.ep(0).sequencer_of(1), 0u);
  EXPECT_EQ(w.ep(2).sequencer_of(1), 2u);  // new sequencer on side B
  w.multicast(3, 1, "side B ordered");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(2).delivered_strings(1).back(), "side B ordered");
}

}  // namespace
}  // namespace newtop
