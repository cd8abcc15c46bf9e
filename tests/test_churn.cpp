// Long-run churn soak: a system that keeps living — groups form, members
// leave, processes crash, new groups replace old ones — while the
// survivors' delivery and view oracles must hold throughout. This is the
// "general purpose protocol suite ... in a variety of settings" claim
// (§2/§7) exercised as one continuous lifecycle rather than isolated
// scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/sim_host.h"
#include "util/rng.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

TEST(Churn, GenerationalGroupReplacement) {
  // A long-lived service migrates through 6 "generations": each
  // generation is a fresh group formed by the survivors plus one
  // newcomer, after which the oldest member departs. (The paper's
  // software-upgrade story from §2, iterated.)
  WorldConfig cfg;
  cfg.processes = 9;
  cfg.seed = 99;
  LoggedWorld w(cfg);

  // Generation 0: {0, 1, 2}.
  std::vector<ProcessId> members{0, 1, 2};
  GroupId gen = 1;
  w.create_group(gen, members);
  w.run_for(300 * kMillisecond);

  for (int generation = 1; generation <= 6; ++generation) {
    // Serve some traffic in the current generation.
    for (int i = 0; i < 5; ++i) {
      w.multicast(members[i % members.size()], gen,
                  "gen" + std::to_string(generation) + "#" +
                      std::to_string(i));
      w.run_for(10 * kMillisecond);
    }
    w.run_for(kSecond);
    // All current members agree on the traffic.
    const auto ref = w.log(members[0]).delivered_strings(gen);
    for (ProcessId p : members) {
      ASSERT_EQ(w.log(p).delivered_strings(gen), ref)
          << "generation " << generation << " diverged at P" << p;
    }

    // Next generation: survivors + newcomer form gen+1, oldest departs.
    const ProcessId newcomer = static_cast<ProcessId>(2 + generation);
    const ProcessId oldest = members.front();
    std::vector<ProcessId> next_members(members.begin() + 1, members.end());
    next_members.push_back(newcomer);
    std::sort(next_members.begin(), next_members.end());
    const GroupId next_gen = gen + 1;
    w.ep(newcomer).initiate_group(next_gen, next_members, {}, w.now());
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          for (ProcessId p : next_members) {
            if (!w.ep(p).open_for_app(next_gen)) return false;
          }
          return true;
        },
        w.now() + 20 * kSecond))
        << "generation " << generation + 1 << " never formed";
    // The oldest leaves the old generation; everyone else leaves too
    // (the old group is retired).
    for (ProcessId p : members) {
      w.ep(p).leave_group(gen, w.now());
    }
    (void)oldest;
    members = next_members;
    gen = next_gen;
    w.run_for(500 * kMillisecond);
  }

  // Final generation still fully operational.
  w.multicast(members[0], gen, "final");
  w.run_for(2 * kSecond);
  for (ProcessId p : members) {
    const auto d = w.log(p).delivered_strings(gen);
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.back(), "final") << "P" << p;
  }
}

TEST(Churn, CrashesDuringSteadyTrafficNeverDiverge) {
  // 8 processes, one group; crash one process every few seconds while
  // traffic flows continuously; survivors' sequences must stay identical
  // prefixes of each other at every checkpoint.
  WorldConfig cfg;
  cfg.processes = 8;
  cfg.seed = 101;
  LoggedWorld w(cfg);
  std::vector<ProcessId> members{0, 1, 2, 3, 4, 5, 6, 7};
  w.create_group(1, members);
  w.run_for(300 * kMillisecond);

  std::set<ProcessId> crashed;
  int msg = 0;
  for (ProcessId victim : {7u, 6u, 5u, 4u, 3u}) {
    // Traffic burst from live members.
    for (int i = 0; i < 6; ++i) {
      for (ProcessId p : members) {
        if (crashed.count(p) == 0) {
          w.multicast(p, 1, "m" + std::to_string(msg++));
        }
      }
      w.run_for(15 * kMillisecond);
    }
    w.crash(victim);
    crashed.insert(victim);
    // Wait for the view to shrink at the (eventual) survivors.
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (crashed.count(p) > 0) continue;
            const View* v = w.ep(p).view(1);
            if (v == nullptr ||
                v->members.size() != members.size() - crashed.size()) {
              return false;
            }
          }
          return true;
        },
        w.now() + 30 * kSecond))
        << "view never stabilised after crashing P" << victim;
    w.run_for(kSecond);
    // Checkpoint: all survivors agree on their delivered sequences.
    std::vector<std::string> ref;
    bool first = true;
    for (ProcessId p : members) {
      if (crashed.count(p) > 0) continue;
      const auto d = w.log(p).delivered_strings(1);
      if (first) {
        ref = d;
        first = false;
      } else {
        ASSERT_EQ(d, ref) << "divergence after crashing P" << victim
                          << " at P" << p;
      }
    }
  }
  // Down to 3 members and still ordering.
  w.multicast(0, 1, "survivors");
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1).back(), "survivors");
  EXPECT_EQ(w.log(2).delivered_strings(1).back(), "survivors");
}

TEST(Churn, OverlappingGroupsChurnIndependently) {
  // Three overlapping groups churn on different schedules; cross-group
  // members must never see their groups interfere.
  WorldConfig cfg;
  cfg.processes = 6;
  cfg.seed = 103;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2, 3});
  w.create_group(2, {2, 3, 4, 5});
  w.create_group(3, {0, 5});
  w.run_for(300 * kMillisecond);

  // g1 loses P3 by crash; g2 loses P3 too (same crash) and P4 by leave.
  for (int i = 0; i < 5; ++i) {
    w.multicast(0, 1, "a" + std::to_string(i));
    w.multicast(2, 2, "b" + std::to_string(i));
    w.multicast(5, 3, "c" + std::to_string(i));
    w.run_for(10 * kMillisecond);
  }
  w.crash(3);
  w.ep(4).leave_group(2, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v1 = w.ep(0).view(1);
        const View* v2 = w.ep(2).view(2);
        return v1 && v1->members == std::vector<ProcessId>{0, 1, 2} && v2 &&
               v2->members == std::vector<ProcessId>{2, 5};
      },
      w.now() + 30 * kSecond));
  // g3 was never touched: its view is still the original.
  EXPECT_EQ(w.ep(0).view(3)->members, (std::vector<ProcessId>{0, 5}));
  EXPECT_EQ(w.ep(0).view(3)->seq, 0u);
  // Common member P2 of g1/g2 has identical cross-group order vs P... it
  // is the only one in both; check its own deliveries stayed key-ordered.
  const auto dels = w.log(2).deliveries();
  for (std::size_t i = 1; i < dels.size(); ++i) {
    const auto& a = dels[i - 1].delivery;
    const auto& b = dels[i].delivery;
    EXPECT_LT(std::tuple(a.counter, a.group, a.sender),
              std::tuple(b.counter, b.group, b.sender));
  }
  // Everyone in each group agrees.
  w.run_for(2 * kSecond);
  EXPECT_EQ(w.log(0).delivered_strings(1),
            w.log(1).delivered_strings(1));
  EXPECT_EQ(w.log(2).delivered_strings(2),
            w.log(5).delivered_strings(2));
}

TEST(Churn, RapidLeaveRejoinCycles) {
  // A process repeatedly departs and "rejoins" (fresh groups) — ten
  // cycles; ids and state must never leak between cycles.
  WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 107;
  LoggedWorld w(cfg);
  for (GroupId g = 1; g <= 10; ++g) {
    w.ep(0).initiate_group(g, {0, 1, 2}, {}, w.now());
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          return w.ep(0).open_for_app(g) && w.ep(1).open_for_app(g) &&
                 w.ep(2).open_for_app(g);
        },
        w.now() + 20 * kSecond))
        << "cycle " << g << " formation failed";
    w.multicast(2, g, "cycle" + std::to_string(g));
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          for (ProcessId p = 0; p < 3; ++p) {
            if (w.log(p).delivered_strings(g).empty()) return false;
          }
          return true;
        },
        w.now() + 10 * kSecond));
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(w.log(p).delivered_strings(g),
                std::vector<std::string>{"cycle" + std::to_string(g)});
      w.ep(p).leave_group(g, w.now());
    }
    w.run_for(100 * kMillisecond);
  }
  // No residual groups anywhere.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(w.ep(p).group_ids().empty()) << "P" << p;
  }
}

}  // namespace
}  // namespace newtop
