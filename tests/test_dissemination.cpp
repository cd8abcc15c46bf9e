// Dissemination overlay tests: the plan's ring/tree hop computation, and
// end-to-end sim scenarios showing relay groups deliver the same total
// order as full-mesh — including with a relay killed mid-burst, where the
// Ω suspector plus refute/recovery must close the gap before the next
// view repairs the overlay.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/dissemination.h"
#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

std::vector<ProcessId> members_of(std::size_t n) {
  std::vector<ProcessId> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = static_cast<ProcessId>(i);
  return m;
}

DisseminationPlan make_plan(DisseminationStrategy s, std::size_t n,
                            std::uint32_t arity = 2) {
  GroupOptions opts;
  opts.dissemination = s;
  opts.relay_arity = arity;
  View v;
  v.members = members_of(n);
  return DisseminationPlan::build(opts, v);
}

const std::function<bool(ProcessId)> kNoneSuspected =
    [](ProcessId) { return false; };

// ---------------------------------------------------------------------
// Plan unit tests
// ---------------------------------------------------------------------

TEST(DisseminationPlan, FullMeshOriginSendsToAll) {
  const auto plan = make_plan(DisseminationStrategy::kFullMesh, 5);
  EXPECT_FALSE(plan.relaying());
  const auto hops = plan.next_hops(2, 2, kNoneSuspected);
  EXPECT_TRUE(hops.relay.empty());
  EXPECT_EQ(hops.direct, (std::vector<ProcessId>{0, 1, 3, 4}));
  // Non-origins never transmit under mesh.
  const auto other = plan.next_hops(1, 2, kNoneSuspected);
  EXPECT_TRUE(other.relay.empty());
  EXPECT_TRUE(other.direct.empty());
}

TEST(DisseminationPlan, TinyGroupsDowngradeToMesh) {
  EXPECT_FALSE(make_plan(DisseminationStrategy::kRing, 2).relaying());
  EXPECT_FALSE(make_plan(DisseminationStrategy::kTree, 1).relaying());
  EXPECT_TRUE(make_plan(DisseminationStrategy::kRing, 3).relaying());
}

TEST(DisseminationPlan, RingForwardsToSuccessorAndStopsAtOrigin) {
  const auto plan = make_plan(DisseminationStrategy::kRing, 5);
  // Origin 1 sends to its successor only.
  auto hops = plan.next_hops(1, 1, kNoneSuspected);
  EXPECT_EQ(hops.relay, (std::vector<ProcessId>{2}));
  EXPECT_TRUE(hops.direct.empty());
  // A mid-ring member forwards onward.
  hops = plan.next_hops(4, 1, kNoneSuspected);
  EXPECT_EQ(hops.relay, (std::vector<ProcessId>{0}));
  // The member whose successor is the origin stops the ring.
  hops = plan.next_hops(0, 1, kNoneSuspected);
  EXPECT_TRUE(hops.relay.empty());
  EXPECT_TRUE(hops.direct.empty());
}

TEST(DisseminationPlan, RingWalksPastSuspectedSuccessors) {
  const auto plan = make_plan(DisseminationStrategy::kRing, 5);
  const auto hops = plan.next_hops(
      1, 1, [](ProcessId p) { return p == 2 || p == 3; });
  // Suspected hops still get direct (terminal) copies; the first live
  // successor carries the relay duty onward.
  EXPECT_EQ(hops.direct, (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(hops.relay, (std::vector<ProcessId>{4}));
}

TEST(DisseminationPlan, RingAllSuccessorsSuspectedDegradesToDirect) {
  const auto plan = make_plan(DisseminationStrategy::kRing, 4);
  const auto hops =
      plan.next_hops(0, 0, [](ProcessId p) { return p != 0; });
  EXPECT_TRUE(hops.relay.empty());
  EXPECT_EQ(hops.direct, (std::vector<ProcessId>{1, 2, 3}));
}

TEST(DisseminationPlan, RingMatchesSuccessorWalkExhaustive) {
  // Oracle: the ring as a cyclic successor walk over the sorted view.
  // Each suspected successor gets a direct copy and the walk moves past
  // it; the first live one is the relay hop; the walk never wraps back
  // onto the origin.
  const auto walk = [](std::size_t n, ProcessId self, ProcessId origin,
                       std::uint32_t suspected_mask) {
    DisseminationPlan::Hops hops;
    for (std::size_t step = 1; step < n; ++step) {
      const auto c = static_cast<ProcessId>((self + step) % n);
      if (c == origin) break;
      if ((suspected_mask >> c) & 1u) {
        hops.direct.push_back(c);
        continue;
      }
      hops.relay.push_back(c);
      break;
    }
    return hops;
  };
  for (std::size_t n = 3; n <= 10; ++n) {
    // relay_arity is irrelevant to a ring; a non-default value proves it.
    const auto plan = make_plan(DisseminationStrategy::kRing, n, /*arity=*/3);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const std::function<bool(ProcessId)> suspected =
          [mask](ProcessId p) { return ((mask >> p) & 1u) != 0; };
      for (ProcessId origin = 0; origin < n; ++origin) {
        for (ProcessId self = 0; self < n; ++self) {
          const auto got = plan.next_hops(self, origin, suspected);
          const auto want = walk(n, self, origin, mask);
          ASSERT_EQ(got.relay, want.relay)
              << "n=" << n << " mask=" << mask << " origin=" << origin
              << " self=" << self;
          ASSERT_EQ(got.direct, want.direct)
              << "n=" << n << " mask=" << mask << " origin=" << origin
              << " self=" << self;
        }
      }
    }
  }
}

TEST(DisseminationPlan, TreeRootFansOutToArityChildren) {
  const auto plan = make_plan(DisseminationStrategy::kTree, 7, /*arity=*/2);
  // Origin 0: tree indices are ranks directly. Children of 0 are {1, 2};
  // both have children of their own, so both are relay hops.
  const auto hops = plan.next_hops(0, 0, kNoneSuspected);
  EXPECT_EQ(hops.relay, (std::vector<ProcessId>{1, 2}));
  EXPECT_TRUE(hops.direct.empty());
  // Interior node 1 (children 3, 4 — leaves).
  const auto mid = plan.next_hops(1, 0, kNoneSuspected);
  EXPECT_EQ(mid.relay, (std::vector<ProcessId>{3, 4}));
  // Leaves forward nothing.
  const auto leaf = plan.next_hops(5, 0, kNoneSuspected);
  EXPECT_TRUE(leaf.relay.empty());
  EXPECT_TRUE(leaf.direct.empty());
}

TEST(DisseminationPlan, TreeIsOriginRooted) {
  const auto plan = make_plan(DisseminationStrategy::kTree, 7, /*arity=*/2);
  // Origin 3: indices rotate, so member (3 + i) mod 7 has tree index i.
  // Root 3's children (indices 1, 2) are members 4 and 5.
  const auto hops = plan.next_hops(3, 3, kNoneSuspected);
  EXPECT_EQ(hops.relay, (std::vector<ProcessId>{4, 5}));
}

TEST(DisseminationPlan, TreeAdoptsSuspectedChildsSubtree) {
  const auto plan = make_plan(DisseminationStrategy::kTree, 7, /*arity=*/2);
  // Suspecting child 1 of origin-root 0: 1 gets a direct copy, and its
  // children {3, 4} are adopted as the root's own relay hops.
  const auto hops =
      plan.next_hops(0, 0, [](ProcessId p) { return p == 1; });
  EXPECT_EQ(hops.direct, (std::vector<ProcessId>{1}));
  std::vector<ProcessId> relay = hops.relay;
  std::sort(relay.begin(), relay.end());
  EXPECT_EQ(relay, (std::vector<ProcessId>{2, 3, 4}));
}

TEST(DisseminationPlan, EveryMemberReachedExactlyOnce) {
  // Structural exactly-once: union of all members' hop sets covers every
  // non-origin member exactly once, for both overlays and several sizes.
  for (const auto strategy :
       {DisseminationStrategy::kRing, DisseminationStrategy::kTree}) {
    for (const std::size_t n : {3u, 4u, 7u, 16u, 33u}) {
      const auto plan = make_plan(strategy, n, /*arity=*/3);
      for (ProcessId origin = 0; origin < static_cast<ProcessId>(n);
           ++origin) {
        std::vector<int> received(n, 0);
        for (ProcessId self = 0; self < static_cast<ProcessId>(n); ++self) {
          const auto hops = plan.next_hops(self, origin, kNoneSuspected);
          for (ProcessId p : hops.relay) ++received[p];
          for (ProcessId p : hops.direct) ++received[p];
        }
        for (ProcessId p = 0; p < static_cast<ProcessId>(n); ++p) {
          EXPECT_EQ(received[p], p == origin ? 0 : 1)
              << "strategy=" << static_cast<int>(strategy) << " n=" << n
              << " origin=" << origin << " member=" << p;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end sim scenarios
// ---------------------------------------------------------------------

WorldConfig relay_world(std::size_t n) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = 7;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 4 * kMillisecond);
  return cfg;
}

GroupOptions relay_opts(DisseminationStrategy s, std::uint32_t arity = 2) {
  GroupOptions opts;
  opts.dissemination = s;
  opts.relay_arity = arity;
  return opts;
}

// Drives a burst of multicasts from rotating senders and waits for every
// listed member to deliver all of them.
bool run_burst(LoggedWorld& w, GroupId g, const std::vector<ProcessId>& senders,
               const std::vector<ProcessId>& receivers, int count,
               std::size_t expect_total, const std::string& tag) {
  for (int i = 0; i < count; ++i) {
    w.multicast(senders[i % senders.size()], g, tag + std::to_string(i));
    w.run_for(2 * kMillisecond);
  }
  return w.run_until_pred(
      [&] {
        for (ProcessId p : receivers) {
          if (w.log(p).delivered_strings(g).size() < expect_total)
            return false;
        }
        return true;
      },
      w.now() + 120 * kSecond);
}

void expect_same_order(LoggedWorld& w, GroupId g,
                       const std::vector<ProcessId>& members) {
  const auto ref = w.log(members.front()).delivered_strings(g);
  for (ProcessId p : members) {
    EXPECT_EQ(w.log(p).delivered_strings(g), ref) << "P" << p;
  }
}

TEST(DisseminationSim, RingDeliversTotalOrderWithFewerDatagrams) {
  const std::size_t n = 8;
  const auto members = members_of(n);

  auto run = [&](DisseminationStrategy s) {
    LoggedWorld w(relay_world(n));
    w.create_group(1, members, relay_opts(s));
    w.run_for(200 * kMillisecond);
    const std::uint64_t before = w.network().stats().datagrams_sent;
    EXPECT_TRUE(run_burst(w, 1, members, members, 24, 24, "m"));
    expect_same_order(w, 1, members);
    return w.network().stats().datagrams_sent - before;
  };

  const std::uint64_t mesh = run(DisseminationStrategy::kFullMesh);
  const std::uint64_t ring = run(DisseminationStrategy::kRing);
  // The overlay must actually thin the wire: same workload, same
  // delivery outcome, materially fewer datagrams.
  EXPECT_LT(ring, mesh) << "ring overlay sent more than full mesh";
}

TEST(DisseminationSim, TreeDeliversTotalOrder) {
  const std::size_t n = 9;
  const auto members = members_of(n);
  LoggedWorld w(relay_world(n));
  w.create_group(1, members, relay_opts(DisseminationStrategy::kTree, 3));
  w.run_for(200 * kMillisecond);
  EXPECT_TRUE(run_burst(w, 1, members, members, 27, 27, "t"));
  expect_same_order(w, 1, members);
  EXPECT_GT(w.ep(0).stats().relays_originated, 0u);
}

TEST(DisseminationSim, RingSuccessorCrashMidBurstNoGaps) {
  // P0's ring successor (P1) dies mid-burst: messages relayed through it
  // stop reaching downstream members until Ω suspects the silence and
  // recovery replays the gap; the next view drops P1 and repairs the
  // ring. Every survivor must end with the identical gap-free order.
  const std::size_t n = 6;
  const auto members = members_of(n);
  LoggedWorld w(relay_world(n));
  w.create_group(1, members, relay_opts(DisseminationStrategy::kRing));
  w.run_for(200 * kMillisecond);

  std::vector<ProcessId> survivors;
  for (ProcessId p : members) {
    if (p != 1) survivors.push_back(p);
  }
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    if (w.multicast(0, 1, "pre" + std::to_string(i)) == SendResult::kSent)
      ++sent;
    w.run_for(2 * kMillisecond);
  }
  w.crash(1);
  for (int i = 0; i < 10; ++i) {
    if (w.multicast(0, 1, "post" + std::to_string(i)) == SendResult::kSent)
      ++sent;
    w.run_for(2 * kMillisecond);
  }
  // Survivors must install a view without P1 and deliver every multicast.
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p : survivors) {
          const auto v = w.ep(p).view(1);
          if (v == nullptr || v->contains(1)) return false;
          if (w.log(p).delivered_strings(1).size() <
              static_cast<std::size_t>(sent))
            return false;
        }
        return true;
      },
      w.now() + 120 * kSecond))
      << "survivors wedged after ring relay crash";
  expect_same_order(w, 1, survivors);
  // No gaps: every sent payload delivered exactly once.
  const auto d = w.log(0).delivered_strings(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::count(d.begin(), d.end(), "pre" + std::to_string(i)), 1);
  }
}

TEST(DisseminationSim, TreeInteriorRelayCrashMidBurstNoGaps) {
  // With origin 0 and arity 2, member 1 is an interior relay carrying the
  // subtree {3, 4} (plus their descendants): killing it severs several
  // leaves at once.
  const std::size_t n = 7;
  const auto members = members_of(n);
  LoggedWorld w(relay_world(n));
  w.create_group(1, members, relay_opts(DisseminationStrategy::kTree, 2));
  w.run_for(200 * kMillisecond);

  std::vector<ProcessId> survivors;
  for (ProcessId p : members) {
    if (p != 1) survivors.push_back(p);
  }
  int sent = 0;
  for (int i = 0; i < 8; ++i) {
    if (w.multicast(0, 1, "a" + std::to_string(i)) == SendResult::kSent)
      ++sent;
    w.run_for(2 * kMillisecond);
  }
  w.crash(1);
  for (int i = 0; i < 8; ++i) {
    if (w.multicast(0, 1, "b" + std::to_string(i)) == SendResult::kSent)
      ++sent;
    w.run_for(2 * kMillisecond);
  }
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p : survivors) {
          const auto v = w.ep(p).view(1);
          if (v == nullptr || v->contains(1)) return false;
          if (w.log(p).delivered_strings(1).size() <
              static_cast<std::size_t>(sent))
            return false;
        }
        return true;
      },
      w.now() + 120 * kSecond))
      << "survivors wedged after tree relay crash";
  expect_same_order(w, 1, survivors);
}

TEST(DisseminationSim, MixedModeGroupsShareOneTransport) {
  // A ring group and a full-mesh group over the same processes and the
  // same routers/channels: relay frames and direct frames interleave on
  // the same FIFO channels without confusing either group.
  const std::size_t n = 5;
  const auto members = members_of(n);
  LoggedWorld w(relay_world(n));
  w.create_group(1, members, relay_opts(DisseminationStrategy::kRing));
  w.create_group(2, members, relay_opts(DisseminationStrategy::kFullMesh));
  w.run_for(200 * kMillisecond);

  for (int i = 0; i < 12; ++i) {
    w.multicast(members[i % n], 1, "r" + std::to_string(i));
    w.multicast(members[(i + 2) % n], 2, "m" + std::to_string(i));
    w.run_for(2 * kMillisecond);
  }
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p : members) {
          if (w.log(p).delivered_strings(1).size() < 12) return false;
          if (w.log(p).delivered_strings(2).size() < 12) return false;
        }
        return true;
      },
      w.now() + 120 * kSecond));
  expect_same_order(w, 1, members);
  expect_same_order(w, 2, members);
  // The ring group relayed; the mesh group must not have.
  EXPECT_GT(w.ep(0).stats().relays_originated, 0u);
}

TEST(DisseminationSim, ViewChangeRecomputesPlan) {
  // After a member leaves, the ring closes over the survivors: the plan
  // in the installed view must route around the departed member without
  // it ever being suspected.
  const std::size_t n = 5;
  const auto members = members_of(n);
  LoggedWorld w(relay_world(n));
  w.create_group(1, members, relay_opts(DisseminationStrategy::kRing));
  w.run_for(200 * kMillisecond);
  EXPECT_TRUE(run_burst(w, 1, members, members, 5, 5, "x"));

  w.process(2).group_leave(1);
  std::vector<ProcessId> rest;
  for (ProcessId p : members) {
    if (p != 2) rest.push_back(p);
  }
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p : rest) {
          const auto v = w.ep(p).view(1);
          if (v == nullptr || v->contains(2)) return false;
        }
        return true;
      },
      w.now() + 60 * kSecond));
  const std::size_t base = w.log(0).delivered_strings(1).size();
  EXPECT_TRUE(run_burst(w, 1, rest, rest, 6, base + 6, "y"));
  expect_same_order(w, 1, rest);
}

}  // namespace
}  // namespace newtop
