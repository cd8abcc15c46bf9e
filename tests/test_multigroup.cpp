// Multi-group topology tests: the arbitrary overlapping structures §6
// highlights as Newtop's strength ("relatively easy to implement even
// when process groups overlap in an arbitrary manner", including the
// cyclic structures that make vector-clock approaches "difficult and
// expensive"). Each topology runs traffic through every group and checks
// the cross-group ordering oracles at every common member.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 12) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 7 * kMillisecond);
  return cfg;
}

std::vector<std::string> merged_order(LoggedWorld& w, ProcessId p) {
  std::vector<std::string> out;
  for (const auto& r : w.log(p).deliveries()) {
    out.push_back(simhost::to_string(r.delivery.payload));
  }
  return out;
}

// Checks that every pair of processes orders its common messages
// identically (MD4' across all shared groups).
void check_common_order(LoggedWorld& w, const std::vector<ProcessId>& procs) {
  for (ProcessId p : procs) {
    std::map<std::string, std::size_t> pos;
    const auto op = merged_order(w, p);
    for (std::size_t i = 0; i < op.size(); ++i) pos[op[i]] = i;
    for (ProcessId q : procs) {
      if (q <= p) continue;
      std::size_t last = 0;
      bool first = true;
      for (const auto& s : merged_order(w, q)) {
        auto it = pos.find(s);
        if (it == pos.end()) continue;
        if (!first) {
          ASSERT_GT(it->second, last)
              << "P" << p << "/P" << q << " disagree on '" << s << "'";
        }
        last = it->second;
        first = false;
      }
    }
  }
}

void drive_traffic(SimWorld& w,
                   const std::vector<std::pair<GroupId, ProcessId>>& sends,
                   int rounds) {
  // Monotonic across calls so payload strings are globally unique (the
  // order oracles key on them).
  static int n = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& [g, p] : sends) {
      w.multicast(p, g, "g" + std::to_string(g) + "#" + std::to_string(n++));
      w.run_for(3 * kMillisecond);
    }
  }
  w.run_for(5 * kSecond);
}

TEST(MultiGroup, CyclicGroupStructure) {
  // The Fig. 2 cycle: g1={0,1}, g2={1,2}, g3={2,3}, g4={3,0} — each
  // process is in exactly two groups forming a ring. Vector-clock systems
  // need transitive closure machinery here; Newtop just runs.
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1});
  w.create_group(2, {1, 2});
  w.create_group(3, {2, 3});
  w.create_group(4, {3, 0});
  w.run_for(200 * kMillisecond);
  drive_traffic(w,
                {{1, 0}, {2, 1}, {3, 2}, {4, 3}, {1, 1}, {2, 2}, {3, 3},
                 {4, 0}},
                4);
  check_common_order(w, {0, 1, 2, 3});
  // Each process delivered exactly the traffic of its two groups: 2
  // groups x 2 senders x 4 rounds = 16.
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(merged_order(w, p).size(), 16u) << "P" << p;
  }
}

TEST(MultiGroup, StarTopologyHubConsistency) {
  // One hub process in 5 groups, each shared with one spoke.
  LoggedWorld w(world_cfg(6));
  const ProcessId hub = 0;
  for (GroupId g = 1; g <= 5; ++g) {
    w.create_group(g, {hub, static_cast<ProcessId>(g)});
  }
  w.run_for(200 * kMillisecond);
  std::vector<std::pair<GroupId, ProcessId>> sends;
  for (GroupId g = 1; g <= 5; ++g) {
    sends.push_back({g, hub});
    sends.push_back({g, static_cast<ProcessId>(g)});
  }
  drive_traffic(w, sends, 3);
  // The hub delivered all 30 messages in one total order; each spoke's
  // 6-message subsequence must agree with it.
  check_common_order(w, {0, 1, 2, 3, 4, 5});
  EXPECT_EQ(merged_order(w, hub).size(), 30u);
}

TEST(MultiGroup, NestedGroups) {
  // g1 ⊃ g2 ⊃ g3: every g3 member also sees g1/g2 traffic.
  LoggedWorld w(world_cfg(6, /*seed=*/31));
  w.create_group(1, {0, 1, 2, 3, 4, 5});
  w.create_group(2, {0, 1, 2, 3});
  w.create_group(3, {0, 1});
  w.run_for(200 * kMillisecond);
  drive_traffic(w, {{1, 5}, {2, 3}, {3, 1}, {1, 0}, {2, 0}, {3, 0}}, 4);
  check_common_order(w, {0, 1, 2, 3, 4, 5});
}

TEST(MultiGroup, SharedPairAcrossManyGroups) {
  // P0 and P1 co-exist in 6 groups with distinct third members; their
  // merged delivery orders must match across *all* of them.
  LoggedWorld w(world_cfg(8, /*seed=*/41));
  for (GroupId g = 1; g <= 6; ++g) {
    w.create_group(g, {0, 1, static_cast<ProcessId>(g + 1)});
  }
  w.run_for(200 * kMillisecond);
  std::vector<std::pair<GroupId, ProcessId>> sends;
  for (GroupId g = 1; g <= 6; ++g) {
    sends.push_back({g, static_cast<ProcessId>(g + 1)});
  }
  sends.push_back({3, 0});
  sends.push_back({5, 1});
  drive_traffic(w, sends, 3);
  check_common_order(w, {0, 1});
  EXPECT_EQ(merged_order(w, 0), merged_order(w, 1));
}

TEST(MultiGroup, MixedModesAcrossTopology) {
  // Alternate symmetric/asymmetric around a ring (§4.3 generic version).
  LoggedWorld w(world_cfg(4, /*seed=*/43));
  GroupOptions asym;
  asym.mode = OrderMode::kAsymmetric;
  w.create_group(1, {0, 1});          // sym
  w.create_group(2, {1, 2}, asym);    // asym
  w.create_group(3, {2, 3});          // sym
  w.create_group(4, {3, 0}, asym);    // asym
  w.run_for(200 * kMillisecond);
  drive_traffic(w, {{1, 0}, {2, 1}, {3, 2}, {4, 3}, {2, 2}, {4, 0}}, 4);
  check_common_order(w, {0, 1, 2, 3});
}

TEST(MultiGroup, CrashInOneGroupDoesNotCorruptOthers) {
  // P3 is in g2 only; its crash must not perturb g1's order, and g2's
  // survivors must converge.
  LoggedWorld w(world_cfg(4, /*seed=*/47));
  w.create_group(1, {0, 1});
  w.create_group(2, {1, 2, 3});
  w.run_for(300 * kMillisecond);
  drive_traffic(w, {{1, 0}, {2, 2}}, 3);
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(1).view(2);
        return v && v->members == std::vector<ProcessId>{1, 2};
      },
      w.now() + 15 * kSecond));
  drive_traffic(w, {{1, 1}, {2, 1}}, 3);
  check_common_order(w, {0, 1, 2});
}

TEST(MultiGroup, CausalRelayChainOrdering) {
  // A five-hop relay chain across five two-member groups: m_i is sent
  // only after m_{i-1} was delivered. Every message number must strictly
  // increase along the chain (pr1/pr2), and the chain's endpoints agree.
  LoggedWorld w(world_cfg(6, /*seed=*/53));
  for (GroupId g = 1; g <= 5; ++g) {
    w.create_group(g, {static_cast<ProcessId>(g - 1),
                       static_cast<ProcessId>(g)});
  }
  w.run_for(200 * kMillisecond);
  Counter prev_counter = 0;
  for (GroupId g = 1; g <= 5; ++g) {
    const auto sender = static_cast<ProcessId>(g - 1);
    const auto receiver = static_cast<ProcessId>(g);
    const std::string payload = "hop" + std::to_string(g);
    w.multicast(sender, g, payload);
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          const auto d = w.log(receiver).delivered_strings(g);
          return !d.empty() && d.back() == payload;
        },
        w.now() + 10 * kSecond))
        << "hop " << g << " never delivered";
    // Find the hop's counter at the receiver.
    for (const auto& r : w.log(receiver).deliveries()) {
      if (simhost::to_string(r.delivery.payload) == payload) {
        EXPECT_GT(r.delivery.counter, prev_counter)
            << "logical clocks failed to carry causality across groups";
        prev_counter = r.delivery.counter;
      }
    }
  }
}

TEST(MultiGroup, TwentyGroupsOneProcessStress) {
  // One process in 20 groups: D_i = min over 20 D values; every group's
  // time-silence keeps them all advancing.
  LoggedWorld w(world_cfg(21, /*seed=*/59));
  for (GroupId g = 1; g <= 20; ++g) {
    w.create_group(g, {0, static_cast<ProcessId>(g)});
  }
  w.run_for(300 * kMillisecond);
  for (GroupId g = 1; g <= 20; ++g) {
    w.multicast(static_cast<ProcessId>(g), g, "x" + std::to_string(g));
  }
  w.run_for(5 * kSecond);
  EXPECT_EQ(merged_order(w, 0).size(), 20u);
  EXPECT_EQ(w.ep(0).group_ids().size(), 20u);
}

}  // namespace
}  // namespace newtop
