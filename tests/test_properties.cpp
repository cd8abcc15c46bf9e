// Property-based tests: randomized schedules (traffic, topology, crashes,
// partitions) swept over seeds, checked against the paper's correctness
// properties as oracles:
//
//   O1 (MD4/safe2)  — each process delivers in strictly increasing
//                     (counter, group, sender) key order;
//   O2 (MD4/MD4')   — any two processes deliver their *common* messages in
//                     the same relative order, across all shared groups;
//   O3 (MD5/FIFO)   — per (group, sender): if anyone delivered counter c1
//                     and p delivered a later counter c2 from the same
//                     sender, p also delivered c1;
//   O4 (MD3/VC3)    — processes that installed the same view r with the
//                     same membership and the same successor view deliver
//                     identical message sets in view r;
//   O5 (liveness)   — after quiescence, no process retains undelivered
//                     queued messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/sim_host.h"
#include "util/rng.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

struct MsgId {
  GroupId group;
  ProcessId sender;
  Counter counter;
  auto operator<=>(const MsgId&) const = default;
};

MsgId id_of(const Delivery& d) { return MsgId{d.group, d.sender, d.counter}; }

// O1: strictly increasing delivery keys per process (total-order groups).
void check_key_monotonicity(const LoggedWorld& w, ProcessId p) {
  const auto dels = w.log(p).deliveries();
  for (std::size_t i = 1; i < dels.size(); ++i) {
    const auto& a = dels[i - 1].delivery;
    const auto& b = dels[i].delivery;
    const auto ka = std::tuple{a.counter, a.group, a.sender};
    const auto kb = std::tuple{b.counter, b.group, b.sender};
    ASSERT_LT(ka, kb) << "P" << p << " delivered out of key order at index "
                      << i;
  }
}

// O2: pairwise order consistency on common messages.
void check_pairwise_order(LoggedWorld& w, ProcessId p, ProcessId q) {
  std::map<MsgId, std::size_t> pos;
  const auto dp = w.log(p).deliveries();
  for (std::size_t i = 0; i < dp.size(); ++i) pos[id_of(dp[i].delivery)] = i;
  std::size_t last = 0;
  bool first = true;
  const auto dq = w.log(q).deliveries();
  for (const auto& r : dq) {
    auto it = pos.find(id_of(r.delivery));
    if (it == pos.end()) continue;
    if (!first) {
      ASSERT_GT(it->second, last)
          << "P" << p << " and P" << q << " disagree on order of ("
          << r.delivery.group << "," << r.delivery.sender << ","
          << r.delivery.counter << ")";
    }
    last = it->second;
    first = false;
  }
}

// O3: per-(group, sender) prefix closure against the union of deliveries.
void check_sender_prefix_closure(LoggedWorld& w,
                                 const std::vector<ProcessId>& alive) {
  std::map<std::pair<GroupId, ProcessId>, std::set<Counter>> all;
  for (ProcessId p : alive) {
    for (const auto& r : w.log(p).deliveries()) {
      all[{r.delivery.group, r.delivery.sender}].insert(r.delivery.counter);
    }
  }
  for (ProcessId p : alive) {
    std::map<std::pair<GroupId, ProcessId>, Counter> max_seen;
    for (const auto& r : w.log(p).deliveries()) {
      auto key = std::pair{r.delivery.group, r.delivery.sender};
      auto& m = max_seen[key];
      m = std::max(m, r.delivery.counter);
    }
    for (const auto& [key, maxc] : max_seen) {
      std::set<Counter> mine;
      for (const auto& r : w.log(p).deliveries()) {
        if (std::pair{r.delivery.group, r.delivery.sender} == key) {
          mine.insert(r.delivery.counter);
        }
      }
      for (Counter c : all[key]) {
        if (c < maxc) {
          ASSERT_TRUE(mine.count(c) > 0)
              << "P" << p << " skipped (" << key.first << "," << key.second
              << "," << c << ") but delivered " << maxc;
        }
      }
    }
  }
}

// O4: identical delivery sets between identical consecutive views.
void check_view_atomicity(LoggedWorld& w, const std::vector<ProcessId>& alive,
                          GroupId g) {
  // For each process: view seq -> (membership, delivered ids in that view).
  struct PerView {
    std::vector<ProcessId> members;
    std::set<MsgId> delivered;
    bool has_next = false;
    std::vector<ProcessId> next_members;
  };
  std::map<ProcessId, std::map<ViewSeq, PerView>> data;
  for (ProcessId p : alive) {
    auto& mine = data[p];
    // View 0 membership comes from group creation; reconstruct from the
    // records: every installed view r>0 is in views; deliveries carry r.
    for (const auto& vr : w.log(p).views()) {
      if (vr.group != g) continue;
      mine[vr.view.seq].members = vr.view.members;
      auto prev = mine.find(vr.view.seq - 1);
      if (prev != mine.end()) {
        prev->second.has_next = true;
        prev->second.next_members = vr.view.members;
      }
    }
    for (const auto& r : w.log(p).deliveries()) {
      if (r.delivery.group != g) continue;
      mine[r.delivery.view_seq].delivered.insert(id_of(r.delivery));
    }
  }
  for (ProcessId p : alive) {
    for (ProcessId q : alive) {
      if (p >= q) continue;
      for (const auto& [r, pv] : data[p]) {
        auto qit = data[q].find(r);
        if (qit == data[q].end()) continue;
        const auto& qv = qit->second;
        // Only comparable when both know the membership of r and r+1 and
        // they agree on both (the MD3 precondition).
        if (pv.members.empty() || qv.members.empty()) continue;
        if (!pv.has_next || !qv.has_next) continue;
        if (pv.members != qv.members || pv.next_members != qv.next_members)
          continue;
        ASSERT_EQ(pv.delivered, qv.delivered)
            << "MD3 violated: P" << p << " and P" << q
            << " delivered different sets in view " << r << " of group "
            << g;
      }
    }
  }
}

struct Scenario {
  std::size_t processes;
  struct Group {
    GroupId id;
    std::vector<ProcessId> members;
    GroupOptions options;
  };
  std::vector<Group> groups;
  std::vector<ProcessId> to_crash;
  bool use_partition = false;
  std::vector<std::set<ProcessId>> partition_sides;
};

Scenario random_scenario(util::Rng& rng, bool allow_crashes,
                         bool allow_partition) {
  Scenario s;
  s.processes = 3 + rng.next_below(5);  // 3..7
  const std::size_t n_groups = 1 + rng.next_below(3);
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    Scenario::Group g;
    g.id = static_cast<GroupId>(gi + 1);
    // Random membership of size >= 2.
    std::vector<ProcessId> perm(s.processes);
    for (std::size_t i = 0; i < s.processes; ++i)
      perm[i] = static_cast<ProcessId>(i);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
    const std::size_t size = 2 + rng.next_below(s.processes - 1);
    g.members.assign(perm.begin(), perm.begin() + size);
    std::sort(g.members.begin(), g.members.end());
    if (!allow_partition) {
      g.options.mode = rng.next_bool(0.4) ? OrderMode::kAsymmetric
                                          : OrderMode::kSymmetric;
    }
    s.groups.push_back(std::move(g));
  }
  if (allow_crashes && s.processes > 3 && rng.next_bool(0.7)) {
    s.to_crash.push_back(
        static_cast<ProcessId>(s.processes - 1 - rng.next_below(2)));
  }
  if (allow_partition && rng.next_bool(0.6)) {
    s.use_partition = true;
    std::set<ProcessId> a, b;
    for (std::size_t i = 0; i < s.processes; ++i) {
      (rng.next_bool(0.5) ? a : b).insert(static_cast<ProcessId>(i));
    }
    if (!a.empty() && !b.empty()) {
      s.partition_sides = {a, b};
    } else {
      s.use_partition = false;
    }
  }
  return s;
}

void run_random_schedule(std::uint64_t seed, bool allow_crashes,
                         bool allow_partition) {
  util::Rng rng(seed);
  const Scenario s = random_scenario(rng, allow_crashes, allow_partition);

  WorldConfig cfg;
  cfg.processes = s.processes;
  cfg.seed = seed * 7919 + 13;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 10 * kMillisecond);
  LoggedWorld w(cfg);
  for (const auto& g : s.groups) {
    w.create_group(g.id, g.members, g.options);
  }

  std::set<ProcessId> crashed;
  const int steps = 30 + static_cast<int>(rng.next_below(40));
  bool partitioned = false;
  int msg_no = 0;
  for (int step = 0; step < steps; ++step) {
    const auto& g = s.groups[rng.next_below(s.groups.size())];
    // Pick a live sender from the group.
    std::vector<ProcessId> candidates;
    for (ProcessId p : g.members) {
      if (crashed.count(p) == 0) candidates.push_back(p);
    }
    if (!candidates.empty()) {
      const ProcessId sender = candidates[rng.next_below(candidates.size())];
      w.multicast(sender, g.id, "m" + std::to_string(msg_no++));
    }
    // Mid-run faults at random points.
    if (!s.to_crash.empty() && step == steps / 3) {
      for (ProcessId p : s.to_crash) {
        w.crash(p);
        crashed.insert(p);
      }
    }
    if (s.use_partition && step == steps / 2 && !partitioned) {
      w.partition(s.partition_sides);
      partitioned = true;
    }
    if (partitioned && step == (3 * steps) / 4) {
      w.heal();
      partitioned = false;
    }
    w.run_for(static_cast<sim::Duration>(rng.next_below(20)) *
              kMillisecond);
  }
  if (partitioned) w.heal();
  // Quiescence: long enough for agreement, recovery and delivery.
  w.run_for(60 * kSecond);

  std::vector<ProcessId> alive;
  for (std::size_t p = 0; p < s.processes; ++p) {
    if (crashed.count(static_cast<ProcessId>(p)) == 0) {
      alive.push_back(static_cast<ProcessId>(p));
    }
  }

  for (ProcessId p : alive) check_key_monotonicity(w, p);
  for (ProcessId p : alive) {
    for (ProcessId q : alive) {
      if (p < q) check_pairwise_order(w, p, q);
    }
  }
  check_sender_prefix_closure(w, alive);
  for (const auto& g : s.groups) {
    check_view_atomicity(w, alive, g.id);
  }
  // O5: no process is left holding undeliverable messages.
  for (ProcessId p : alive) {
    EXPECT_EQ(w.ep(p).queued_deliveries(), 0u)
        << "P" << p << " still holds queued messages after quiescence";
  }
}

class FaultFreeProperty : public ::testing::TestWithParam<std::uint64_t> {};
class CrashProperty : public ::testing::TestWithParam<std::uint64_t> {};
class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFreeProperty, RandomScheduleHoldsOracles) {
  run_random_schedule(GetParam(), /*allow_crashes=*/false,
                      /*allow_partition=*/false);
}

TEST_P(CrashProperty, RandomScheduleHoldsOracles) {
  run_random_schedule(GetParam(), /*allow_crashes=*/true,
                      /*allow_partition=*/false);
}

TEST_P(PartitionProperty, RandomScheduleHoldsOracles) {
  run_random_schedule(GetParam(), /*allow_crashes=*/true,
                      /*allow_partition=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFreeProperty,
                         ::testing::Range<std::uint64_t>(1, 41));
INSTANTIATE_TEST_SUITE_P(Seeds, CrashProperty,
                         ::testing::Range<std::uint64_t>(100, 140));
INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Range<std::uint64_t>(200, 240));

// Fault-free runs must additionally deliver *everything everywhere*: each
// member of a group delivers exactly the multicasts sent in it.
TEST(FaultFreeCompleteness, AllMessagesDeliveredToAllMembers) {
  for (std::uint64_t seed = 500; seed < 510; ++seed) {
    util::Rng rng(seed);
    WorldConfig cfg;
    cfg.processes = 4;
    cfg.seed = seed;
    LoggedWorld w(cfg);
    w.create_group(1, {0, 1, 2, 3});
    const int n_msgs = 20;
    for (int i = 0; i < n_msgs; ++i) {
      w.multicast(static_cast<ProcessId>(rng.next_below(4)), 1,
                  "m" + std::to_string(i));
      w.run_for(static_cast<sim::Duration>(rng.next_below(10)) *
                kMillisecond);
    }
    w.run_for(10 * kSecond);
    const auto ref = w.log(0).delivered_strings(1);
    ASSERT_EQ(ref.size(), static_cast<std::size_t>(n_msgs))
        << "seed " << seed;
    for (ProcessId p = 1; p < 4; ++p) {
      ASSERT_EQ(w.log(p).delivered_strings(1), ref)
          << "seed " << seed << " P" << p;
    }
  }
}

}  // namespace
}  // namespace newtop
