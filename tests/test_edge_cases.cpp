// Edge-path coverage: atomic-only groups under membership changes, the
// suspicion introspection API, flow control in asymmetric groups,
// crash-mid-multicast fan-out behaviour, and endpoint behaviour at
// extreme configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

WorldConfig world_cfg(std::size_t n, std::uint64_t seed = 211) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 6 * kMillisecond);
  return cfg;
}

TEST(AtomicOnly, CrashStillProducesConsistentViews) {
  GroupOptions o;
  o.guarantee = Guarantee::kAtomicOnly;
  LoggedWorld w(world_cfg(4));
  w.create_group(1, {0, 1, 2, 3}, o);
  w.run_for(300 * kMillisecond);
  w.multicast(0, 1, "pre");
  w.run_for(kSecond);
  w.crash(3);
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        for (ProcessId p = 0; p < 3; ++p) {
          const View* v = w.ep(p).view(1);
          if (v == nullptr || v->members.size() != 3) return false;
        }
        return true;
      },
      w.now() + 15 * kSecond));
  w.multicast(1, 1, "post");
  w.run_for(2 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    const auto d = w.log(p).delivered_strings(1);
    EXPECT_EQ(std::count(d.begin(), d.end(), std::string("pre")), 1);
    EXPECT_EQ(std::count(d.begin(), d.end(), std::string("post")), 1);
  }
}

TEST(AtomicOnly, NoOrderingDelayEvenWithSilentMembers) {
  GroupOptions o;
  o.guarantee = Guarantee::kAtomicOnly;
  WorldConfig cfg = world_cfg(5);
  cfg.host.endpoint.omega = 10 * kSecond;      // nulls essentially off
  cfg.host.endpoint.omega_big = 60 * kSecond;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2, 3, 4}, o);
  w.multicast(0, 1, "instant");
  w.run_for(30 * kMillisecond);  // ~2 network hops, no null traffic at all
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              std::vector<std::string>{"instant"})
        << "P" << p;
  }
}

TEST(AtomicOnly, LeaveWorks) {
  GroupOptions o;
  o.guarantee = Guarantee::kAtomicOnly;
  SimWorld w(world_cfg(3));
  w.create_group(1, {0, 1, 2}, o);
  w.run_for(300 * kMillisecond);
  w.ep(2).leave_group(1, w.now());
  ASSERT_TRUE(w.run_until_pred(
      [&] {
        const View* v = w.ep(0).view(1);
        return v && v->members == std::vector<ProcessId>{0, 1};
      },
      w.now() + 15 * kSecond));
}

TEST(Suspicion, IntrospectionTracksLifecycle) {
  SimWorld w(world_cfg(3, /*seed=*/223));
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);
  EXPECT_FALSE(w.ep(0).suspects(1, 2));
  w.network().set_link_down(2, 0, true);
  ASSERT_TRUE(w.run_until_pred([&] { return w.ep(0).suspects(1, 2); },
                               w.now() + 5 * kSecond));
  w.network().set_link_down(2, 0, false);
  // Refutation (peer or self) clears it.
  ASSERT_TRUE(w.run_until_pred([&] { return !w.ep(0).suspects(1, 2); },
                               w.now() + 5 * kSecond));
  EXPECT_TRUE(w.ep(0).view(1)->contains(2));
}

TEST(FlowControl, AsymmetricOutstandingWindow) {
  GroupOptions o;
  o.mode = OrderMode::kAsymmetric;
  WorldConfig cfg = world_cfg(3, /*seed=*/227);
  cfg.host.endpoint.flow_window = 3;
  cfg.network.latency = sim::LatencyModel::constant(40 * kMillisecond);
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2}, o);
  w.run_for(300 * kMillisecond);
  // Burst 10 sends from a non-sequencer: at most 3 outstanding forwards.
  for (int i = 0; i < 10; ++i) {
    w.multicast(2, 1, "f" + std::to_string(i));
  }
  EXPECT_LE(w.ep(2).own_unstable(1), 3u);
  EXPECT_GT(w.ep(2).queued_sends(), 0u);
  w.run_for(10 * kSecond);
  const auto d = w.log(0).delivered_strings(1);
  ASSERT_EQ(d.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d[i], "f" + std::to_string(i));
}

TEST(CrashMidMulticast, PrefixOnlyFanOut) {
  // crash_after_sends(k): only a prefix of the destinations receives the
  // final multicast; survivors must resolve it consistently — either all
  // deliver (recovery) or none (lnmn cut).
  for (std::uint64_t sends : {0ull, 1ull, 2ull}) {
    LoggedWorld w(world_cfg(4, /*seed=*/229 + sends));
    w.create_group(1, {0, 1, 2, 3});
    w.run_for(300 * kMillisecond);
    w.process(3).crash_after_sends(sends);
    w.multicast(3, 1, "final words");
    ASSERT_TRUE(w.run_until_pred(
        [&] {
          for (ProcessId p = 0; p < 3; ++p) {
            const View* v = w.ep(p).view(1);
            if (v == nullptr || v->members.size() != 3) return false;
          }
          return true;
        },
        w.now() + 30 * kSecond))
        << "sends=" << sends;
    w.run_for(2 * kSecond);
    const auto d0 = w.log(0).delivered_strings(1);
    EXPECT_EQ(d0, w.log(1).delivered_strings(1)) << "sends=" << sends;
    EXPECT_EQ(d0, w.log(2).delivered_strings(1)) << "sends=" << sends;
  }
}

TEST(ExtremeConfig, TinyOmegaStillCorrect) {
  WorldConfig cfg = world_cfg(3, /*seed=*/233);
  cfg.host.endpoint.omega = 2 * kMillisecond;
  cfg.host.endpoint.omega_big = 50 * kMillisecond;
  cfg.host.tick_interval = 1 * kMillisecond;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    w.multicast(static_cast<ProcessId>(i % 3), 1, "t" + std::to_string(i));
    w.run_for(5 * kMillisecond);
  }
  w.run_for(2 * kSecond);
  const auto ref = w.log(0).delivered_strings(1);
  EXPECT_EQ(ref.size(), 10u);
  EXPECT_EQ(w.log(1).delivered_strings(1), ref);
  EXPECT_EQ(w.log(2).delivered_strings(1), ref);
}

TEST(ExtremeConfig, HugeGroupFortyMembers) {
  WorldConfig cfg = world_cfg(40, /*seed=*/239);
  LoggedWorld w(cfg);
  std::vector<ProcessId> members;
  for (ProcessId p = 0; p < 40; ++p) members.push_back(p);
  w.create_group(1, members);
  w.multicast(17, 1, "big");
  w.multicast(33, 1, "group");
  w.run_for(5 * kSecond);
  const auto ref = w.log(0).delivered_strings(1);
  ASSERT_EQ(ref.size(), 2u);
  for (ProcessId p = 1; p < 40; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1), ref) << "P" << p;
  }
}

TEST(ExtremeConfig, EmptyPayloadAndLargePayload) {
  LoggedWorld w(world_cfg(2, /*seed=*/241));
  w.create_group(1, {0, 1});
  w.ep(0).multicast(1, util::Bytes{}, w.now());          // empty
  util::Bytes big(64 * 1024, 0x5A);                      // 64 KiB
  w.ep(0).multicast(1, big, w.now());
  w.run_for(2 * kSecond);
  const auto dels = w.log(1).deliveries();
  ASSERT_EQ(dels.size(), 2u);
  EXPECT_TRUE(dels[0].delivery.payload.empty());
  EXPECT_EQ(dels[1].delivery.payload, big);
}

}  // namespace
}  // namespace newtop
