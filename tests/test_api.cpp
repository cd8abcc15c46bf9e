// Unified application API (core/api.h): the typed event stream,
// SendResult semantics and the GroupHandle facade
// over the sim host. Real-time handle behaviour is covered in
// test_udp.cpp (threads and sockets); these tests pin the contract
// itself.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "core/sim_host.h"
#include "logged_world.h"

namespace newtop {
namespace {

using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

WorldConfig tiny_world(std::size_t n) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 5 * kMillisecond);
  return cfg;
}

TEST(Api, SendResultPredicatesAndNames) {
  EXPECT_TRUE(send_accepted(SendResult::kSent));
  EXPECT_TRUE(send_accepted(SendResult::kQueued));
  EXPECT_FALSE(send_accepted(SendResult::kNotMember));
  EXPECT_FALSE(send_accepted(SendResult::kBackpressure));
  EXPECT_STREQ(to_string(SendResult::kSent), "sent");
  EXPECT_STREQ(to_string(SendResult::kQueued), "queued");
  EXPECT_STREQ(to_string(SendResult::kNotMember), "not-member");
  EXPECT_STREQ(to_string(SendResult::kBackpressure), "backpressure");
}

TEST(Api, SendCountsTally) {
  SendCounts c;
  c.note(SendResult::kSent);
  c.note(SendResult::kSent);
  c.note(SendResult::kQueued);
  c.note(SendResult::kNotMember);
  c.note(SendResult::kBackpressure);
  EXPECT_EQ(c.sent, 2u);
  EXPECT_EQ(c.queued, 1u);
  EXPECT_EQ(c.accepted(), 3u);
  EXPECT_EQ(c.rejected(), 2u);
  EXPECT_EQ(c.total(), 5u);
}

TEST(Api, EndpointWorksWithOnlyAnEventSink) {
  // The host contract: one event sink. Two bare endpoints wired
  // back-to-back through their send hooks.
  struct Node {
    std::vector<Event> events;
    std::unique_ptr<Endpoint> ep;
  };
  Node n0, n1;
  auto make = [](Node& n, ProcessId self, Node& peer) {
    EndpointHooks hooks;
    hooks.send = [&peer, self](ProcessId, util::SharedBytes data) {
      peer.ep->on_message(self, util::BytesView(std::move(data)), 1);
    };
    hooks.on_event = [&n](const Event& ev) { n.events.push_back(ev); };
    n.ep = std::make_unique<Endpoint>(self, Config{}, std::move(hooks));
  };
  make(n0, 0, n1);
  make(n1, 1, n0);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  n0.ep->create_group(1, {0, 1}, opts, 0);
  n1.ep->create_group(1, {0, 1}, opts, 0);

  EXPECT_EQ(n0.ep->multicast(1, bytes_of("ping"), 1), SendResult::kSent);

  auto delivered = [](const Node& n) {
    std::vector<std::string> out;
    for (const auto& ev : n.events) {
      if (const auto* de = std::get_if<DeliveryEvent>(&ev)) {
        out.emplace_back(de->delivery.payload.begin(),
                         de->delivery.payload.end());
      }
    }
    return out;
  };
  EXPECT_EQ(delivered(n0), std::vector<std::string>{"ping"});
  EXPECT_EQ(delivered(n1), std::vector<std::string>{"ping"});
}

TEST(Api, SimWorldGroupHandleFacade) {
  LoggedWorld w(tiny_world(3));
  w.create_group(1, {0, 1, 2});

  GroupHandle h = w.group(0, 1);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.id(), 1u);
  EXPECT_TRUE(send_accepted(h.multicast(simhost::to_bytes("hello"))));
  w.run_for(1 * kSecond);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(w.log(p).delivered_strings(1),
              std::vector<std::string>{"hello"});
  }

  const auto v = h.view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->members, (std::vector<ProcessId>{0, 1, 2}));
  const RetentionStats rs = h.retention_stats();
  EXPECT_LE(rs.used_bytes, rs.pinned_bytes);

  // Unknown group and departed group report kNotMember through the same
  // surface; a default-constructed handle rejects without a host.
  EXPECT_EQ(w.group(0, 42).multicast(bytes_of("x")),
            SendResult::kNotMember);
  EXPECT_FALSE(w.group(0, 42).view().has_value());
  h.leave();
  EXPECT_EQ(h.multicast(bytes_of("after")), SendResult::kNotMember);
  EXPECT_FALSE(h.view().has_value());
  GroupHandle null_handle;
  EXPECT_FALSE(null_handle.valid());
  EXPECT_EQ(null_handle.multicast(bytes_of("x")), SendResult::kNotMember);
  EXPECT_FALSE(null_handle.view().has_value());
}

TEST(Api, AppEventSinkSeesViewChanges) {
  // SimProcess::set_event_sink: the application's sink receives the
  // typed stream, here chained behind the process's EventLog.
  LoggedWorld w(tiny_world(3));
  w.create_group(1, {0, 1, 2});
  std::vector<GroupId> view_changes;
  w.process(0).set_event_sink(w.log(0).sink([&](const Event& ev) {
    if (const auto* vc = std::get_if<ViewChangeEvent>(&ev)) {
      view_changes.push_back(vc->group);
    }
  }));
  w.multicast(0, 1, "pre-crash");
  w.run_for(1 * kSecond);
  w.crash(2);
  w.run_for(3 * kSecond);
  ASSERT_GE(view_changes.size(), 1u);
  EXPECT_EQ(view_changes[0], 1u);
  // The log ahead of the sink saw the same installation.
  ASSERT_GE(w.log(0).views().size(), 1u);
  EXPECT_EQ(w.log(0).views().back().view.members,
            (std::vector<ProcessId>{0, 1}));
}

}  // namespace
}  // namespace newtop
