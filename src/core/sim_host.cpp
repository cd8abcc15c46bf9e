#include "core/sim_host.h"

#include "util/check.h"

namespace newtop::simhost {

util::Bytes to_bytes(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(b.begin(), b.end());
}

SimProcess::SimProcess(sim::Simulator& simulator, sim::Network& network,
                       ProcessId id, const HostConfig& config,
                       util::BufferPoolPtr pool)
    : sim_(simulator), net_(network), id_(id),
      tick_interval_(config.tick_interval) {
  node_ = net_.add_node([this](sim::NodeId from, util::SharedBytes data) {
    on_datagram(from, std::move(data));
  });
  NEWTOP_CHECK_MSG(node_ == id_, "process ids must be dense from 0");

  transport::ChannelConfig channel = config.channel;
  channel.pool = pool;
  router_ = std::make_unique<transport::Router>(
      id_, channel,
      /*send=*/
      [this](transport::PeerId to, util::Bytes data) {
        if (crashed_) return;
        if (sends_until_crash_) {
          if (*sends_until_crash_ == 0) {
            crash();
            return;
          }
          --*sends_until_crash_;
        }
        net_.send(node_, to, std::move(data));
        if (sends_until_crash_ && *sends_until_crash_ == 0) crash();
      },
      /*deliver=*/
      [this](transport::PeerId from, util::BytesView payload) {
        if (crashed_) return;
        endpoint_->on_message(from, std::move(payload), sim_.now());
      });

  EndpointHooks hooks;
  hooks.send = [this](ProcessId to, util::SharedBytes data) {
    if (crashed_) return;
    router_->send_buffered(to, std::move(data), sim_.now());
    schedule_flush();
  };
  hooks.send_relay = [this](ProcessId to, util::BytesView data) {
    if (crashed_) return;
    // Zero-copy relay forward: the received slice goes straight into the
    // channel, keeping its arrival datagram's allocation alive.
    router_->send_relayed(to, std::move(data), sim_.now());
    schedule_flush();
  };
  hooks.on_event = [this](const Event& ev) {
    if (app_sink_) app_sink_(ev);
  };
  hooks.buffer_pool = std::move(pool);
  endpoint_ = std::make_unique<Endpoint>(id_, config.endpoint,
                                         std::move(hooks));
  schedule_tick();
}

SendResult SimProcess::group_multicast(GroupId g, util::Bytes payload) {
  if (crashed_) return SendResult::kNotMember;
  return endpoint_->multicast(g, std::move(payload), sim_.now());
}

void SimProcess::group_leave(GroupId g) {
  if (!crashed_) endpoint_->leave_group(g, sim_.now());
}

std::optional<View> SimProcess::group_view(GroupId g) {
  // Crashed processes degrade to the rejecting defaults, exactly like a
  // stopped UdpNode (the api.h contract).
  if (crashed_) return std::nullopt;
  const View* v = endpoint_->view(g);
  return v != nullptr ? std::optional<View>(*v) : std::nullopt;
}

RetentionStats SimProcess::group_retention_stats(GroupId g) {
  if (crashed_) return RetentionStats{};
  return endpoint_->retention_stats(g);
}

bool SimProcess::group_join(GroupId g, JoinOptions opts) {
  if (crashed_) return false;
  return endpoint_->join_group(g, std::move(opts), sim_.now());
}

void SimProcess::on_datagram(sim::NodeId from, util::SharedBytes data) {
  if (crashed_) return;
  router_->on_datagram(from, util::BytesView(std::move(data)), sim_.now());
  // Flush anything the endpoint emitted in response — those data packets
  // piggyback (suppress) the ack this datagram deferred. A standalone
  // ack for a quiet receiver waits out the delayed-ack window and goes
  // with the next router tick instead.
  schedule_flush();
}

void SimProcess::schedule_flush() {
  if (flush_pending_) return;
  flush_pending_ = true;
  // Zero delay: the event runs after the current event (and anything the
  // test driver does between events) completes, at the same virtual time —
  // batching without adding latency.
  sim_.schedule_after(0, [this] {
    flush_pending_ = false;
    if (crashed_) return;
    router_->flush_batches(sim_.now());
  });
}

void SimProcess::schedule_tick() {
  sim_.schedule_after(tick_interval_, [this] {
    if (crashed_) return;
    router_->tick(sim_.now());
    endpoint_->on_tick(sim_.now());
    schedule_tick();
  });
}

void SimProcess::crash() {
  if (crashed_) return;
  crashed_ = true;
  net_.set_node_down(node_, true);
}

SimWorld::SimWorld(WorldConfig config)
    : cfg_(std::move(config)), rng_(cfg_.seed) {
  pool_ = util::BufferPool::create(cfg_.pool);
  sim::NetworkConfig net_cfg = cfg_.network;
  net_cfg.pool = pool_;
  net_ = std::make_unique<sim::Network>(sim_, net_cfg, rng_.fork());
  procs_.reserve(cfg_.processes);
  for (std::size_t i = 0; i < cfg_.processes; ++i) {
    procs_.push_back(std::make_unique<SimProcess>(
        sim_, *net_, static_cast<ProcessId>(i), cfg_.host, pool_));
  }
}

void SimWorld::create_group(GroupId g, const std::vector<ProcessId>& members,
                            GroupOptions options) {
  for (ProcessId p : members) {
    ep(p).create_group(g, members, options, sim_.now());
  }
}

SendResult SimWorld::multicast(ProcessId from, GroupId g,
                               std::string_view payload) {
  return ep(from).multicast(g, to_bytes(payload), sim_.now());
}

void SimWorld::partition(const std::vector<std::set<ProcessId>>& sides) {
  std::vector<std::set<sim::NodeId>> groups;
  groups.reserve(sides.size());
  for (const auto& side : sides) {
    groups.emplace_back(side.begin(), side.end());
  }
  net_->partition(groups);
}

}  // namespace newtop::simhost
