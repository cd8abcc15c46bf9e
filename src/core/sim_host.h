// Simulation harness: wires Newtop endpoints to the reliable FIFO
// transport and the simulated network inside a discrete-event Simulator.
//
// SimWorld is the top-level object used by tests, benchmarks and the
// examples: it owns a Simulator, a Network and N SimProcesses, provides
// fault injection (crashes — including crash-mid-multicast — and
// partitions). It records nothing: correctness oracles (MD1-MD5',
// VC1-VC3) read an EventLog (core/event_log.h) attached through each
// process's event sink.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/endpoint.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/router.h"
#include "util/buffer_pool.h"

namespace newtop::simhost {

struct HostConfig {
  Config endpoint;
  transport::ChannelConfig channel;
  sim::Duration tick_interval = 5 * sim::kMillisecond;
};

// One simulated node: Endpoint + Router bound to a Network node, driven
// by a periodic tick event. All processes of a world share one
// BufferPool (the world's), which also backs the Network's datagram
// buffers: tx encodes and rx datagrams recycle through the same
// freelists.
//
// The process hands the engine's unified event stream (core/api.h)
// straight to the application's sink (set_event_sink) and keeps none of
// it, and the process is the GroupHost behind SimWorld::group handles.
class SimProcess : public GroupHost {
 public:
  SimProcess(sim::Simulator& simulator, sim::Network& network, ProcessId id,
             const HostConfig& config, util::BufferPoolPtr pool);

  ProcessId id() const { return id_; }
  Endpoint& endpoint() { return *endpoint_; }
  const Endpoint& endpoint() const { return *endpoint_; }
  transport::Router& router() { return *router_; }

  // Application event sink: receives every engine event. Replaces a
  // previous sink.
  void set_event_sink(EventSink sink) { app_sink_ = std::move(sink); }

  // Facade over one group membership (also via SimWorld::group).
  GroupHandle group(GroupId g) { return GroupHandle(this, g); }

  // GroupHost: direct calls into the endpoint at the current sim time.
  SendResult group_multicast(GroupId g, util::Bytes payload) override;
  void group_leave(GroupId g) override;
  std::optional<View> group_view(GroupId g) override;
  RetentionStats group_retention_stats(GroupId g) override;
  bool group_join(GroupId g, JoinOptions opts) override;

  // Halts the process: no more ticks, sends or receives. In-flight
  // datagrams it already emitted still arrive (a crash does not recall
  // packets from the wire).
  void crash();
  bool crashed() const { return crashed_; }

  // Crash after the next `n` datagram transmissions — the paper's "a
  // multicast made by a process can be interrupted due to the crash of
  // that process" (§2). With n smaller than the group fan-out, only a
  // prefix of the destinations receives the multicast. A single
  // multicast still costs one datagram per peer under transport
  // batching, so per-destination slicing is unaffected; but several
  // messages emitted to the same peer in one causal step share a
  // BatchFrame and are lost or delivered together.
  void crash_after_sends(std::uint64_t n) { sends_until_crash_ = n; }

 private:
  void on_datagram(sim::NodeId from, util::SharedBytes data);
  void schedule_tick();
  // Flush-on-idle: endpoint sends are buffered in the router and flushed
  // by a zero-delay event once the current input has been fully processed,
  // so everything a process emits in one causal step to the same peer
  // rides one BatchFrame datagram.
  void schedule_flush();

  sim::Simulator& sim_;
  sim::Network& net_;
  ProcessId id_;
  sim::NodeId node_;
  sim::Duration tick_interval_;
  bool crashed_ = false;
  bool flush_pending_ = false;
  std::optional<std::uint64_t> sends_until_crash_;
  EventSink app_sink_;
  std::unique_ptr<transport::Router> router_;
  std::unique_ptr<Endpoint> endpoint_;
};

struct WorldConfig {
  std::size_t processes = 0;
  std::uint64_t seed = 42;
  sim::NetworkConfig network;
  HostConfig host;
  // Buffer pooling (world-wide; enabled by default). Set
  // pool.enabled = false to fall back to plain heap allocation.
  util::BufferPoolConfig pool;
};

class SimWorld {
 public:
  explicit SimWorld(WorldConfig config);

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  const util::BufferPoolPtr& pool() const { return pool_; }
  sim::Time now() const { return sim_.now(); }
  std::size_t size() const { return procs_.size(); }

  SimProcess& process(ProcessId p) { return *procs_.at(p); }
  Endpoint& ep(ProcessId p) { return procs_.at(p)->endpoint(); }

  // Installs the same static initial view on every listed member
  // (the paper's "initially formed" group, §3).
  void create_group(GroupId g, const std::vector<ProcessId>& members,
                    GroupOptions options = {});

  // Facade over process p's membership in g (see api.h); identical to
  // what the UDP host hands out.
  GroupHandle group(ProcessId p, GroupId g) {
    return procs_.at(p)->group(g);
  }

  // Convenience: multicast a string payload, propagating the engine's
  // admission verdict (send_accepted(r) is the old boolean).
  SendResult multicast(ProcessId from, GroupId g, std::string_view payload);

  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }
  void run_until(sim::Time t) { sim_.run_until(t); }
  bool run_until_pred(const std::function<bool()>& pred, sim::Time deadline) {
    return sim_.run_until_pred(pred, deadline);
  }

  void crash(ProcessId p) { procs_.at(p)->crash(); }
  void partition(const std::vector<std::set<ProcessId>>& sides);
  void heal() { net_->heal(); }

 private:
  WorldConfig cfg_;
  sim::Simulator sim_;
  util::Rng rng_;
  util::BufferPoolPtr pool_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<SimProcess>> procs_;
};

// Converts a string to payload bytes and back (examples/tests). The
// reverse direction takes a span so Bytes and BytesView both convert.
util::Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace newtop::simhost
