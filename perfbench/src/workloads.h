// Entry points of the hosts the benchmark drives (UDP, simulator, and the
// traced in-process host), and the metric definitions they share.
#pragma once

#include <cstdint>
#include <string>

#include "core/ordering.h"
#include "plan_runner.h"
#include "harness.h"
#include "transport/fifo_channel.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  bool setup_only = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// Default run length the phase lengths in harness.cpp are written for.
inline constexpr double kDefaultSeconds = 12;

// Per-layer self times from the traced in-process replay.
struct TraceReport {
  double ep_rx_ns = 0, ep_tx_ns = 0, ep_tick_ns = 0;
  double rt_rx_ns = 0, rt_tx_ns = 0, rt_tick_ns = 0;
  double sink_ns = 0;
  double decode_ns = 0;
  double unexplained_share = 0;
  double overhead_share = 0;
};

// Replays the plan's reference phase and rate ladder through a
// single-threaded host that wires one Endpoint + Router per member, with
// spans around every call into the layers. `buffered` selects the
// simulator host's Router::send_buffered; otherwise the UDP host's
// Router::send / send_relayed.
TraceReport run_traced(const WorkloadSpec& w, const Plan& plan,
                       std::uint64_t seed, bool buffered,
                       const std::string& span_file);

int run_udp_workload(const WorkloadSpec& w, const Options& o);
int run_sim_workload(const WorkloadSpec& w, const Options& o);

// Metric tables (names and units are the benchmark's public contract).
void add_end_to_end(const RunReport& r, Result& out);
struct LayerInputs {
  bool udp = false;
  double teardown_stalls = 0;
  const TraceReport* trace = nullptr;
};
void add_per_layer(const RunReport& r, const LayerInputs& in, Result& out);

// Counter collection shared by the hosts.
void add_endpoint_counters(Counters& c, const newtop::EndpointStats& s);
void add_channel_counters(Counters& c,
                          const newtop::transport::ChannelStats& s);

// Prints notes to stderr and the result as the last stdout line.
void emit(const Result& r);

}  // namespace perfbench
