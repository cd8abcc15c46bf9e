// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--trace-dir <dir>]
//
// Prints one JSON object as the last stdout line: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {

void add_endpoint_counters(Counters& c, const newtop::EndpointStats& s) {
  c["ep.deliveries"] += static_cast<double>(s.deliveries);
  c["ep.app_multicasts"] += static_cast<double>(s.app_multicasts);
  c["ep.nulls_sent"] += static_cast<double>(s.nulls_sent);
  c["ep.echoes_sequenced"] += static_cast<double>(s.echoes_sequenced);
  c["ep.relays_forwarded"] += static_cast<double>(s.relays_forwarded);
  c["ep.relay_repairs_served"] +=
      static_cast<double>(s.relay_repairs_served);
  c["ep.suspects_sent"] += static_cast<double>(s.suspects_sent);
  c["ep.views_installed"] += static_cast<double>(s.views_installed);
  c["ep.snapshot_chunks_sent"] +=
      static_cast<double>(s.snapshot_chunks_sent);
  c["ep.join_requests_sent"] += static_cast<double>(s.join_requests_sent);
}

void add_channel_counters(Counters& c,
                          const newtop::transport::ChannelStats& s) {
  c["ch.packets_sent"] += static_cast<double>(s.packets_sent);
  c["ch.retransmissions"] += static_cast<double>(s.retransmissions);
  c["ch.acks_sent"] += static_cast<double>(s.acks_sent);
  c["ch.batches_sent"] += static_cast<double>(s.batches_sent);
  c["ch.batched_payloads"] += static_cast<double>(s.batched_payloads);
  c["io.tx_syscalls"] += static_cast<double>(s.tx_syscalls);
  c["io.rx_syscalls"] += static_cast<double>(s.rx_syscalls);
  c["io.tx_datagrams"] += static_cast<double>(s.tx_datagrams);
  c["io.rx_datagrams"] += static_cast<double>(s.rx_datagrams);
  c["io.rx_copies"] += static_cast<double>(s.rx_copies);
  c["io.wakeups"] += static_cast<double>(s.wakeups);
}

void add_end_to_end(const RunReport& r, Result& out) {
  const double n = std::max(r.ref_deliveries, 1.0);
  out.add("setup_s", r.setup_s, "s");
  out.add("lat_p50_ms", r.ref_p50_ms, "ms");
  out.add("lat_p99_ms", r.ref_p99_ms, "ms");
  out.add("lat_p50_ms.idle", r.idle_p50_ms, "ms");
  out.add("max_rate_per_s", r.max_rate_per_s, "1/s");
  out.add("cpu_us_per_delivery", r.ref_cpu_s * 1e6 / n, "us");
  out.add("peak_rss_mb", r.peak_rss_mb, "MB");
}

void add_per_layer(const RunReport& r, const LayerInputs& in, Result& out) {
  const Counters& a = r.ref_before;
  const Counters& b = r.ref_after;
  const double n = std::max(r.ref_deliveries, 1.0);
  const auto per = [&](const std::string& key) { return delta(a, b, key) / n; };
  const double loop_cpu_us =
      in.udp ? (r.ref_cpu_s - r.ref_gen_cpu_s) * 1e6 / n : 0;

  // transport.udp
  out.add("transport.udp.syscalls_per_delivery",
          in.udp ? per("io.tx_syscalls") + per("io.rx_syscalls") : 0,
          "count");
  out.add("transport.udp.datagrams_per_delivery",
          in.udp ? per("io.tx_datagrams") : 0, "count");
  out.add("transport.udp.wakeups_per_delivery",
          in.udp ? per("io.wakeups") : 0, "count");
  out.add("transport.udp.loop_cpu_us_per_delivery", loop_cpu_us, "us");
  double layer_ns = 0;
  if (in.trace != nullptr) {
    const TraceReport& t = *in.trace;
    layer_ns = t.ep_rx_ns + t.ep_tx_ns + t.ep_tick_ns + t.rt_rx_ns +
               t.rt_tx_ns + t.rt_tick_ns;
  }
  out.add("transport.udp.host_share",
          in.udp && loop_cpu_us > 0 ? 1.0 - layer_ns / (loop_cpu_us * 1e3)
                                    : 0,
          "ratio");
  out.add("transport.udp.teardown_stalls", in.teardown_stalls, "count");

  // transport.router
  const double packets = delta(a, b, "ch.packets_sent");
  const double payloads = packets - delta(a, b, "ch.batches_sent") +
                          delta(a, b, "ch.batched_payloads");
  out.add("transport.router.payloads_per_data_packet",
          packets > 0 ? payloads / packets : 0, "count");
  out.add("transport.router.acks_per_delivery", per("ch.acks_sent"),
          "count");
  out.add("transport.router.retransmits_per_delivery",
          per("ch.retransmissions"), "count");

  // core.endpoint / ordering / dissemination
  out.add("core.endpoint.nulls_per_delivery", per("ep.nulls_sent"), "count");
  out.add("core.endpoint.pinned_over_used", r.pinned_over_used, "ratio");
  const double mcasts = delta(a, b, "ep.app_multicasts");
  out.add("core.ordering.echoes_per_multicast",
          mcasts > 0 ? delta(a, b, "ep.echoes_sequenced") / mcasts : 0,
          "count");
  out.add("core.dissemination.forwards_per_delivery",
          per("ep.relays_forwarded"), "count");
  const auto total = [&](const std::string& key) {
    const auto it = r.end.find(key);
    return it == r.end.end() ? 0.0 : it->second;
  };
  out.add("core.dissemination.repairs", total("ep.relay_repairs_served"),
          "count");

  // core.membership / core.state_transfer: the churn phase (workloads
  // without one report 0)
  out.add("core.membership.outage_ms", r.outage_ms, "ms");
  out.add("core.membership.view_change_ms", r.view_change_ms, "ms");
  out.add("core.state_transfer.join_ms", r.join_ms, "ms");
  out.add("core.membership.suspects_sent", total("ep.suspects_sent"),
          "count");
  out.add("core.membership.views_installed", total("ep.views_installed"),
          "count");
  out.add("core.state_transfer.chunks", total("ep.snapshot_chunks_sent"),
          "count");
  out.add("core.state_transfer.join_retries",
          std::max(0.0, total("ep.join_requests_sent") - 1), "count");

  // util
  out.add("util.allocs_per_delivery", r.ref_allocs / n, "count");
  const double acq = delta(a, b, "pool.acquires");
  out.add("util.pool_hit_rate",
          acq > 0 ? delta(a, b, "pool.acquire_hits") / acq : 0, "ratio");

  // traced run
  const TraceReport t = in.trace != nullptr ? *in.trace : TraceReport{};
  out.add("core.endpoint.rx_ns", t.ep_rx_ns, "ns");
  out.add("core.endpoint.tx_ns", t.ep_tx_ns, "ns");
  out.add("core.endpoint.tick_ns", t.ep_tick_ns, "ns");
  out.add("transport.router.rx_ns", t.rt_rx_ns, "ns");
  out.add("transport.router.tx_ns", t.rt_tx_ns, "ns");
  out.add("transport.router.tick_ns", t.rt_tick_ns, "ns");
  out.add("core.wire.decode_ns", t.decode_ns, "ns");
  out.add("app.sink_ns", t.sink_ns, "ns");
  out.add("trace.unexplained_share", t.unexplained_share, "ratio");
  out.add("trace.overhead_share", t.overhead_share, "ratio");
  out.add("harness.gen_lag_p99_ms", r.gen_lag_p99_ms, "ms");
}

void emit(const Result& r) {
  for (const auto& note : r.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", to_json(r).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only] "
               "[--trace-dir <dir>]\nworkloads:",
               why);
  for (const auto& n : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--trace-dir") {
      o.trace_dir = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const perfbench::WorkloadSpec* w = perfbench::find_workload(o.workload);
  if (w == nullptr) usage("unknown workload");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (w->host == perfbench::HostKind::kUdp) {
    return perfbench::run_udp_workload(*w, o);
  }
  return perfbench::run_sim_workload(*w, o);
}
