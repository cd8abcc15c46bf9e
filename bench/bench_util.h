// Shared helpers for the experiment benchmarks. All protocol-level
// latencies are *virtual time* (microseconds of simulated time), reported
// through benchmark counters; wall-clock Time/CPU columns only reflect
// simulation speed and are not experiment results.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/sim_host.h"
#include "logged_world.h"
#include "util/stats.h"

namespace newtop::benchutil {

using simhost::SimWorld;
using simhost::WorldConfig;
using sim::kMillisecond;
using sim::kSecond;

inline WorldConfig default_world(std::size_t n, std::uint64_t seed = 42) {
  WorldConfig cfg;
  cfg.processes = n;
  cfg.seed = seed;
  cfg.network.latency =
      sim::LatencyModel::uniform(1 * kMillisecond, 8 * kMillisecond);
  return cfg;
}

inline std::vector<ProcessId> all_members(std::size_t n) {
  std::vector<ProcessId> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = static_cast<ProcessId>(i);
  return m;
}

// Sends `count` multicasts from rotating senders with `gap` virtual time
// between them, then waits for full delivery; returns per-message
// send-to-last-delivery latency samples (virtual ms).
inline util::Samples measure_delivery_latency(LoggedWorld& w, GroupId g,
                                              const std::vector<ProcessId>& members,
                                              int count, sim::Duration gap) {
  util::Samples latency_ms;
  for (int i = 0; i < count; ++i) {
    const ProcessId sender = members[i % members.size()];
    const std::string payload = "bm" + std::to_string(i);
    const sim::Time sent_at = w.now();
    w.multicast(sender, g, payload);
    // Wait until every member delivered this payload.
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            const auto d = w.log(p).delivered_strings(g);
            if (d.empty() || d.back() != payload) {
              // Search fully (other traffic may follow).
              bool found = false;
              for (const auto& s : d) {
                if (s == payload) {
                  found = true;
                  break;
                }
              }
              if (!found) return false;
            }
          }
          return true;
        },
        w.now() + 30 * kSecond);
    if (ok) {
      latency_ms.add(static_cast<double>(w.now() - sent_at) /
                     kMillisecond);
    }
    w.run_for(gap);
  }
  return latency_ms;
}

// Records a machine-readable result for a benchmark so the perf
// trajectory across PRs can be scraped from CI logs. Google Benchmark
// re-invokes the benchmark function while calibrating the iteration
// count, so results are buffered in a registry (last call wins — the
// final, fully-measured run) and printed once at process exit:
//   BENCH_JSON {"bench":"<name>","k1":v1,...}
// Keys are sorted (std::map) so lines diff cleanly between runs.
inline void emit_bench_json(const std::string& bench,
                            const std::map<std::string, double>& fields) {
  static std::map<std::string, std::map<std::string, double>> registry;
  static const bool hooked = [] {
    std::atexit([] {
      for (const auto& [name, vals] : registry) {
        std::string line = "BENCH_JSON {\"bench\":\"" + name + "\"";
        char buf[64];
        for (const auto& [k, v] : vals) {
          std::snprintf(buf, sizeof(buf), "%.6g", v);
          line += ",\"" + k + "\":" + buf;
        }
        line += "}";
        std::fprintf(stdout, "%s\n", line.c_str());
      }
      std::fflush(stdout);
    });
    return true;
  }();
  (void)hooked;
  registry[bench] = fields;
}

inline void report_latency(benchmark::State& state,
                           const util::Samples& samples) {
  if (samples.empty()) return;
  state.counters["lat_ms_mean"] = samples.mean();
  state.counters["lat_ms_p50"] = samples.percentile(50);
  state.counters["lat_ms_p99"] = samples.percentile(99);
}

}  // namespace newtop::benchutil
