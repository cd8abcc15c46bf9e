// The plan runner shared by every workload: it runs the seeded plan
// (probe, idle, reference, rate ladder, churn) against a Cluster, then
// checks the delivery oracle and derives the end-to-end metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

// Cumulative counters summed over processes, keyed "layer.counter".
using Counters = std::map<std::string, double>;

struct Action {
  std::int64_t offset_ns = 0;
  std::function<void()> fn;
};

struct GenStats {
  std::vector<double> lag_ms;  // how late each send left, vs its due time
  std::uint64_t unsent = 0;    // sends skipped after the memory cap hit
  std::uint64_t abandoned = 0;  // ladder-step sends not offered (step failed)
};

// A running group of processes on some host. Times are in ns: real
// steady-clock time on the UDP host, virtual time on the simulator.
class Cluster {
 public:
  virtual ~Cluster() = default;

  virtual std::int64_t now_ns() = 0;
  // Offers the phase's sends at start_ns + offset (open loop: each is
  // timed from its due time, whether or not earlier ones completed) and
  // runs each action at its offset. A real-time host stops issuing when
  // `keep_going` (if set) turns false.
  virtual void run_sends(const PhasePlan& ph, std::int64_t start_ns,
                         const std::vector<Action>& actions, GenStats& gen,
                         const std::function<bool()>& keep_going = {}) = 0;
  // Lets the system run until pred() holds or the deadline passes.
  virtual bool wait(const std::function<bool()>& pred,
                    std::int64_t deadline_ns) = 0;
  virtual bool capped() const = 0;
  // CPU of the generator thread (excluded from the loop-thread CPU).
  virtual double generator_cpu_s() = 0;
  virtual Counters counters() = 0;
  // Engine retention over every live member: {pinned bytes, used bytes}.
  virtual std::pair<double, double> retention() = 0;
};

// Membership faults for the churn phase (hosts that run churn workloads).
class Churn {
 public:
  virtual ~Churn() = default;
  virtual void crash(ProcessId p) = 0;
  virtual bool join(ProcessId p, GroupId g,
                    std::vector<ProcessId> contacts) = 0;
};

struct LadderStep {
  double rate = 0;
  double p99_ms = 0;
  bool passed = false;
};

struct RunReport {
  double setup_s = 0;
  double idle_p50_ms = 0;
  double ref_p50_ms = 0;
  double ref_p99_ms = 0;
  double max_rate_per_s = 0;
  double ref_cpu_s = 0;
  double ref_gen_cpu_s = 0;
  double ref_deliveries = 0;
  double ref_allocs = 0;
  Counters ref_before, ref_after, end;
  double pinned_over_used = 0;
  double peak_rss_mb = 0;
  double outage_ms = 0;
  double view_change_ms = 0;
  double join_ms = 0;
  double gen_lag_p99_ms = 0;
};

// Runs the whole plan. `setup_start_ns` (mono_ns) is when cluster
// construction began; setup time is real time until the probe is
// delivered everywhere, on every host.
RunReport run_plan(Cluster& c, Churn* churn, const WorkloadSpec& w,
                   const Plan& plan, Recorder& rec,
                   std::int64_t setup_start_ns, Result& result);

// Setup only: the probe, nothing else. Returns setup seconds (< 0 on
// failure).
double run_setup_probe(Cluster& c, const WorkloadSpec& w, const Plan& plan,
                       Recorder& rec, std::int64_t setup_start_ns);

// Counter delta helper: after[k] - before[k] (missing = 0).
double delta(const Counters& before, const Counters& after,
             const std::string& key);

}  // namespace perfbench
