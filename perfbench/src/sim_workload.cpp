// Simulated workload: SimWorld processes on the event simulator's
// network (seeded latency and loss). Latencies are virtual time; CPU,
// memory and setup time are real. The plan is repeated with derived
// seeds until the run's time budget is used; metrics are medians over
// the repetitions (CPU and memory: see the end of run_sim_workload).
#include <cstdio>
#include <map>
#include <memory>

#include "core/sim_host.h"
#include "workloads.h"

namespace perfbench {

namespace {

using newtop::simhost::SimWorld;
using newtop::simhost::WorldConfig;

constexpr std::int64_t kNsPerUs = 1000;

class SimCluster final : public Cluster, public Churn {
 public:
  SimCluster(const WorkloadSpec& w, Recorder& rec, std::uint64_t seed)
      : w_(w), rec_(rec), seed_(seed), world_(config(w, seed)) {
    for (ProcessId p = 0; p < w.processes; ++p) {
      world_.process(p).set_event_sink([this, p](const newtop::Event& ev) {
        rec_.on_event(p, ev, now_ns());
      });
    }
    for (const GroupSpec& g : w.groups) {
      world_.create_group(g.id, g.members, options(g));
    }
  }

  std::int64_t now_ns() override { return world_.now() * kNsPerUs; }

  void run_sends(const PhasePlan& ph, std::int64_t start_ns,
                 const std::vector<Action>& actions, GenStats& gen,
                 const std::function<bool()>& /*keep_going*/) override {
    if (!capped_ && rss_mb() > w_.mem_cap_mb) capped_ = true;
    if (capped_) {
      gen.unsent += ph.sends.size();
      return;
    }
    auto& sim = world_.simulator();
    const std::int64_t start_us = start_ns / kNsPerUs;
    for (const PlannedSend& s : ph.sends) {
      const std::int64_t due_us = start_us + s.offset_ns / kNsPerUs;
      sim.schedule_at(due_us, [this, s, due_us] {
        rec_.set_due(s.seq, due_us * kNsPerUs);
        newtop::util::Bytes payload;
        fill_payload(payload, s.seq, s.sender, w_.payload_bytes, seed_);
        const auto r = world_.group(s.sender, w_.groups[s.group_index].id)
                           .multicast(std::move(payload));
        rec_.set_verdict(s.seq, r);
      });
      gen.lag_ms.push_back(0);  // virtual time: sends leave exactly on time
    }
    for (const Action& a : actions) {
      sim.schedule_at(start_us + a.offset_ns / kNsPerUs, a.fn);
    }
    world_.run_until(start_us + ph.length_ns / kNsPerUs);
  }

  bool wait(const std::function<bool()>& pred,
            std::int64_t deadline_ns) override {
    return world_.run_until_pred(pred, deadline_ns / kNsPerUs);
  }

  void crash(ProcessId p) override {
    world_.crash(p);
  }

  bool join(ProcessId p, GroupId g, std::vector<ProcessId> contacts) override {
    newtop::JoinOptions jo;
    jo.contacts = std::move(contacts);
    jo.options = options(w_.groups[rec_.group_index(g)]);
    Recorder* rec = &rec_;
    jo.options.snapshot_installer =
        [rec](GroupId, const std::vector<std::uint8_t>& bytes) {
          rec->check_snapshot(bytes);
        };
    return world_.group(p, g).join(jo);
  }

  bool capped() const override { return capped_; }
  double generator_cpu_s() override { return 0; }

  Counters counters() override {
    Counters c;
    for (ProcessId p = 0; p < w_.processes; ++p) {
      add_endpoint_counters(c, world_.ep(p).stats());
      add_channel_counters(c, world_.process(p).router().total_stats());
    }
    const auto ps = world_.pool()->stats();
    c["pool.acquires"] = static_cast<double>(ps.acquires);
    c["pool.acquire_hits"] = static_cast<double>(ps.acquire_hits);
    return c;
  }

  std::pair<double, double> retention() override {
    std::pair<double, double> out{0, 0};
    for (const GroupSpec& g : w_.groups) {
      for (ProcessId p : g.members) {
        if (world_.process(p).crashed()) continue;
        const auto rs = world_.ep(p).retention_stats(g.id);
        out.first += static_cast<double>(rs.pinned_bytes);
        out.second += static_cast<double>(rs.used_bytes);
      }
    }
    return out;
  }

 private:
  static WorldConfig config(const WorkloadSpec& w, std::uint64_t seed) {
    WorldConfig cfg;
    cfg.processes = w.processes;
    cfg.seed = seed;
    cfg.network.latency = newtop::sim::LatencyModel::uniform(
        static_cast<newtop::sim::Duration>(w.sim_lat_lo_ms * 1000),
        static_cast<newtop::sim::Duration>(w.sim_lat_hi_ms * 1000));
    cfg.network.drop_probability = w.sim_drop;
    return cfg;
  }

  newtop::GroupOptions options(const GroupSpec& g) const {
    newtop::GroupOptions o;
    o.mode = g.mode;
    o.dissemination = g.dissemination;
    o.relay_arity = g.relay_arity;
    o.delivery = g.delivery;
    const Recorder* rec = &rec_;
    o.snapshot_provider = [rec](GroupId) { return rec->snapshot(); };
    return o;
  }

  const WorkloadSpec& w_;
  Recorder& rec_;
  std::uint64_t seed_;
  SimWorld world_;
  bool capped_ = false;
};

// Median of each metric over the repetitions, by name and in order.
Result median_result(const std::vector<Result>& reps) {
  Result out;
  std::map<std::string, std::vector<double>> values;
  for (const Result& r : reps) {
    out.correct = out.correct && r.correct;
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.notes.insert(out.notes.end(), r.notes.begin(), r.notes.end());
    for (const Metric& m : r.metrics) values[m.name].push_back(m.value);
  }
  for (const Metric& m : reps.front().metrics) {
    out.add(m.name, median(values[m.name]), m.unit);
  }
  return out;
}

}  // namespace

int run_sim_workload(const WorkloadSpec& w, const Options& o) {
  if (o.setup_only) {
    const Plan plan = make_plan(w, o.seed * 1000, 1.0);
    Recorder rec(w, plan.total_seqs, o.seed * 1000);
    const std::int64_t setup_start = mono_ns();
    SimCluster cluster(w, rec, o.seed * 1000);
    const double s = run_setup_probe(cluster, w, plan, rec, setup_start);
    std::printf("{\"setup_s\": %.9f}\n", s);
    return s > 0 ? 0 : 1;
  }
  TraceReport trace;
  const std::int64_t budget_ns = static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t t0 = mono_ns();
  std::vector<Result> reps;
  double cpu_s = 0, deliveries = 0, first_rss_mb = 0;
  // At least three repetitions, so every reported value is a median.
  for (std::uint64_t rep = 0;
       reps.size() < 3 || mono_ns() - t0 < budget_ns; ++rep) {
    const std::uint64_t seed = o.seed * 1000 + rep;
    const Plan plan = make_plan(w, seed, 1.0);
    if (o.trace && rep == 0) {
      trace = run_traced(w, plan, seed, /*buffered=*/true,
                         o.trace_dir.empty()
                             ? std::string()
                             : o.trace_dir + "/" + w.name + ".spans");
    }
    Result result;
    Recorder rec(w, plan.total_seqs, seed);
    const std::int64_t setup_start = mono_ns();
    SimCluster cluster(w, rec, seed);
    const RunReport r =
        run_plan(cluster, &cluster, w, plan, rec, setup_start, result);
    cpu_s += r.ref_cpu_s;
    deliveries += r.ref_deliveries;
    if (rep == 0) first_rss_mb = r.peak_rss_mb;
    if (o.trace) {
      LayerInputs in;
      in.trace = &trace;
      add_per_layer(r, in, result);
    } else {
      add_end_to_end(r, result);
    }
    reps.push_back(std::move(result));
    if (reps.size() >= 200) break;
  }
  Result out = median_result(reps);
  // Two figures are better taken over the whole run than as medians: CPU
  // per delivery over every repetition's reference phase (machine speed
  // drifts at the scale of seconds), and the memory high-water mark of
  // the first repetition (later ones inherit its allocator state).
  for (Metric& m : out.metrics) {
    if (m.name == "cpu_us_per_delivery" && deliveries > 0) {
      m.value = cpu_s * 1e6 / deliveries;
    } else if (m.name == "peak_rss_mb") {
      m.value = first_rss_mb;
    }
  }
  emit(out);
  return 0;
}

}  // namespace perfbench
