#include "plan_runner.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

constexpr std::int64_t kSec = 1000000000;
// The reference phase is judged in this many equal time windows; its
// latency percentiles are the medians over the windows.
constexpr int kRefWindows = 5;
// Latency limit of the rate ladder: a step passes when its p99 is at
// most this and its backlog clears within it.
constexpr double kP99LimitMs = 100;

bool in_group(const GroupSpec& g, ProcessId p) {
  return std::find(g.members.begin(), g.members.end(), p) != g.members.end();
}

// Tracks which sends were offered and how many deliveries each process
// owes, so waits poll a few atomics instead of scanning latencies.
struct Ledger {
  const WorkloadSpec& w;
  std::vector<std::uint64_t> expect;
  std::vector<std::pair<const PhasePlan*, std::size_t>> offered;  // phase, n

  explicit Ledger(const WorkloadSpec& spec)
      : w(spec), expect(spec.processes, 0) {}

  void note(const PhasePlan& ph, std::size_t n) {
    offered.push_back({&ph, n});
    for (std::size_t i = 0; i < n; ++i) {
      const GroupSpec& g = w.groups[ph.sends[i].group_index];
      for (ProcessId p : g.members) ++expect[p];
    }
  }
  std::uint64_t offered_total() const {
    std::uint64_t n = 0;
    for (const auto& [ph, k] : offered) n += k;
    return n;
  }
};

bool owed_delivered(const Recorder& rec, const Ledger& led,
                    const std::vector<ProcessId>& procs) {
  for (ProcessId p : procs) {
    if (rec.delivered(p) < led.expect[p]) return false;
  }
  return true;
}

// Every group member except `excluded`, ascending.
std::vector<ProcessId> members_except(const WorkloadSpec& w,
                                      ProcessId excluded) {
  std::vector<ProcessId> out;
  for (const auto& g : w.groups) {
    for (ProcessId p : g.members) {
      if (p != excluded &&
          std::find(out.begin(), out.end(), p) == out.end()) {
        out.push_back(p);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// True once `s` is delivered at every member of its group.
bool complete(const WorkloadSpec& w, const Recorder& rec,
              const PlannedSend& s) {
  for (ProcessId p : w.groups[s.group_index].members) {
    if (rec.latency_us(s.seq, p) == kNotDelivered) return false;
  }
  return true;
}

// Latency samples (ms) of `n` sends at every member of their group; an
// undelivered one counts as the whole wait (until `give_up_ns`).
std::vector<double> latencies(const WorkloadSpec& w, const Recorder& rec,
                              const PlannedSend* sends, std::size_t n,
                              std::int64_t give_up_ns) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const PlannedSend& s = sends[i];
    for (ProcessId p : w.groups[s.group_index].members) {
      const std::uint32_t us = rec.latency_us(s.seq, p);
      out.push_back(us == kNotDelivered
                        ? static_cast<double>(give_up_ns - rec.due(s.seq)) /
                              1e6
                        : us / 1000.0);
    }
  }
  return out;
}

std::size_t offered_count(const PhasePlan& ph, const GenStats& before,
                         const GenStats& after) {
  return ph.sends.size() -
         static_cast<std::size_t>(after.unsent - before.unsent) -
         static_cast<std::size_t>(after.abandoned - before.abandoned);
}

class PlanRunner {
 public:
  PlanRunner(Cluster& c, Churn* churn, const WorkloadSpec& w,
             const Plan& plan, Recorder& rec, Result& result)
      : c_(c),
        churn_(churn),
        w_(w),
        plan_(plan),
        rec_(rec),
        result_(result),
        led_(w),
        everyone_(members_except(w, newtop::kNoProcess)),
        limit_ns_(static_cast<std::int64_t>(kP99LimitMs * 1e6)) {}

  RunReport run(std::int64_t setup_start_ns) {
    // Setup ends when the probe is delivered at every member.
    run_phase(phase(PhaseKind::kProbe), 10 * kSec);
    if (!owed_delivered(rec_, led_, everyone_)) {
      result_.invalid("setup probe not delivered within 10 s");
    }
    rep_.setup_s = static_cast<double>(mono_ns() - setup_start_ns) / 1e9;

    const PhasePlan& idle = phase(PhaseKind::kIdle);
    const std::size_t n_idle = run_phase(idle, 5 * kSec);
    rep_.idle_p50_ms =
        median(latencies(w_, rec_, idle.sends.data(), n_idle, c_.now_ns()));
    if (!c_.capped()) run_reference();
    run_ladder();
    if (w_.churn && !c_.capped()) run_churn();
    rep_.end = c_.counters();
    check_oracle();
    rep_.gen_lag_p99_ms = percentile(gen_.lag_ms, 0.99);
    if (rep_.gen_lag_p99_ms > 50) {
      result_.invalid("generator fell behind its schedule (p99 lag " +
                      std::to_string(rep_.gen_lag_p99_ms) + " ms)");
    }
    return rep_;
  }

 private:
  const PhasePlan& phase(PhaseKind k) const {
    for (const PhasePlan& ph : plan_.phases) {
      if (ph.kind == k) return ph;
    }
    return plan_.phases.front();
  }

  bool drained(std::int64_t deadline_ns) {
    return c_.wait([&] { return owed_delivered(rec_, led_, everyone_); },
                   deadline_ns);
  }

  // Runs one phase open loop and waits (bounded) for its delivery.
  std::size_t run_phase(const PhasePlan& ph, std::int64_t drain_ns) {
    const GenStats before = gen_;
    const std::int64_t start = c_.now_ns();
    c_.run_sends(ph, start, {}, gen_);
    const std::size_t n = offered_count(ph, before, gen_);
    led_.note(ph, n);
    drained(std::max(start + ph.length_ns, c_.now_ns()) + drain_ns);
    return n;
  }

  // Latency at the reference rate plus the per-delivery costs, all over
  // the same window: from the first send until the phase is delivered.
  void run_reference() {
    const PhasePlan& ref = phase(PhaseKind::kRef);
    const GenStats before = gen_;
    rep_.ref_before = c_.counters();
    const double cpu0 = process_cpu_s();
    const double gen0 = c_.generator_cpu_s();
    const std::uint64_t alloc0 = alloc_count();
    std::uint64_t dl0 = 0;
    for (ProcessId p : everyone_) dl0 += rec_.delivered(p);

    const std::int64_t start = c_.now_ns();
    c_.run_sends(ref, start, {}, gen_);
    const std::size_t n = offered_count(ref, before, gen_);
    led_.note(ref, n);
    const auto [pinned, used] = c_.retention();
    rep_.pinned_over_used = used > 0 ? pinned / used : 0;
    drained(std::max(start + ref.length_ns, c_.now_ns()) + 5 * kSec);

    rep_.ref_allocs = static_cast<double>(alloc_count() - alloc0);
    rep_.ref_gen_cpu_s = c_.generator_cpu_s() - gen0;
    rep_.ref_cpu_s = process_cpu_s() - cpu0;
    std::uint64_t dl1 = 0;
    for (ProcessId p : everyone_) dl1 += rec_.delivered(p);
    rep_.ref_deliveries = static_cast<double>(dl1 - dl0);
    rep_.ref_after = c_.counters();
    rep_.peak_rss_mb = peak_rss_mb();

    // Percentiles per time window, then the median over the windows: a
    // single scheduling stall on a shared machine moves one window's
    // tail, not the reported figure.
    std::vector<double> p50s, p99s;
    const std::int64_t give_up = c_.now_ns();
    std::size_t i = 0;
    for (int k = 1; k <= kRefWindows; ++k) {
      const std::int64_t end = ref.length_ns * k / kRefWindows;
      const std::size_t first = i;
      while (i < n && ref.sends[i].offset_ns < end) ++i;
      if (i == first) continue;
      const auto lat =
          latencies(w_, rec_, ref.sends.data() + first, i - first, give_up);
      p50s.push_back(median(lat));
      p99s.push_back(percentile(lat, 0.99));
    }
    rep_.ref_p50_ms = median(p50s);
    rep_.ref_p99_ms = median(p99s);
  }

  // Ascending rates until one misses the p99 limit or leaves a backlog.
  void run_ladder() {
    double prev_rate = w_.ref_rate;
    double prev_p99 = rep_.ref_p99_ms;
    if (rep_.ref_p99_ms > kP99LimitMs) {
      rep_.max_rate_per_s = w_.ref_rate * kP99LimitMs / rep_.ref_p99_ms;
      return;
    }
    const auto& phases = plan_.phases;
    for (std::size_t k = 0; k < phases.size(); ++k) {
      if (phases[k].kind != PhaseKind::kStep) continue;
      if (c_.capped()) break;
      LadderStep ls = run_step(phases[k]);
      if (!ls.passed && !c_.capped() && k + 1 < phases.size() &&
          phases[k + 1].kind == PhaseKind::kStepRetry) {
        // One retry: on a shared machine a single scheduling stall can
        // sink a short step; a rate the system cannot sustain fails twice.
        drained(c_.now_ns() + 10 * kSec);
        ls = run_step(phases[k + 1]);
      }
      result_.notes.push_back(
          "ladder step " + std::to_string(static_cast<int>(ls.rate)) +
          "/s: p99 " + std::to_string(ls.p99_ms) + " ms, " +
          (ls.passed ? "pass" : "fail"));
      // Let the backlog clear before the next step (bounded).
      drained(c_.now_ns() + 10 * kSec);
      if (ls.passed) {
        prev_rate = ls.rate;
        prev_p99 = ls.p99_ms;
        continue;
      }
      // Interpolate the crossing of the limit between the last passing
      // rate and this one, so the metric moves smoothly with capacity
      // instead of jumping a whole rung.
      const double span = std::max(ls.p99_ms - prev_p99, 1e-9);
      const double frac =
          std::clamp((kP99LimitMs - prev_p99) / span, 0.0, 1.0);
      rep_.max_rate_per_s = prev_rate + frac * (ls.rate - prev_rate);
      return;
    }
    rep_.max_rate_per_s = prev_rate;
    result_.notes.push_back("ladder top reached without missing the limit");
  }

  LadderStep run_step(const PhasePlan& step) {
    const GenStats before = gen_;
    const std::int64_t start = c_.now_ns();
    // Open loop until the step is evidently lost: once the oldest
    // undelivered message of the step is older than 1.5x the limit, the
    // backlog is growing, so stop offering load rather than drive the
    // group into overload-induced suspicions.
    std::size_t offered = 0, frontier = 0;
    const auto keep_going = [&] {
      while (frontier < offered && complete(w_, rec_, step.sends[frontier])) {
        ++frontier;
      }
      if (frontier < offered &&
          c_.now_ns() - rec_.due(step.sends[frontier].seq) >
              3 * limit_ns_ / 2) {
        return false;
      }
      ++offered;
      return true;
    };
    c_.run_sends(step, start, {}, gen_, keep_going);
    const std::size_t n = offered_count(step, before, gen_);
    led_.note(step, n);
    // Backlog check: everything sent in the step is delivered within the
    // latency limit of the step's end.
    const std::int64_t judge =
        std::max(start + step.length_ns, c_.now_ns()) + limit_ns_;
    const bool backlog_clear = drained(judge);
    // Steady state: the first and last tenth of the step's sends are
    // warm-up and cool-down (the last ones wait for ω-nulls once the
    // offered load stops), so the p99 covers the middle of the step.
    const std::size_t cut = n / 10;
    const auto lat =
        latencies(w_, rec_, step.sends.data() + cut, n - 2 * cut, judge);
    LadderStep ls;
    ls.rate = step.rate;
    ls.p99_ms = percentile(lat, 0.99);
    ls.passed = backlog_clear && n == step.sends.size() &&
                ls.p99_ms <= kP99LimitMs && !c_.capped();
    return ls;
  }

  // Crash a third of the way in, join with a snapshot two thirds in.
  void run_churn() {
    if (churn_ == nullptr) {
      result_.invalid("this host cannot run the churn phase");
      return;
    }
    const PhasePlan& ph = phase(PhaseKind::kChurn);
    std::vector<ProcessId> contacts;
    for (ProcessId p : w_.groups[rec_.group_index(w_.join_group)].members) {
      if (p != w_.victim) contacts.push_back(p);
    }
    const std::vector<Action> actions = {
        {plan_.crash_at_ns,
         [&] {
           t_crash_ = c_.now_ns();
           churn_->crash(w_.victim);
         }},
        {plan_.join_at_ns,
         [&] {
           t_join_ = c_.now_ns();
           if (!churn_->join(w_.spare, w_.join_group, contacts)) {
             result_.invalid("join request was refused");
           }
         }},
    };
    const GenStats before = gen_;
    const std::int64_t start = c_.now_ns();
    c_.run_sends(ph, start, actions, gen_);
    led_.note(ph, offered_count(ph, before, gen_));

    const auto survivors = members_except(w_, w_.victim);
    c_.wait(
        [&] {
          return owed_delivered(rec_, led_, survivors) &&
                 rec_.caught_up_ns(w_.spare).has_value();
        },
        std::max(start + ph.length_ns, c_.now_ns()) + 15 * kSec);
    // The joiner's tail: everything the group delivered after its
    // cutover, up to the group's last delivery.
    c_.wait(
        [&] {
          const auto j = rec_.order(w_.spare, w_.join_group);
          if (j.empty()) return false;
          const auto ref = rec_.order(survivors.front(), w_.join_group);
          const auto it = std::find(ref.begin(), ref.end(), j.front());
          return it != ref.end() &&
                 j.size() >= static_cast<std::size_t>(ref.end() - it);
        },
        c_.now_ns() + 5 * kSec);
    churn_metrics(ph);
  }

  void churn_metrics(const PhasePlan& ph) {
    // View change: crash until every survivor installed a view without
    // the victim, in every group it was in.
    bool seen_all = true;
    for (const auto& g : w_.groups) {
      if (!in_group(g, w_.victim)) continue;
      for (ProcessId p : g.members) {
        if (p == w_.victim) continue;
        bool seen = false;
        for (const auto& m : rec_.views(p)) {
          if (m.group != g.id || m.at_ns < t_crash_ ||
              std::find(m.members.begin(), m.members.end(), w_.victim) !=
                  m.members.end()) {
            continue;
          }
          rep_.view_change_ms = std::max(
              rep_.view_change_ms,
              static_cast<double>(m.at_ns - t_crash_) / 1e6);
          seen = true;
          break;
        }
        seen_all = seen_all && seen;
      }
    }
    if (!seen_all) result_.invalid("a survivor never excluded the victim");

    // Outage: crash until the first message due after it is delivered at
    // every survivor of a group the victim was in.
    double outage = std::numeric_limits<double>::infinity();
    for (const PlannedSend& s : ph.sends) {
      const GroupSpec& g = w_.groups[s.group_index];
      if (!in_group(g, w_.victim) || rec_.due(s.seq) < t_crash_) continue;
      std::int64_t done = 0;
      bool all = true;
      for (ProcessId p : g.members) {
        if (p == w_.victim) continue;
        const std::uint32_t us = rec_.latency_us(s.seq, p);
        if (us == kNotDelivered) {
          all = false;
          break;
        }
        done = std::max(done, rec_.due(s.seq) + std::int64_t{us} * 1000);
      }
      if (all) {
        outage =
            std::min(outage, static_cast<double>(done - t_crash_) / 1e6);
      }
    }
    if (std::isfinite(outage)) {
      rep_.outage_ms = outage;
    } else {
      result_.invalid("service never resumed after the crash");
    }

    if (const auto cu = rec_.caught_up_ns(w_.spare)) {
      rep_.join_ms = static_cast<double>(*cu - t_join_) / 1e6;
    } else {
      result_.invalid("joiner never caught up");
    }
  }

  // Order agreement, prefix/suffix rules for the crashed member and the
  // joiner, and delivery of every offered send at every live member.
  void check_oracle() {
    const bool crashed = t_crash_ >= 0;
    std::size_t views = 0;
    for (ProcessId p = 0; p < w_.processes; ++p) views += rec_.views(p).size();
    if (views > 0) {
      result_.notes.push_back(std::to_string(views) +
                              " view installations across members");
    }
    for (const auto& g : w_.groups) {
      std::vector<ProcessId> live;
      for (ProcessId p : g.members) {
        if (!(crashed && p == w_.victim)) live.push_back(p);
      }
      const auto reference = rec_.order(live.front(), g.id);
      for (ProcessId p : live) {
        if (rec_.order(p, g.id) != reference) {
          result_.invalid("order divergence in group " +
                          std::to_string(g.id) + " at P" +
                          std::to_string(p));
        }
      }
      if (crashed && in_group(g, w_.victim)) {
        const auto v = rec_.order(w_.victim, g.id);
        if (v.size() > reference.size() ||
            !std::equal(v.begin(), v.end(), reference.begin())) {
          result_.invalid("crashed member's deliveries are not a prefix");
        }
      }
      if (g.id == w_.join_group && t_join_ >= 0) {
        const auto j = rec_.order(w_.spare, g.id);
        const auto it =
            j.empty() ? reference.end()
                      : std::find(reference.begin(), reference.end(),
                                  j.front());
        if (it == reference.end() ||
            !std::equal(j.begin(), j.end(), it, reference.end())) {
          result_.invalid("joiner's deliveries (" + std::to_string(j.size()) +
                          ") are not the group's suffix");
        }
      }
    }
    // Attempted: every send offered, plus those the memory cap suppressed.
    result_.attempted = led_.offered_total() + gen_.unsent;
    std::uint64_t failed = gen_.unsent;
    for (const auto& [ph, n] : led_.offered) {
      for (std::size_t i = 0; i < n; ++i) {
        const PlannedSend& s = ph->sends[i];
        const std::uint8_t v = rec_.verdict(s.seq);
        bool ok = v != 0 && newtop::send_accepted(
                                static_cast<newtop::SendResult>(v - 1));
        for (ProcessId p : w_.groups[s.group_index].members) {
          if (!ok) break;
          if (crashed && p == w_.victim) continue;
          ok = rec_.latency_us(s.seq, p) != kNotDelivered;
        }
        if (!ok) ++failed;
      }
    }
    if (rec_.corrupt() != 0) {
      failed += rec_.corrupt();
      result_.invalid(std::to_string(rec_.corrupt()) +
                      " corrupt or duplicate deliveries");
    }
    if (rec_.snapshot_errors() != 0) {
      result_.invalid("joiner installed a wrong snapshot");
    }
    if (c_.capped()) {
      result_.notes.push_back(
          "memory cap reached; unsent sends count as failed");
    }
    result_.failed = failed;
  }

  Cluster& c_;
  Churn* churn_;
  const WorkloadSpec& w_;
  const Plan& plan_;
  Recorder& rec_;
  Result& result_;
  Ledger led_;
  GenStats gen_;
  RunReport rep_;
  const std::vector<ProcessId> everyone_;
  const std::int64_t limit_ns_;
  std::int64_t t_crash_ = -1;
  std::int64_t t_join_ = -1;
};

}  // namespace

double delta(const Counters& before, const Counters& after,
             const std::string& key) {
  const auto a = after.find(key);
  const auto b = before.find(key);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

double run_setup_probe(Cluster& c, const WorkloadSpec& w, const Plan& plan,
                       Recorder& rec, std::int64_t setup_start_ns) {
  Ledger led(w);
  GenStats gen;
  const PhasePlan& probe = plan.phases.front();
  c.run_sends(probe, c.now_ns(), {}, gen);
  led.note(probe, probe.sends.size());
  const auto all = members_except(w, newtop::kNoProcess);
  if (!c.wait([&] { return owed_delivered(rec, led, all); },
              c.now_ns() + 10 * kSec)) {
    return -1;
  }
  return static_cast<double>(mono_ns() - setup_start_ns) / 1e9;
}

RunReport run_plan(Cluster& c, Churn* churn, const WorkloadSpec& w,
                   const Plan& plan, Recorder& rec,
                   std::int64_t setup_start_ns, Result& result) {
  PlanRunner runner(c, churn, w, plan, rec, result);
  return runner.run(setup_start_ns);
}

}  // namespace perfbench
