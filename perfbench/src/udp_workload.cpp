// UDP workloads: UdpNodes on two shared UdpTransports (two loop
// threads, receive on the loop), driven open loop by this process's main
// thread acting as the one generator thread.
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "transport/udp_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

using newtop::transport::UdpNode;
using newtop::transport::UdpNodeConfig;
using newtop::transport::UdpTransport;
using newtop::transport::UdpTransportConfig;

constexpr std::size_t kTransports = 2;

// Runs `fn` on its own thread and waits for it at most `budget`. A call
// that overruns keeps running on its thread; the caller then treats the
// run as stalled and ends the process without returning normally.
class BoundedCalls {
 public:
  template <class F>
  bool run(F fn, std::chrono::milliseconds budget) {
    auto state = std::make_shared<State>();
    std::thread t([state, fn = std::move(fn)]() mutable {
      fn();
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
      state->cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(state->mu);
    const bool done =
        state->cv.wait_for(lock, budget, [&] { return state->done; });
    lock.unlock();
    if (done) {
      t.join();
    } else {
      pending_.push_back({std::move(t), state});
    }
    return done;
  }

  // Joins every overrun call that has since finished; true when none is
  // still running after waiting up to `budget`.
  bool settle(std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (auto& p : pending_) {
      std::unique_lock<std::mutex> lock(p.state->mu);
      if (!p.state->cv.wait_until(lock, deadline,
                                  [&] { return p.state->done; })) {
        return false;
      }
      lock.unlock();
      p.thread.join();
    }
    pending_.clear();
    return true;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  struct Pending {
    std::thread thread;
    std::shared_ptr<State> state;
  };
  std::vector<Pending> pending_;
};

class UdpCluster final : public Cluster {
 public:
  UdpCluster(const WorkloadSpec& w, Recorder& rec, std::uint64_t seed)
      : w_(w), rec_(rec), seed_(seed) {
    UdpTransportConfig tc;
    tc.rx_shards = 0;
    for (std::size_t i = 0; i < kTransports; ++i) {
      transports_.push_back(std::make_shared<UdpTransport>(0, tc));
    }
    for (ProcessId p = 0; p < w.processes; ++p) {
      UdpNodeConfig cfg;
      cfg.endpoint.omega_big =
          static_cast<newtop::sim::Duration>(w.omega_big_ms * 1000);
      cfg.on_event = [this, p](const newtop::Event& ev) {
        rec_.on_event(p, ev, mono_ns());
      };
      nodes_.push_back(std::make_unique<UdpNode>(
          p, transports_[p % kTransports], std::move(cfg)));
    }
    for (auto& n : nodes_) {
      for (auto& peer : nodes_) {
        if (peer->id() != n->id()) n->add_peer(peer->id(), peer->port());
      }
    }
    for (auto& n : nodes_) n->start();
    std::vector<std::pair<UdpNode*, GroupId>> targets;
    for (const GroupSpec& g : w.groups) {
      const newtop::GroupOptions opts = options(g);
      for (ProcessId p : g.members) {
        nodes_[p]->create_group(g.id, g.members, opts);
        targets.push_back({nodes_[p].get(), g.id});
      }
    }
    // Static bootstrap barrier: traffic may flow only once every member
    // has installed the initial view (a message reaching a node before
    // its create_group command ran is dropped as for an unknown group).
    // A view query is queued behind the create command, so its answer
    // proves the install.
    auto installed = std::make_shared<bool>(true);
    if (!calls_.run(
            [targets, installed] {
              for (const auto& [n, g] : targets) {
                if (!n->group(g).view()) *installed = false;
              }
            },
            std::chrono::seconds(10)) ||
        !*installed) {
      stalled_calls_ = true;
    }
  }

  std::int64_t now_ns() override { return mono_ns(); }

  void run_sends(const PhasePlan& ph, std::int64_t start_ns,
                 const std::vector<Action>& actions, GenStats& gen,
                 const std::function<bool()>& keep_going) override {
    std::size_t ai = 0;
    newtop::util::Bytes payload;
    const auto run_actions_until = [&](std::int64_t off) {
      while (ai < actions.size() && actions[ai].offset_ns <= off) {
        sleep_until(start_ns + actions[ai].offset_ns);
        actions[ai].fn();
        ++ai;
      }
    };
    for (std::size_t i = 0; i < ph.sends.size(); ++i) {
      const PlannedSend& s = ph.sends[i];
      run_actions_until(s.offset_ns);
      const std::int64_t due = start_ns + s.offset_ns;
      sleep_until(due);
      if (!capped_ && (i % 16) == 0 && rss_mb() > w_.mem_cap_mb) {
        capped_ = true;
      }
      if (capped_) {
        gen.unsent += ph.sends.size() - i;
        break;
      }
      if (keep_going && !keep_going()) {
        gen.abandoned += ph.sends.size() - i;
        break;
      }
      gen.lag_ms.push_back(static_cast<double>(mono_ns() - due) / 1e6);
      rec_.set_due(s.seq, due);
      fill_payload(payload, s.seq, s.sender, w_.payload_bytes, seed_);
      Recorder* rec = &rec_;
      const std::uint32_t seq = s.seq;
      nodes_[s.sender]->multicast(
          w_.groups[s.group_index].id, std::move(payload),
          [rec, seq](newtop::SendResult r) { rec->set_verdict(seq, r); });
      payload = newtop::util::Bytes();
    }
    run_actions_until(INT64_MAX);
  }

  bool wait(const std::function<bool()>& pred,
            std::int64_t deadline_ns) override {
    for (;;) {
      if (pred()) return true;
      if (mono_ns() >= deadline_ns) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  bool capped() const override { return capped_; }
  double generator_cpu_s() override { return thread_cpu_s(); }

  Counters counters() override {
    auto out = std::make_shared<Counters>();
    std::vector<UdpNode*> live = all_nodes();
    const bool done = calls_.run(
        [out, live] {
          for (UdpNode* n : live) {
            add_endpoint_counters(*out, n->endpoint_stats());
            add_channel_counters(*out, n->transport_stats());
          }
        },
        std::chrono::seconds(5));
    if (!done) {
      stalled_calls_ = true;
      return {};
    }
    // transport_stats overlays transport-wide io counters on every node;
    // take them once per transport instead.
    for (const char* k : {"io.tx_syscalls", "io.rx_syscalls",
                          "io.tx_datagrams", "io.rx_datagrams",
                          "io.rx_copies", "io.wakeups"}) {
      out->erase(k);
    }
    for (const auto& t : transports_) {
      const auto io = t->io_stats();
      (*out)["io.tx_syscalls"] += static_cast<double>(io.tx_syscalls);
      (*out)["io.rx_syscalls"] += static_cast<double>(io.rx_syscalls);
      (*out)["io.tx_datagrams"] += static_cast<double>(io.tx_datagrams);
      (*out)["io.rx_datagrams"] += static_cast<double>(io.rx_datagrams);
      (*out)["io.rx_copies"] += static_cast<double>(io.rx_copies);
      (*out)["io.wakeups"] += static_cast<double>(io.wakeups);
      const auto ps = t->pool()->stats();
      (*out)["pool.acquires"] += static_cast<double>(ps.acquires);
      (*out)["pool.acquire_hits"] += static_cast<double>(ps.acquire_hits);
    }
    return *out;
  }

  std::pair<double, double> retention() override {
    auto out = std::make_shared<std::pair<double, double>>(0, 0);
    std::vector<std::pair<UdpNode*, GroupId>> targets;
    for (const GroupSpec& g : w_.groups) {
      for (ProcessId p : g.members) targets.push_back({nodes_[p].get(), g.id});
    }
    if (!calls_.run(
            [out, targets] {
              for (const auto& [n, g] : targets) {
                const auto rs = n->group(g).retention_stats();
                out->first += static_cast<double>(rs.pinned_bytes);
                out->second += static_cast<double>(rs.used_bytes);
              }
            },
            std::chrono::seconds(5))) {
      stalled_calls_ = true;
    }
    return *out;
  }

  bool stalled_calls() const { return stalled_calls_; }

  // Stops every node, then the transports, on a watchdog thread. Returns
  // false when that did not finish within `budget` (the threads involved
  // are then left running; the caller must end the process).
  bool teardown(std::chrono::milliseconds budget) {
    std::vector<UdpNode*> live = all_nodes();
    auto transports = transports_;
    const bool done = calls_.run(
        [live, transports] {
          for (UdpNode* n : live) n->stop();
          for (const auto& t : transports) t->stop();
        },
        budget);
    return done && calls_.settle(std::chrono::milliseconds(200));
  }

 private:
  newtop::GroupOptions options(const GroupSpec& g) const {
    newtop::GroupOptions o;
    o.mode = g.mode;
    o.dissemination = g.dissemination;
    o.relay_arity = g.relay_arity;
    o.delivery = g.delivery;
    return o;
  }

  std::vector<UdpNode*> all_nodes() const {
    std::vector<UdpNode*> v;
    for (const auto& n : nodes_) v.push_back(n.get());
    return v;
  }

  static void sleep_until(std::int64_t due_ns) {
    const std::int64_t now = mono_ns();
    if (due_ns > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    }
  }

  const WorkloadSpec& w_;
  Recorder& rec_;
  std::uint64_t seed_;
  std::vector<std::shared_ptr<UdpTransport>> transports_;
  std::vector<std::unique_ptr<UdpNode>> nodes_;
  bool capped_ = false;
  bool stalled_calls_ = false;
  BoundedCalls calls_;
};

}  // namespace

int run_udp_workload(const WorkloadSpec& w, const Options& o) {
  const double scale = o.seconds / kDefaultSeconds;
  const Plan plan = make_plan(w, o.seed, scale);
  Result result;

  TraceReport trace;
  if (o.trace && !o.setup_only) {
    trace = run_traced(w, plan, o.seed, /*buffered=*/false,
                       o.trace_dir.empty()
                           ? std::string()
                           : o.trace_dir + "/" + w.name + ".spans");
  }

  Recorder rec(w, plan.total_seqs, o.seed);
  const std::int64_t setup_start = mono_ns();
  auto cluster = std::make_unique<UdpCluster>(w, rec, o.seed);
  if (o.setup_only) {
    const double s = run_setup_probe(*cluster, w, plan, rec, setup_start);
    std::printf("{\"setup_s\": %.9f}\n", s);
    std::fflush(stdout);
    const bool clean = cluster->teardown(std::chrono::seconds(1));
    if (!clean) _exit(s > 0 ? 0 : 1);  // stalled threads: end here
    return s > 0 ? 0 : 1;
  }

  const RunReport rep =
      run_plan(*cluster, nullptr, w, plan, rec, setup_start, result);
  if (cluster->stalled_calls()) {
    result.invalid("a host call did not return within its deadline");
  }
  if (delta(Counters{}, rep.end, "io.rx_copies") != 0) {
    result.invalid("rx staging copies on the receive path");
  }
  // Metrics are final before teardown; teardown runs under a watchdog
  // so a stall is counted, not waited out.
  const bool clean = cluster->teardown(std::chrono::seconds(3));
  if (!clean) result.notes.push_back("teardown stalled (watchdog fired)");
  if (o.trace) {
    LayerInputs in;
    in.udp = true;
    in.teardown_stalls = clean ? 0 : 1;
    in.trace = &trace;
    add_per_layer(rep, in, result);
  } else {
    add_end_to_end(rep, result);
  }
  emit(result);
  if (!clean) _exit(0);  // threads stuck in teardown cannot be joined
  cluster.reset();
  return 0;
}

}  // namespace perfbench
