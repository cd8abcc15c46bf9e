// Shared pieces of the benchmark harness: workload definitions, the
// seeded open-loop send plan, the delivery recorder that doubles as the
// correctness oracle, and the process-level probes (CPU, RSS, heap
// allocations).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/types.h"
#include "util/codec.h"

namespace perfbench {

using newtop::GroupId;
using newtop::ProcessId;

// ---------------------------------------------------------------------------
// Probes

std::int64_t mono_ns();       // steady clock
double process_cpu_s();       // user + system CPU of the whole process
double thread_cpu_s();        // CPU of the calling thread
double rss_mb();              // current resident set
double peak_rss_mb();         // VmHWM: resident high-water mark
std::uint64_t alloc_count();  // operator-new calls (alloc_count.cpp)

// ---------------------------------------------------------------------------
// Workloads

enum class HostKind { kUdp, kSim };

struct GroupSpec {
  GroupId id = 0;
  std::vector<ProcessId> members;
  std::vector<ProcessId> senders;
  newtop::OrderMode mode = newtop::OrderMode::kSymmetric;
  newtop::DisseminationStrategy dissemination =
      newtop::DisseminationStrategy::kFullMesh;
  std::uint32_t relay_arity = 4;
  newtop::DeliveryMode delivery = newtop::DeliveryMode::kZeroCopySlice;
};

struct WorkloadSpec {
  std::string name;
  HostKind host = HostKind::kUdp;
  std::size_t processes = 0;  // group members plus the spare, if any
  std::vector<GroupSpec> groups;
  std::size_t payload_bytes = 64;
  // Churn phase (after the ladder): `victim` crashes a third of the way
  // in and `spare` joins `join_group` two thirds in, with a snapshot.
  bool churn = false;
  ProcessId victim = newtop::kNoProcess;
  ProcessId spare = newtop::kNoProcess;
  GroupId join_group = 0;
  std::size_t snapshot_bytes = 256 * 1024;
  // Offered load, multicasts per second summed over all senders.
  double idle_rate = 0;
  double ref_rate = 0;
  std::vector<double> ladder;
  double churn_rate = 0;
  // Phase lengths at the default run length (UDP runs scale them with
  // --seconds; simulated runs repeat the plan instead).
  double idle_s = 0, ref_s = 0, step_s = 0, churn_s = 0;
  // Suspicion timeout Ω (§5.2). The UDP workloads raise it from the
  // default 200 ms: the ladder's failing step overloads the loop
  // threads, and a 200 ms receive silence there reads as a crash.
  double omega_big_ms = 200;
  double mem_cap_mb = 1536;
  // Simulated network (HostKind::kSim only).
  double sim_lat_lo_ms = 1, sim_lat_hi_ms = 8, sim_drop = 0;
};

const WorkloadSpec* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// ---------------------------------------------------------------------------
// Send plan

// Every ladder step is followed by a retry of the same rate with fresh
// messages, offered only if the step fails.
enum class PhaseKind : std::uint8_t {
  kProbe,
  kIdle,
  kRef,
  kStep,
  kStepRetry,
  kChurn
};

struct PlannedSend {
  std::int64_t offset_ns = 0;  // due time relative to the phase start
  std::uint32_t seq = 0;       // globally unique message id
  ProcessId sender = 0;
  std::uint16_t group_index = 0;
};

struct PhasePlan {
  PhaseKind kind = PhaseKind::kProbe;
  double rate = 0;           // offered multicasts/s (0 for the probe)
  std::int64_t length_ns = 0;
  std::vector<PlannedSend> sends;
};

struct Plan {
  std::vector<PhasePlan> phases;  // probe, idle, ref, steps, [churn]
  std::uint32_t total_seqs = 0;
  std::int64_t crash_at_ns = 0;   // churn-phase offsets
  std::int64_t join_at_ns = 0;
};

// Evenly spaced sends at `rate` with seeded sender order and a seeded
// phase offset; the same seed always yields the same plan.
Plan make_plan(const WorkloadSpec& w, std::uint64_t seed, double scale);

// Payload layout: [seq u32][sender u32][check u64][filler...]; the
// filler is a seeded byte stream whose checksum is `check`.
void fill_payload(newtop::util::Bytes& out, std::uint32_t seq,
                  ProcessId sender, std::size_t size, std::uint64_t seed);
// Header seq, or nullopt when the bytes are malformed or corrupted.
// Full-filler verification runs on one message in `verify_every`.
std::optional<std::uint32_t> read_payload(std::span<const std::uint8_t> p,
                                          std::uint64_t seed,
                                          std::uint32_t verify_every);

std::vector<std::uint8_t> make_snapshot(std::size_t bytes,
                                        std::uint64_t seed);

// ---------------------------------------------------------------------------
// Recorder + oracle

inline constexpr std::uint32_t kNotDelivered = 0xffffffffu;

struct ViewMark {
  std::int64_t at_ns = 0;
  GroupId group = 0;
  std::vector<ProcessId> members;
};

// Collects every delivery (latency from the due time, per-member order)
// plus view and state-transfer events. Each process's events arrive on
// one thread at a time; different processes may record concurrently.
class Recorder {
 public:
  Recorder(const WorkloadSpec& w, std::uint32_t total_seqs,
           std::uint64_t seed);

  void set_due(std::uint32_t seq, std::int64_t due_ns) {
    due_ns_[seq] = due_ns;
  }
  std::int64_t due(std::uint32_t seq) const { return due_ns_[seq]; }
  void set_verdict(std::uint32_t seq, newtop::SendResult r) {
    verdict_[seq].store(static_cast<std::uint8_t>(r) + 1,
                        std::memory_order_release);
  }
  // 0 = no verdict yet, else SendResult + 1.
  std::uint8_t verdict(std::uint32_t seq) const {
    return verdict_[seq].load(std::memory_order_acquire);
  }

  void on_event(ProcessId p, const newtop::Event& ev, std::int64_t now_ns);

  std::uint32_t latency_us(std::uint32_t seq, ProcessId p) const {
    return lat_us_[static_cast<std::size_t>(seq) * procs_ + p];
  }
  std::uint64_t delivered(ProcessId p) const {
    return logs_[p]->count.load(std::memory_order_acquire);
  }
  std::uint64_t corrupt() const {
    return corrupt_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_errors() const {
    return snapshot_errors_.load(std::memory_order_relaxed);
  }
  std::vector<std::uint32_t> order(ProcessId p, GroupId g) const;
  std::vector<ViewMark> views(ProcessId p) const;
  std::optional<std::int64_t> caught_up_ns(ProcessId p) const;
  std::size_t group_index(GroupId g) const;

  // Snapshot installer check (runs at the joiner).
  void check_snapshot(const std::vector<std::uint8_t>& got);
  const std::vector<std::uint8_t>& snapshot() const { return snapshot_; }

 private:
  struct Log {
    mutable std::mutex mu;
    std::vector<std::vector<std::uint32_t>> order;  // per group index
    std::vector<ViewMark> views;
    std::optional<std::int64_t> caught_up_ns;
    std::atomic<std::uint64_t> count{0};
  };

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  std::size_t procs_;
  std::vector<std::int64_t> due_ns_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> verdict_;
  std::vector<std::uint32_t> lat_us_;
  std::vector<std::unique_ptr<Log>> logs_;
  std::vector<std::uint8_t> snapshot_;
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> snapshot_errors_{0};
};

// ---------------------------------------------------------------------------
// Statistics + output

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed to stderr

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void invalid(const std::string& why) {
    correct = false;
    notes.push_back("INVALID: " + why);
  }
};

std::string to_json(const Result& r);

}  // namespace perfbench
