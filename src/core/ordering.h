// The ordering plane: per-group total-order machinery behind a strategy
// interface.
//
// The paper defines three ordering disciplines (§4): symmetric
// (receive-vector / logical-clock ordering, §4.1), asymmetric
// (sequencer-based, §4.2) and mixed-mode (§4.3, which is just symmetric
// and asymmetric groups coexisting on one endpoint). Each discipline owns
// its slice of per-group state — the receive vector, and for the
// asymmetric mode the origin-counter dedup maps and the outstanding
// unicast forwards — and its emit / forward / echo / send-eligibility
// logic. The Endpoint keeps the shared concerns: the Lamport clock, the
// global delivery queue, stability, the membership GV process and group
// formation. Adding a new discipline means adding one OrderingPlane
// implementation, not surgery on the engine.
//
// One plane instance exists per group, created from GroupOptions::mode at
// group creation and living for the lifetime of the membership. Planes
// reach shared engine services only through PlaneHost, so they stay
// independently testable and the dependency points one way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "core/dissemination.h"
#include "core/types.h"
#include "core/wire.h"
#include "sim/time.h"
#include "util/buffer_pool.h"
#include "util/codec.h"

namespace newtop {

using sim::Time;

// Engine counters shared by the endpoint and its ordering planes.
struct EndpointStats {
  std::uint64_t app_multicasts = 0;
  std::uint64_t nulls_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t suspects_sent = 0;
  std::uint64_t refutes_sent = 0;
  std::uint64_t confirms_sent = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t messages_recovered = 0;
  std::uint64_t messages_discarded = 0;  // failed-sender discards (§5.2 viii)
  std::uint64_t pending_held = 0;        // messages held under suspicion
  std::uint64_t self_suspected = 0;      // times we saw a suspicion of self
  std::uint64_t sends_blocked = 0;       // mixed-mode blocking rule stalls
  std::uint64_t sends_flow_blocked = 0;  // flow-control stalls
  std::uint64_t fwds_sent = 0;
  std::uint64_t echoes_sequenced = 0;    // forwards we sequenced for others
  // Retention compaction: long-lived slices copied out of oversized
  // backing buffers (see kRetentionCompactRatio in endpoint.cpp).
  std::uint64_t retention_compactions = 0;
  // Unified-API counters: backpressure rejections
  // (Config::max_pending_sends), window-reopen events and arrival-detach
  // copies made by kPooledCopy delivery.
  std::uint64_t sends_rejected = 0;
  std::uint64_t send_window_events = 0;
  std::uint64_t arrival_detach_copies = 0;
  // Dissemination overlay (core/dissemination.h): multicasts fanned out
  // through a ring/tree plan, frames forwarded on other origins' behalf,
  // direct fallback sends to suspected hops routed around, and relay
  // frames dropped (undecodable, unknown group, forged attribution).
  std::uint64_t relays_originated = 0;
  std::uint64_t relays_forwarded = 0;
  std::uint64_t relay_direct_sends = 0;
  std::uint64_t relay_drops = 0;
  // Relay gap repair: stream jumps observed behind a failed relay
  // (messages stashed until the gap fills), repair requests sent to the
  // emitter, and repair requests served from retention.
  std::uint64_t relay_gap_stashed = 0;
  std::uint64_t relay_repairs_requested = 0;
  std::uint64_t relay_repairs_served = 0;
  // Joiner state transfer (core/state_transfer.cpp): requests sent
  // (including retries), announces emitted for joiners, snapshot serves
  // performed, snapshot chunks sent/received, pre-welcome raw datagrams
  // stashed (and dropped on overflow), post-stamp deliveries stashed at
  // the joiner, snapshot-covered deliveries dropped, and joins completed
  // (kCaughtUp reached).
  std::uint64_t join_requests_sent = 0;
  std::uint64_t join_announces = 0;
  std::uint64_t join_serves = 0;
  std::uint64_t snapshot_chunks_sent = 0;
  std::uint64_t snapshot_chunks_received = 0;
  std::uint64_t join_prewelcome_stashed = 0;
  std::uint64_t join_prewelcome_dropped = 0;
  std::uint64_t join_stash_deliveries = 0;
  std::uint64_t join_covered_dropped = 0;
  std::uint64_t joins_completed = 0;
};

// The per-group state shared between the endpoint and its ordering plane:
// identity, membership view, stability bookkeeping and liveness traces.
// Ordering-discipline state (receive vector, sequencer dedup, outstanding
// forwards) lives inside the plane itself.
struct GroupCtx {
  GroupId id = 0;
  GroupOptions opts;
  View view;
  bool open = false;  // true once app sends are allowed (step 5 / bootstrap)

  // Stability (§5.1): sv[p] = latest ldn received from p; messages
  // numbered <= min(sv) over the view are stable and discarded.
  std::map<ProcessId, Counter> sv;
  // Unstable retention: emitter -> counter -> raw encoding, for refute
  // piggybacking. Each entry is an owned slice of the arrival datagram
  // (OrderedMsg::raw) — retention holds a reference, not a re-encoding.
  // Nulls are not retained (they carry no content and rv-recovery is
  // handled by the refuter's claimed_last). Node-pooled: every message
  // inserts and (on stability) erases one entry, so steady-state churn
  // must not hit the heap.
  using RetainedMap =
      std::map<Counter, util::BytesView, std::less<Counter>,
               util::PoolingNodeAllocator<
                   std::pair<const Counter, util::BytesView>>>;
  std::map<ProcessId, RetainedMap> retained;

  // Liveness bookkeeping.
  Time last_sent = 0;                       // ordered-plane, for ω
  std::map<ProcessId, Time> last_activity;  // any traffic, for Ω
  std::set<ProcessId> left;                 // announced voluntary Leave

  // Dissemination overlay (core/dissemination.h): recomputed
  // deterministically from the agreed view at creation and every view
  // installation, so all members route one multicast the same way.
  DisseminationPlan plan;
  // Relay forward dedup: per origin, the highest inner counter already
  // forwarded on its behalf. Overlay repairs and retransmissions can
  // duplicate frames; forwarding only stream-advancing ones bounds the
  // amplification at one forward per message per hop.
  std::map<ProcessId, Counter> relay_forwarded;
  // Relay gap detection. The ordered counters are Lamport clock values —
  // they jump legitimately — so they cannot tell loss from a clock
  // advance. Each content message we fan out in a relaying group is
  // instead stamped with a dense per-origin sequence (RelayFrame::seq),
  // contiguous by construction; any jump a receiver observes is proof
  // that a relay crashed mid-forward and the message is gone end-to-end.
  Counter relay_seq_next = 0;              // our own stamp, pre-increment
  std::map<Counter, Counter> relay_seq_of;  // our counter -> seq, for
                                            // re-wrapping repairs at the
                                            // original seq; trimmed with
                                            // retention at stability
  // Per-origin gate: highest seq processed. Frames above the front are
  // stashed by seq until the origin re-sends the missing range from
  // retention (wire.h RelayRepairMsg); withholding them keeps our
  // receive vector below the gap, which keeps the range unstable — and
  // therefore retained — at the origin (§5.1).
  std::map<ProcessId, Counter> relay_seen;
  std::map<ProcessId, std::map<Counter, OrderedMsg>> relay_stash;
  // Damping: the seq front (`seen` + 1) of the last repair request per
  // origin — one request per distinct front, re-armed as fills land.
  std::map<ProcessId, Counter> relay_repair_asked;
};

// "a deterministic algorithm (so processes that have the same view are
// guaranteed to choose the same sequencer)" §4.2 — lowest member id.
inline ProcessId sequencer_of(const View& view) {
  return view.members.empty() ? kNoProcess : view.members.front();
}

// Engine services an ordering plane needs: the shared logical clock,
// stats, transmission primitives and re-entry points. Implemented by
// Endpoint; planes never see the engine directly.
class PlaneHost {
 public:
  virtual ProcessId self() const = 0;
  virtual EndpointStats& mutable_stats() = 0;

  // Logical clock (§4.1): CA1 stamp for an emission, CA2 on receipt.
  virtual Counter clock_stamp() = 0;
  virtual void clock_observe(Counter c) = 0;

  // Current D_{x,i} (m.ldn stability piggyback, §5.1), including the
  // formation pin of §5.3 step 5 which the endpoint owns.
  virtual Counter ldn(const GroupCtx& g) const = 0;

  // Transmission. Buffers are encoded once and shared; the transport
  // keeps a reference instead of copying per peer.
  virtual void unicast(ProcessId to, util::SharedBytes raw) = 0;
  virtual void fan_out(const GroupCtx& g, const util::SharedBytes& raw) = 0;

  // Buffer management (host pool when available): encode scratch with
  // recycled capacity, and pooled shared-buffer wrapping. Hot emit paths
  // route their encodes through these so steady-state emission costs no
  // heap traffic.
  virtual util::Bytes obtain_buffer(std::size_t reserve) = 0;
  virtual util::SharedBytes share_buffer(util::Bytes b) = 0;

  // Runs an own emission through the receive path ("Pi delivers its own
  // messages also by executing the protocol", §3).
  virtual void loop_back(const OrderedMsg& m, Time now) = 0;

  // Stamps and multicasts a message on this process's own stream (the
  // symmetric emission path; also nulls, leaves and start-groups).
  virtual void multicast_self(GroupCtx& g, MsgType type, util::Bytes payload,
                              Time now) = 0;

  // Re-evaluates queued application sends (an echo cleared the
  // asymmetric blocking rule / flow window).
  virtual void sends_unblocked(Time now) = 0;

 protected:
  ~PlaneHost() = default;
};

// Strategy interface for one group's ordering discipline.
class OrderingPlane {
 public:
  // Verdict on a received ordered message.
  enum class Accept : std::uint8_t {
    kStale,    // at or behind the emitter's stream position: drop entirely
    kFresh,    // new on its stream; content should be processed
    kEchoDup,  // failover echo duplicate: clocks/stability advance, but the
               // content was already accepted under an earlier echo
  };

  explicit OrderingPlane(PlaneHost& host) : host_(host) {}
  virtual ~OrderingPlane() = default;

  OrderingPlane(const OrderingPlane&) = delete;
  OrderingPlane& operator=(const OrderingPlane&) = delete;

  // ---- emission --------------------------------------------------------
  // Application multicast: direct (symmetric) or forwarded to the
  // sequencer (asymmetric). Ordered control traffic (nulls, leaves,
  // start-groups) is emitted by the endpoint on its own stream in every
  // mode and does not come through here.
  virtual void submit_app(GroupCtx& g, util::Bytes payload, Time now) = 0;

  // ---- receive path ----------------------------------------------------
  // Advances the receive vector / dedup state for an incoming ordered
  // message. The endpoint has already applied membership filters and
  // observed the clock.
  virtual Accept accept(GroupCtx& g, const OrderedMsg& m, Time now) = 0;

  // Sequencer unicast forward (§4.2). Meaningless outside the asymmetric
  // discipline; the default drops it.
  virtual void handle_fwd(GroupCtx& g, const FwdMsg& f, Time now);

  // ---- delivery gate ---------------------------------------------------
  // D_{x,i}: the counter up to which this group's streams are complete.
  virtual Counter group_d(const GroupCtx& g) const = 0;
  // True when every stream that gates delivery has passed `n` — the view
  // installation barrier test of §5.2 (viii).
  virtual bool streams_passed(const GroupCtx& g, Counter n) const = 0;

  // ---- send eligibility ------------------------------------------------
  // Mixed-mode blocking rule (§4.3): true while this group's un-echoed
  // forwards must delay ordered sends in *other* groups.
  virtual bool blocks_other_groups() const { return false; }
  // Own messages not yet known stable here (flow control, §7).
  virtual std::size_t own_unstable(const GroupCtx& g) const = 0;
  // False for roles exempt from time-silence (§4.2: in a failure-free
  // asymmetric group only the sequencer's stream gates delivery).
  virtual bool runs_time_silence(const GroupCtx& g) const;

  // ---- membership integration (§5.2) -----------------------------------
  // The counter space in which suspicions about p are expressed.
  virtual Counter ln_of(const GroupCtx& g, ProcessId p) const;
  // Accepts another member's claim that p's stream reached `to` (refute
  // recovery; every content message below `to` is piggybacked or stable).
  virtual void raise_stream_floor(GroupCtx& g, ProcessId p, Counter to);
  // Whose retained stream proves `suspect`'s liveness in a refute.
  virtual ProcessId recovery_emitter(const GroupCtx& g,
                                     ProcessId suspect) const;
  // Drops all stream state for an excluded member ("RV[k] := ∞").
  virtual void forget_member(ProcessId p);
  // Called after a view installed; `old_sequencer` is the sequencer of
  // the previous view (asymmetric failover re-submission point).
  virtual void on_view_installed(GroupCtx& g, ProcessId old_sequencer,
                                 Time now);

  // ---- receive vector (common to both disciplines) ---------------------
  Counter rv(ProcessId p) const {
    auto it = rv_.find(p);
    return it != rv_.end() ? it->second : 0;
  }
  // Max-raises p's stream position (formation start-numbers, recovery).
  void raise_rv(ProcessId p, Counter to) {
    Counter& last = rv_[p];
    last = std::max(last, to);
  }

 protected:
  // Per-emitter stream dedup + receive vector advance (CA-safe because
  // the transport is FIFO and counters increase along a stream). Returns
  // false for a duplicate.
  bool advance_stream(ProcessId emitter, Counter c) {
    Counter& last = rv_[emitter];
    if (c <= last) return false;
    last = c;
    return true;
  }

  PlaneHost& host_;
  // rv[p] = highest counter received from emitter p (the Receive Vector
  // of §4.1; in asymmetric groups rv[sequencer] is the "number of the
  // last received message from the sequencer").
  std::map<ProcessId, Counter> rv_;
};

std::unique_ptr<OrderingPlane> make_symmetric_plane(PlaneHost& host);
std::unique_ptr<OrderingPlane> make_asymmetric_plane(PlaneHost& host);
std::unique_ptr<OrderingPlane> make_ordering_plane(OrderMode mode,
                                                   PlaneHost& host);

}  // namespace newtop
