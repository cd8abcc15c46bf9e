// The Newtop protocol engine.
//
// One Endpoint embodies one process Pi: its logical clock, its membership
// in any number of groups, the symmetric/asymmetric/mixed-mode total order
// machinery (§4), and the fault-tolerant membership, recovery, stability
// and group-formation services (§5).
//
// The engine is a deterministic state machine. It performs no I/O, owns no
// threads and reads no clocks: inputs are `on_message` (a payload arriving
// on the reliable FIFO transport), `on_tick` (time passing) and the
// application API; outputs flow through the EndpointHooks callbacks. Hosts
// (the discrete-event simulator, the UDP host) own time and I/O.
// This is what makes the adversarial schedules of the paper's Examples 1-3
// replayable in tests.
//
// Layering: the per-group ordering discipline (receive vectors, sequencer
// forwards/echoes, send eligibility) lives behind the OrderingPlane
// strategy interface (core/ordering.h); the Endpoint keeps the shared
// concerns — Lamport clock, global delivery queue, stability, membership
// agreement and group formation — and dispatches through the interface.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/api.h"
#include "core/config.h"
#include "core/lamport.h"
#include "core/ordering.h"
#include "core/types.h"
#include "core/wire.h"
#include "sim/time.h"
#include "util/buffer_pool.h"
#include "util/codec.h"

namespace newtop {

using sim::Time;

// Host-provided callbacks. `send` must provide the paper's transport
// guarantee: FIFO, uncorrupted delivery to live connected peers (the
// transport::Router does). The encoded buffer is shared: one encoding
// fans out to every peer, and the transport may retain the reference for
// retransmission. Callbacks may re-enter the endpoint's API.
//
// Engine outputs flow as a typed Event stream (core/api.h) through
// `on_event`, which must be set.
struct EndpointHooks {
  std::function<void(ProcessId to, util::SharedBytes data)> send;
  // Optional relay re-send path (ring/tree dissemination,
  // core/dissemination.h): transmit a received slice verbatim to `to`.
  // The view keeps the arrival datagram's allocation alive, so a host
  // wiring this straight into its transport forwards without a copy.
  // When unset, the engine detaches the slice into a fresh shared buffer
  // and falls back to `send`.
  std::function<void(ProcessId to, util::BytesView data)> send_relay;
  // The unified event sink: deliveries, view changes, formation
  // outcomes, send-window reopenings and state-transfer progress.
  EventSink on_event;
  // Vote on an invitation to form a group (§5.3 step 2). Default: yes.
  std::function<bool(const FormInviteMsg&)> accept_invite;
  // Optional host-provided buffer pool. Retention compaction and the
  // kPooledCopy delivery mode draw their right-sized buffers from it;
  // absent, both fall back to plain allocations.
  util::BufferPoolPtr buffer_pool;
};

class Endpoint : private PlaneHost {
 public:
  Endpoint(ProcessId self, Config config, EndpointHooks hooks);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  // ------------------------------------------------------------------
  // Application API
  // ------------------------------------------------------------------

  // Static bootstrap: installs V0 = members directly. Every member must
  // call this with identical arguments (the paper's "when gx is initially
  // formed, each functioning Pi installs an initial view V0"), and — on
  // hosts where members bootstrap asynchronously (threads, real networks)
  // — BEFORE any member multicasts: a message arriving for a group the
  // receiver has not yet created is dropped as not-a-member. Use
  // initiate_group for race-free dynamic creation; it defers application
  // sends until every member has acknowledged the group (§5.3 step 5).
  void create_group(GroupId g, std::vector<ProcessId> members,
                    GroupOptions options, Time now);

  // Dynamic group formation (§5.3): runs the two-phase invite and the
  // start-group agreement; outcome reported as a FormationEvent.
  void initiate_group(GroupId g, std::vector<ProcessId> members,
                      GroupOptions options, Time now);

  // Multicasts payload to the group. May queue locally (mixed-mode
  // blocking rule, flow control, formation in progress); queued sends are
  // emitted in order as they become eligible. Returns the admission
  // verdict (core/api.h): kSent / kQueued on acceptance, kNotMember when
  // this process is not a member of g, kBackpressure when the per-group
  // pending window (Config::max_pending_sends) is full. A re-entrant
  // multicast from a delivery callback may see kQueued reported for a
  // message that was in fact submitted (the conservative direction).
  SendResult multicast(GroupId g, util::Bytes payload, Time now);

  // Voluntary departure (§5): announces a final ordered Leave message and
  // drops all local state for g. Remaining members agree on the departure
  // through the regular membership protocol with ln = the Leave's number.
  void leave_group(GroupId g, Time now);

  // Joins an already-formed total-order group (docs/STATE_TRANSFER.md):
  // sends a JoinRequest to opts.contacts[0]; an incumbent turns it into
  // an ordered announce whose delivery position is the cutover stamp, the
  // designated transfer source streams a snapshot of the application
  // state as of that stamp, and this endpoint installs snapshot + stashed
  // post-stamp deliveries before its first normal delivery. Returns false
  // if the request cannot even be sent (no contacts, already a member or
  // already joining); progress arrives as StateTransferEvent /
  // MemberJoinedEvent. Retries ride on_tick (kJoinRetry).
  bool join_group(GroupId g, JoinOptions opts, Time now);

  // ------------------------------------------------------------------
  // Transport and timer inputs
  // ------------------------------------------------------------------

  // A payload delivered by the reliable FIFO transport from `from`, as an
  // owned slice of the arrival datagram (plain Bytes convert implicitly,
  // at the cost of one copy). A BatchFrame payload is unwrapped and each
  // sub-message dispatched as a sub-slice, as if it had arrived alone
  // (frames never nest).
  void on_message(ProcessId from, util::BytesView data, Time now);

  // Drives time-silence (ω), the failure suspector (Ω) and formation
  // timeouts. Call at least every ω/2.
  void on_tick(Time now);

  // ------------------------------------------------------------------
  // Introspection (tests, benchmarks, examples)
  // ------------------------------------------------------------------

  ProcessId self() const override { return self_; }
  Counter lc() const { return lc_.value(); }
  bool is_member(GroupId g) const { return groups_.count(g) > 0; }
  const View* view(GroupId g) const;
  SignatureView signature_view(GroupId g) const;
  std::vector<GroupId> group_ids() const;
  ProcessId sequencer_of(GroupId g) const;
  bool open_for_app(GroupId g) const;
  Counter group_d(GroupId g) const;  // D_{x,i}
  Counter global_d() const;          // D_i = min over groups
  std::size_t queued_deliveries() const { return queue_.size(); }
  std::size_t queued_sends() const { return pending_sends_.size(); }
  std::size_t retained_messages(GroupId g) const;
  RetentionStats retention_stats(GroupId g) const;
  std::size_t own_unstable(GroupId g) const;
  // True while this endpoint holds an own (suspector-confirmed) suspicion
  // of p in group g.
  bool suspects(GroupId g, ProcessId p) const;
  const EndpointStats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }

 private:
  // ---- Internal state ------------------------------------------------

  // A pending view change: detection agreed, waiting for the delivery
  // barrier of update_view(F, lnmn) (§5.2 viii).
  struct Installing {
    std::vector<ProcessId> failed;
    Counter lnmn = 0;
  };

  // Group formation in progress (§5.3).
  struct FormationState {
    FormInviteMsg invite;
    std::map<ProcessId, bool> votes;   // received yes/no, including own
    bool activated = false;            // step 4 reached
    std::set<ProcessId> start_seen;    // StartGroup senders
    Counter start_max = 0;             // max start-number seen
    Time started_at = 0;
    bool initiator_vetoed = false;
  };

  // Per-group membership agreement state (the GV process of §5.2).
  struct GvState {
    // Own suspicions {Pk, ln} (entered on suspector notification or via
    // a Leave announcement / reciprocation).
    std::set<Suspicion> suspicions;
    // For each own suspicion, the members whose matching suspect message
    // we have received (condition v).
    std::map<Suspicion, std::set<ProcessId>> endorsements;
    // Suspicions of others we have not adopted (judgement suspended).
    std::map<Suspicion, std::set<ProcessId>> gossip;
    // Ordered messages from processes we currently suspect, held pending
    // the agreement outcome (released on refute, filtered on confirm).
    std::map<ProcessId, std::vector<OrderedMsg>> pending;
    // Agreed detections awaiting installation, FIFO (one barrier at a
    // time keeps the installation order identical everywhere).
    std::deque<std::vector<Suspicion>> waves;
    // Confirm messages received while a barrier was active, with sender.
    std::deque<std::pair<ProcessId, ConfirmMsg>> deferred_confirms;
  };

  // Shared per-group state (GroupCtx, visible to the ordering plane) plus
  // the engine-private services: membership agreement, formation and the
  // plane instance itself. Ordering-discipline state (receive vector,
  // sequencer dedup, outstanding forwards) lives inside `plane`.
  struct GroupState : GroupCtx {
    std::unique_ptr<OrderingPlane> plane;
    GvState gv;
    std::optional<Installing> installing;
    std::unique_ptr<FormationState> forming;
    std::uint32_t excluded_count = 0;  // signature views (§6)
    // Send-window bookkeeping (Config::max_pending_sends): entries of
    // pending_sends_ belonging to this group, and whether a multicast
    // was rejected since the window last had room (the SendWindowEvent
    // is owed exactly once per closed->open transition).
    std::size_t pending_app = 0;
    bool window_closed = false;
    // Set when the application leaves the group while a handler is on the
    // stack: the state is skipped by all lookups and erased once the
    // outermost handler returns (std::map erase would otherwise invalidate
    // references held by callers up the stack).
    bool defunct = false;
    // Cutover-stamp coordinate: the QueueKey of the last delivery popped
    // for this group. A JoinWelcome / snapshot serve cuts the stream
    // exactly here — the provider state reflects every delivery at or
    // before this key and nothing after.
    Counter last_delivered_c = 0;
    ProcessId last_delivered_s = 0;
    // Joiners this member has announced (join-request dedup); cleared
    // when the announce delivers.
    std::set<ProcessId> join_pending;
    // Joiners whose snapshot serve is deferred (a membership wave or our
    // own join is in flight); drained at install_view completion and at
    // complete_join_install.
    std::vector<ProcessId> pending_join_serves;
  };

  // Global delivery queue key: safe2's "non-decreasing order of their
  // numbers [with] a fixed pre-determined delivery order ... on messages
  // of equal number" — (counter, group, sender) is identical at every
  // process.
  struct QueueKey {
    Counter counter;
    GroupId group;
    ProcessId sender;
    auto operator<=>(const QueueKey&) const = default;
  };

  struct PendingSend {
    GroupId group;
    util::Bytes payload;
  };

  // One in-flight join, from join_group until the snapshot installs
  // (core/state_transfer.cpp). Pre-welcome there is deliberately NO
  // GroupState — send_eligible and pump_sends dereference every group's
  // plane — so raw traffic for the group is stashed here and replayed
  // once the welcome creates the membership.
  struct JoinState {
    JoinOptions opts;
    std::size_t next_contact = 0;  // rotates through contacts / view
    Time last_request = 0;
    bool welcomed = false;  // GroupState exists; snapshot still pending
    ProcessId source = kNoProcess;
    Counter stamp_counter = 0;
    ProcessId stamp_sender = 0;
    std::vector<std::uint8_t> snapshot;  // reassembled chunks
    std::uint64_t chunks = 0;
    // Raw datagram copies that arrived before the welcome (bounded by
    // kJoinStashMax; overflow drops the oldest).
    std::deque<std::pair<ProcessId, util::Bytes>> prewelcome;
    // Ordered deliveries past the stamp, held until the snapshot
    // installs; payloads are detached copies (nothing pins arrivals).
    struct StashedDelivery {
      ProcessId sender = 0;
      Counter counter = 0;
      ViewSeq view_seq = 0;
      util::Bytes payload;
    };
    std::vector<StashedDelivery> stash;
  };

  // RAII re-entrancy scope for public entry points: group erasures
  // requested while any handler is on the stack are deferred until the
  // outermost scope exits (std::map::erase would invalidate references
  // held by frames above).
  class Reentrancy {
   public:
    explicit Reentrancy(Endpoint& e) : e_(e) { ++e_.depth_; }
    ~Reentrancy() {
      if (--e_.depth_ == 0) e_.flush_erasures();
    }
    Reentrancy(const Reentrancy&) = delete;
    Reentrancy& operator=(const Reentrancy&) = delete;

   private:
    Endpoint& e_;
  };
  void flush_erasures();

  // ---- PlaneHost (services the ordering planes call back into) --------
  EndpointStats& mutable_stats() override { return stats_; }
  Counter clock_stamp() override { return lc_.stamp_send(); }
  void clock_observe(Counter c) override { lc_.observe(c); }
  Counter ldn(const GroupCtx& g) const override;
  void unicast(ProcessId to, util::SharedBytes raw) override;
  void fan_out(const GroupCtx& g, const util::SharedBytes& raw) override;
  util::Bytes obtain_buffer(std::size_t reserve) override;
  util::SharedBytes share_buffer(util::Bytes b) override;
  void loop_back(const OrderedMsg& m, Time now) override;
  void multicast_self(GroupCtx& g, MsgType type, util::Bytes payload,
                      Time now) override;
  void sends_unblocked(Time now) override;

  // ---- Shared engine (endpoint.cpp) -----------------------------------
  GroupState* find_group(GroupId g);
  const GroupState* find_group(GroupId g) const;
  Counter group_d(const GroupState& gs) const;
  bool counts_for_global_d(const GroupState& gs) const;
  void dispatch_message(ProcessId from, const util::BytesView& data,
                        Time now, bool allow_batch);
  void emit_ordered(GroupState& gs, MsgType type, util::Bytes payload,
                    Time now);
  void process_ordered(ProcessId link_from, const OrderedMsg& msg, Time now,
                       bool via_recovery);
  void pump_deliveries(Time now);
  void pump_sends(Time now);

  // ---- Dissemination overlay (core/dissemination.h) -------------------
  // Origin-side fan-out through the group's relay plan (called by
  // fan_out when the plan is not full-mesh).
  void relay_fan_out(const GroupState& gs, const util::SharedBytes& raw);
  // A received RelayFrame: forward the received slice along the overlay,
  // then dispatch the inner message attributed to the origin.
  void handle_relay(ProcessId from, const RelayFrame& f,
                    const util::BytesView& frame_raw, Time now);
  // Re-sends a received slice (send_relay hook; copy fallback).
  void relay_resend(ProcessId to, const util::BytesView& slice);
  // Asks `origin` to re-send its retained stream above our receive
  // vector, once per distinct gap front `seen + 1`.
  void request_relay_repair(GroupState& gs, ProcessId origin, Counter seen);
  // True for hops the overlay must route around (suspected, in a pending
  // exclusion wave, or announced Leave).
  bool relay_skip(const GroupState& gs, ProcessId p) const;
  // Serves a RelayRepairMsg for our own stream: re-wraps retained raw
  // encodings above `have` in RelayFrames at their original sequence
  // numbers (relay_seq_of) and sends them directly to the requester.
  void handle_relay_repair(ProcessId from, const RelayRepairMsg& msg,
                           Time now);
  // Drops stale stash entries for `origin` and dispatches the ones the
  // advancing seq front has made consecutive (after in-order arrivals
  // and repair fills).
  void relay_drain_stash(GroupId g, ProcessId origin, Time now);
  bool send_eligible(const GroupState& gs) const;
  void deliver_app(const GroupState& gs, const OrderedMsg& msg);
  void advance_stability(GroupState& gs);

  // ---- Unified event stream (core/api.h) ------------------------------
  // Every engine output funnels through here into the on_event sink.
  // The sink may re-enter the API.
  void emit_event(const Event& ev);
  // Emits the owed SendWindowEvent for every group whose window
  // transitioned closed -> open (end of pump_sends).
  void notify_send_windows();
  // kPooledCopy delivery: re-backs an accepted message with right-sized
  // buffers (from the host pool when one is installed, plain copies
  // otherwise) so the arrival datagram is released when its handling
  // returns. copy_raw is false for self-emitted messages, whose raw
  // encoding the transport pins anyway.
  void detach_arrival(OrderedMsg& m, bool copy_raw);
  // Copies `v` into a right-sized buffer, pooled when a pool is installed.
  util::SharedBytes pooled_copy(const util::BytesView& v);

  // ---- Retention compaction (tentpole: bound pinned bytes) ------------
  bool should_compact(const util::BytesView& v, long own_refs) const;
  util::BytesView compact_view(const util::BytesView& v);
  void compact_msg(OrderedMsg& m);
  void compact_retention();

  // ---- Membership service (endpoint_membership.cpp) -------------------
  void tick_suspector(GroupState& gs, Time now);
  Counter ln_of(const GroupState& gs, ProcessId p) const;
  void add_suspicion(GroupState& gs, Suspicion s, Time now);
  void handle_suspect(ProcessId from, const SuspectMsg& msg, Time now);
  void handle_refute(ProcessId from, const RefuteMsg& msg, Time now);
  void handle_confirm(ProcessId from, const ConfirmMsg& msg, Time now);
  void refute(GroupState& gs, Suspicion s, Time now);
  void resolve_refuted(GroupState& gs, Suspicion s, Time now);
  void check_consensus(GroupState& gs, Time now);
  void adopt_wave(GroupState& gs, std::vector<Suspicion> detection,
                  Time now);
  void begin_barrier(GroupState& gs, Time now);
  void try_complete_barrier(GroupState& gs, Time now);
  void install_view(GroupState& gs, Time now);
  std::vector<util::BytesView> recovery_payload(const GroupState& gs,
                                                ProcessId suspect,
                                                Counter above) const;
  bool has_suspicion_on(const GroupState& gs, ProcessId p) const;
  bool in_pending_wave(const GroupState& gs, ProcessId p) const;

  // ---- Joiner state transfer (core/state_transfer.cpp) ----------------
  // Joiner side: retry timer (pre-welcome contact cycling, post-welcome
  // source re-request after a mid-snapshot crash).
  void tick_join(Time now);
  // Sends (or re-sends) the JoinRequest for an in-flight join.
  void send_join_request(GroupId g, JoinState& js, Time now);
  // Incumbent side: a JoinRequest arrived — emit the ordered announce
  // (or, for a joiner already in the view, re-serve at the current cut).
  void handle_join_request(ProcessId from, const JoinRequestMsg& msg,
                           Time now);
  // The ordered announce delivered: grow the view, seed the joiner's
  // stability/receive-vector floors at the stamp, re-send own retained
  // content above it, and serve the snapshot if we are the source.
  void handle_join_announce(GroupState& gs, const OrderedMsg& msg, Time now);
  // Joiner side: the welcome installs the agreed view and the stamp.
  void handle_join_welcome(ProcessId from, const JoinWelcomeMsg& msg,
                           Time now);
  void handle_snapshot(ProcessId from, const SnapshotFrame& msg, Time now);
  // Welcome + retention re-send + suspicions + chunked snapshot, cut at
  // gs.last_delivered; the one serve path for both announce-time and
  // re-request serves.
  void serve_join(GroupState& gs, ProcessId joiner);
  // Drains pending_join_serves when the blocking condition (membership
  // wave, own join) has cleared.
  void maybe_serve_joins(GroupState& gs);
  // Final chunk arrived: install the snapshot, drain the stash, go live.
  void complete_join_install(GroupId g, Time now);
  // Buffers pre-welcome raw traffic for a group being joined; true if
  // the datagram was consumed (caller drops it without further handling).
  bool stash_prewelcome(ProcessId from, GroupId g,
                        const util::BytesView& data);
  // Deterministic transfer source: lowest live view member != joiner.
  ProcessId transfer_source(const GroupState& gs, ProcessId joiner) const;

  // ---- Group formation (endpoint_formation.cpp) -----------------------
  void handle_form_invite(ProcessId from, const FormInviteMsg& msg,
                          Time now);
  void handle_form_reply(ProcessId from, const FormReplyMsg& msg, Time now);
  void handle_start_group(GroupState& gs, const OrderedMsg& msg, Time now);
  void maybe_activate_formation(GroupState& gs, Time now);
  void maybe_complete_formation(GroupState& gs, Time now);
  void abort_formation(GroupId g, FormationOutcome outcome);
  void tick_formation(GroupState& gs, Time now);

  ProcessId self_;
  Config cfg_;
  EndpointHooks hooks_;
  LamportClock lc_;
  std::map<GroupId, GroupState> groups_;
  // Node-pooled: one insert + one erase per queued message (the hot
  // path); erased nodes recycle instead of hitting the allocator.
  std::map<QueueKey, OrderedMsg, std::less<QueueKey>,
           util::PoolingNodeAllocator<std::pair<const QueueKey, OrderedMsg>>>
      queue_;
  std::deque<PendingSend> pending_sends_;
  EndpointStats stats_;
  // Form-group replies can overtake the invite (they travel on different
  // channels); buffered here until the invite arrives.
  struct EarlyReply {
    ProcessId from;
    FormReplyMsg msg;
    Time at;
  };
  std::map<GroupId, std::vector<EarlyReply>> early_replies_;
  // In-flight joins (joiner side), keyed by group; erased when the
  // snapshot installs (core/state_transfer.cpp).
  std::map<GroupId, JoinState> joining_;
  // Groups erased during processing are deferred to avoid iterator
  // invalidation while handlers run.
  std::vector<GroupId> pending_erase_;
  int depth_ = 0;  // re-entrancy depth for deferred erase
  // Reusable snapshot scratch (steal/return): the per-tick group-id and
  // member snapshots keep their capacity instead of reallocating.
  std::vector<GroupId> tick_ids_scratch_;
  std::vector<ProcessId> suspector_scratch_;
};

}  // namespace newtop
