// The unified application-facing API of the Newtop suite.
//
// The paper's process interface is one coherent contract — multicast,
// totally ordered deliver, view change, formation outcome — and this
// header is its single surface: a typed Event stream delivered through
// one EventSink, an explicit SendResult for the multicast admission
// decision, and a GroupHandle facade that every host (SimWorld, UdpNode)
// exposes identically, so applications, examples and tests target one
// API instead of one per host.
//
// Versioning: Event is a closed variant; adding an event kind is a new
// alternative (call sites using std::visit with exhaustive overloads get
// a compile error, std::get_if consumers ignore it silently — both are
// deliberate migration modes). Hosts install it as the single
// EndpointHooks::on_event sink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <variant>

#include "core/types.h"
#include "util/codec.h"

namespace newtop {

// A message handed to the application. With the default
// DeliveryMode::kZeroCopySlice, `payload` is an owned slice of the
// arrival datagram's single allocation (or of the sender's own encoding
// for self-delivery); under kPooledCopy it is an independent
// right-sized copy, so keeping it does not pin the arrival buffer.
struct Delivery {
  GroupId group = 0;
  ProcessId sender = 0;   // m.s — always a member of the delivery view (MD1)
  Counter counter = 0;    // m.c — the total-order position
  ViewSeq view_seq = 0;   // r of the view it was delivered in
  util::BytesView payload;
};

enum class FormationOutcome : std::uint8_t {
  kFormed = 0,
  kVetoed = 1,
  kTimedOut = 2,
};

// Byte accounting for everything the engine retains past a message's
// handling: recovery retention, suspicion-held messages and the delivery
// queue. `used` is the bytes the slices actually reference; `pinned` is
// the total size of the distinct backing allocations those slices keep
// alive. pinned >> used is the memory-bloat signature retention
// compaction (and the kPooledCopy delivery mode) exist to fix.
struct RetentionStats {
  std::size_t retained_msgs = 0;  // recovery retention entries
  std::size_t held_msgs = 0;      // suspicion-held messages
  std::size_t queued_msgs = 0;    // delivery-queue entries
  std::size_t used_bytes = 0;
  std::size_t pinned_bytes = 0;
};

// Admission verdict of a multicast. The old boolean conflated *sent*,
// *queued* and *rejected*; these are different contracts:
//   kSent          — handed to the ordering plane (and the transport).
//   kQueued        — admitted, but parked behind the mixed-mode blocking
//                    rule / flow control; emitted in order once eligible.
//   kNotMember     — this process is not (or no longer) a member; the
//                    payload was dropped.
//   kBackpressure  — the per-group pending-send window
//                    (Config::max_pending_sends) is full; the payload was
//                    dropped and a SendWindowEvent will announce reopening.
//   kTooLarge      — the payload cannot fit in one datagram of the host's
//                    transport (UdpNode: kMaxUdpPayload); it was dropped
//                    before the engine saw it.
enum class SendResult : std::uint8_t {
  kSent = 0,
  kQueued = 1,
  kNotMember = 2,
  kBackpressure = 3,
  kTooLarge = 4,
};

// True when the message was admitted (it will be multicast, now or once
// eligible) — the old `true`.
constexpr bool send_accepted(SendResult r) {
  return r == SendResult::kSent || r == SendResult::kQueued;
}

const char* to_string(SendResult r);

// Per-result tally; hosts that execute multicasts asynchronously record
// one per command so the application can audit admissions after the fact.
struct SendCounts {
  std::uint64_t sent = 0;
  std::uint64_t queued = 0;
  std::uint64_t not_member = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t too_large = 0;

  void note(SendResult r) {
    switch (r) {
      case SendResult::kSent: ++sent; break;
      case SendResult::kQueued: ++queued; break;
      case SendResult::kNotMember: ++not_member; break;
      case SendResult::kBackpressure: ++backpressure; break;
      case SendResult::kTooLarge: ++too_large; break;
    }
  }
  std::uint64_t accepted() const { return sent + queued; }
  std::uint64_t rejected() const {
    return not_member + backpressure + too_large;
  }
  std::uint64_t total() const { return accepted() + rejected(); }
};

// ---------------------------------------------------------------------
// The typed event stream
// ---------------------------------------------------------------------

// A totally ordered (or atomic-only) message reached the application.
struct DeliveryEvent {
  Delivery delivery;
};

// A new membership view was installed (§5.2 update_view / §5.3 step 5).
struct ViewChangeEvent {
  GroupId group = 0;
  View view;
};

// Dynamic group formation concluded (§5.3).
struct FormationEvent {
  GroupId group = 0;
  FormationOutcome outcome = FormationOutcome::kFormed;
};

// The per-group send window (Config::max_pending_sends) reopened after a
// kBackpressure rejection: `available` slots can be filled before the
// next rejection. Emitted exactly once per closed->open transition.
struct SendWindowEvent {
  GroupId group = 0;
  std::size_t available = 0;
};

// Progress of a joiner's state transfer (docs/STATE_TRANSFER.md).
// Emitted at the *joiner*:
//   kOffered    — the JoinWelcome arrived: the joiner holds the agreed
//                 view and the cutover stamp, and is ordering post-stamp
//                 traffic into its stash. `peer` is the transfer source.
//   kInstalling — the final snapshot chunk arrived; the installer is
//                 about to run. `bytes` is the reassembled snapshot size.
//   kCaughtUp   — snapshot installed and the stash drained: from here on
//                 the joiner's deliveries are byte-for-byte the
//                 incumbents' total order.
struct StateTransferEvent {
  enum class Phase : std::uint8_t { kOffered = 0, kInstalling = 1,
                                    kCaughtUp = 2 };
  GroupId group = 0;
  Phase phase = Phase::kOffered;
  ProcessId peer = kNoProcess;  // transfer source (kOffered/kInstalling)
  Counter stamp = 0;            // cutover stamp counter
  std::size_t bytes = 0;        // snapshot size (kInstalling/kCaughtUp)
};

// A joiner entered the view (§5.2 extended with join). Emitted at every
// incumbent when it delivers the ordered join announce, and at the
// joiner itself when the welcome installs the agreed view. Distinct from
// ViewChangeEvent (also emitted) so applications can react to growth
// without diffing member lists.
struct MemberJoinedEvent {
  GroupId group = 0;
  ProcessId member = kNoProcess;  // the joiner
  View view;                      // the view including it
};

// The one stream every engine output flows through. Events never leave
// the process, so the order of the alternatives is not on any wire;
// dispatch on the type (std::get_if / std::visit), not on index().
using Event = std::variant<DeliveryEvent, ViewChangeEvent, FormationEvent,
                           SendWindowEvent, StateTransferEvent,
                           MemberJoinedEvent>;

// Installed via EndpointHooks::on_event (hosts forward it, typically
// after recording). Called synchronously from the engine; may re-enter
// the endpoint's application API.
using EventSink = std::function<void(const Event&)>;

// ---------------------------------------------------------------------
// Group handles
// ---------------------------------------------------------------------

// What a host must provide to back GroupHandles. One GroupHost per
// (host, process) pair: SimProcess and UdpNode each implement it, so
// the facade below behaves identically everywhere.
// Hosts that own the endpoint on another thread marshal these calls onto
// the owner and block for the result — do not call them from inside an
// event sink running on that same owner thread.
// How a process joins a long-lived group (GroupHandle::join,
// Endpoint::join_group). `contacts` are incumbents to ask, tried in
// order on retry (after 400 ms of silence); `options` supplies the
// *local* fields — delivery mode and the snapshot hooks — while the
// group-wide agreement fields (mode, guarantee, dissemination, ...) are
// overwritten by the values carried in the JoinWelcome.
struct JoinOptions {
  std::vector<ProcessId> contacts;
  GroupOptions options;
};

class GroupHost {
 public:
  virtual SendResult group_multicast(GroupId g, util::Bytes payload) = 0;
  virtual void group_leave(GroupId g) = 0;
  virtual std::optional<View> group_view(GroupId g) = 0;
  virtual RetentionStats group_retention_stats(GroupId g) = 0;
  virtual bool group_join(GroupId g, JoinOptions opts) = 0;

 protected:
  ~GroupHost() = default;
};

// Value-type facade over one group membership. Obtained from a host
// (SimWorld::group, UdpNode::group); valid while that host is alive.
// Copyable: handles are names, not owners — leaving through one handle
// makes every copy report kNotMember.
class GroupHandle {
 public:
  GroupHandle() = default;
  GroupHandle(GroupHost* host, GroupId id) : host_(host), id_(id) {}

  GroupId id() const { return id_; }
  bool valid() const { return host_ != nullptr; }

  // Multicasts payload to the group; see SendResult for the contract.
  SendResult multicast(util::Bytes payload);
  // Voluntary departure (§5): announces a final ordered Leave message.
  void leave();
  // The currently installed view, or nullopt when not a member.
  std::optional<View> view();
  // Engine byte accounting for this group (see RetentionStats).
  RetentionStats retention_stats();
  // Asks to join the (already formed, total-order) group via
  // opts.contacts; returns false if the request could not even be sent
  // (invalid handle, no contacts, already a member). Progress arrives as
  // StateTransferEvent / MemberJoinedEvent on the event stream.
  bool join(JoinOptions opts);

 private:
  GroupHost* host_ = nullptr;
  GroupId id_ = 0;
};

}  // namespace newtop
