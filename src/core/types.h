// Fundamental identifier and option types of the Newtop protocol suite.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace newtop {

// Process and group identifiers. A ProcessId doubles as the transport peer
// id: one Newtop endpoint per process, shared by all its groups (the paper
// gives each process one logical clock regardless of group count, §4.1).
using ProcessId = std::uint32_t;
using GroupId = std::uint32_t;

// Logical-clock value / message number (m.c in the paper).
using Counter = std::uint64_t;

// View installation sequence number (the r in V^r_{x,i}).
using ViewSeq = std::uint32_t;

constexpr ProcessId kNoProcess = UINT32_MAX;
constexpr Counter kCounterMax = UINT64_MAX;

// Ordering protocol run in a group (§4). A process may use different modes
// in different groups (the "generic version", §4.3); the mode itself is a
// group-wide agreement fixed at group creation.
enum class OrderMode : std::uint8_t {
  kSymmetric = 0,   // receive-vector / logical-clock ordering (§4.1)
  kAsymmetric = 1,  // sequencer-based ordering (§4.2)
};

// Delivery guarantee for a group (§2: "If order is not required, Newtop
// can provide just atomic delivery").
enum class Guarantee : std::uint8_t {
  kTotalOrder = 0,  // causality-preserving total order (MD4/MD4')
  kAtomicOnly = 1,  // atomic delivery w.r.t. views, no ordering
};

// Payload ownership handed to the application for a group's deliveries.
// The zero-copy receive path makes every downstream consumer hold slices
// of the arrival datagram's single allocation — free at receive time, but
// a liability for latency-insensitive consumers that keep payloads for a
// long time: one small retained slice pins its whole (possibly multi-KB)
// BatchFrame. kPooledCopy detaches accepted messages from the arrival
// buffer at receive time, so the datagram is released the moment its
// handling returns.
enum class DeliveryMode : std::uint8_t {
  kZeroCopySlice = 0,  // slices of the arrival buffer (lowest latency)
  // Right-sized copies, drawn from the host BufferPool when one is
  // installed (EndpointHooks::buffer_pool), plain heap copies otherwise.
  kPooledCopy = 1,
};

// Dissemination overlay for a group's ordered-plane multicasts
// (core/dissemination.h). The paper's §4 protocol has every member
// datagram every other member per multicast — O(n²) wire cost as the
// group grows. Ring and tree overlays relay instead: a sender transmits
// to O(1)/O(arity) next hops, which forward the received encoding along
// the overlay. Ordering is untouched (only *who transmits to whom*
// changes); the strategy is part of the group-wide agreement and is
// carried in formation invites.
enum class DisseminationStrategy : std::uint8_t {
  kFullMesh = 0,  // §4's direct per-member sends (the default)
  kRing = 1,      // cyclic successor forwarding: a tree of arity 1
  kTree = 2,      // origin-rooted k-ary tree, O(arity) sends per hop
};

struct GroupOptions {
  OrderMode mode = OrderMode::kSymmetric;
  Guarantee guarantee = Guarantee::kTotalOrder;
  // Local consumption preference (not part of the group-wide agreement
  // and not carried on the wire): each member picks how payloads are
  // handed to *its* application. Invite-formed members default to
  // kZeroCopySlice.
  DeliveryMode delivery = DeliveryMode::kZeroCopySlice;
  // §4's static failure-free configuration: the failure suspector is off
  // and, in asymmetric groups, only the sequencer runs time-silence ("It
  // is necessary for only the sequencer of a group to operate the
  // time-silence mechanism for that group", §4.2). The fault-tolerant
  // protocol (§5) requires every process to run time-silence in every
  // group, which is the default.
  bool failure_free = false;
  // Dissemination overlay for ordered-plane multicasts (part of the
  // group-wide agreement, carried in formation invites). Control-plane
  // messages (suspect/refute/confirm, formation) always go direct —
  // relying on the overlay while deciding which relays are dead would
  // be circular.
  DisseminationStrategy dissemination = DisseminationStrategy::kFullMesh;
  // Fan-out degree of each kTree relay (ignored by the other strategies).
  std::uint32_t relay_arity = 4;

  // State-transfer hooks (local-only, not part of the group-wide
  // agreement and not carried on the wire — like `delivery`). When a
  // joiner is announced, the designated transfer source calls
  // `snapshot_provider` to serialise its application state as of the
  // cutover stamp (everything delivered so far, nothing after); the
  // joiner calls `snapshot_installer` with the reassembled bytes before
  // draining its stash of post-stamp deliveries. A member without a
  // provider serves an empty snapshot; a joiner without an installer
  // discards the bytes (the events still fire, so the application can
  // observe the transfer either way).
  std::function<std::vector<std::uint8_t>(GroupId)> snapshot_provider;
  std::function<void(GroupId, const std::vector<std::uint8_t>&)>
      snapshot_installer;
};

// A membership view: the sorted list of members plus the installation
// sequence number. Sorted order gives every process the same deterministic
// iteration, tie-break and sequencer-selection behaviour.
struct View {
  ViewSeq seq = 0;
  std::vector<ProcessId> members;  // sorted ascending

  bool contains(ProcessId p) const {
    for (ProcessId m : members)
      if (m == p) return true;
    return false;
  }
  std::size_t size() const { return members.size(); }

  bool operator==(const View&) const = default;
};

// Signature view (§6, after Schiper & Ricciardi [19]): members tagged with
// the number of processes this process has excluded since the initial
// view. With signatures enabled, concurrent views of different subgroups
// never intersect (not even transiently).
struct SignatureView {
  std::vector<std::pair<ProcessId, std::uint32_t>> signatures;

  bool intersects(const SignatureView& other) const {
    for (const auto& a : signatures)
      for (const auto& b : other.signatures)
        if (a == b) return true;
    return false;
  }
};

std::string to_string(const View& v);

}  // namespace newtop
