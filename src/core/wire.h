// Wire format of Newtop protocol messages.
//
// Two planes share the reliable FIFO transport:
//  - the *ordered* plane: application multicasts, time-silence nulls,
//    leave announcements and sequencer forwards — everything stamped with
//    logical-clock numbers (m.c) and stability info (m.ldn);
//  - the *control* plane: membership agreement (suspect/refute/confirmed)
//    and group formation (invite/reply/start-group), which the paper's
//    group-view processes exchange outside the ordered stream.
//
// The paper's headline claim of "low and bounded message space overhead"
// is visible here: an ordered message carries a fixed handful of varints
// (type, group, sender, emitter, counter, origin counter, ldn) regardless
// of group size — contrast with O(n) vector clocks or predecessor lists
// (see bench/bench_overhead.cpp, experiment E6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/types.h"
#include "util/codec.h"

namespace newtop {

enum class MsgType : std::uint8_t {
  // Ordered plane.
  kApp = 1,        // application multicast (direct or sequencer echo)
  kNull = 2,       // time-silence null message (§4.1)
  kLeave = 3,      // voluntary departure announcement (§5)
  kFwd = 4,        // asymmetric mode: origin -> sequencer unicast (§4.2)
  kStartGroup = 5, // group formation step 4/5 (§5.3)
  // Transport containers.
  kBatch = 6,      // several protocol payloads coalesced into one datagram
  kRelay = 7,      // overlay-relayed ordered message (ring/tree fan-out)
  kRelayRepair = 8,  // relay gap-repair request (receiver -> emitter)
  kJoinAnnounce = 9, // ordered join announcement: its delivery position is
                     // the state-transfer cutover stamp (docs/STATE_TRANSFER.md)
  // Control plane.
  kSuspect = 16,
  kRefute = 17,
  kConfirm = 18,
  kFormInvite = 19,
  kFormReply = 20,
  kJoinRequest = 21, // joiner -> contact: ask to be announced into the group
  kJoinWelcome = 22, // incumbent -> joiner: view + options + cutover stamp
  kSnapshot = 23,    // transfer source -> joiner: one chunk of app state
};

// An ordered-plane message. `sender` is m.s (the application-level
// originator); `emitter` is the process whose logical clock stamped
// `counter` — the sender itself in symmetric groups, the sequencer for
// echoes in asymmetric groups. They are carried explicitly so a message
// recovered via refute piggybacking is self-describing.
//
// Zero-copy receive path: `payload` and `raw` are owned slices of the
// arrival datagram's single heap allocation (decode never copies them),
// so a decoded message — and anything that retains it: the delivery
// queue, suspicion-held buffers, recovery retention — can outlive the
// datagram's handling without copying bytes.
struct OrderedMsg {
  MsgType type = MsgType::kApp;
  GroupId group = 0;
  ProcessId sender = 0;
  ProcessId emitter = 0;
  Counter counter = 0;         // m.c
  Counter origin_counter = 0;  // asym: number the origin gave its unicast
  Counter ldn = 0;             // m.ldn, emitter's D at transmission (§5.1)
  util::BytesView payload;
  // The exact received encoding (decode: the whole input view; emit
  // paths: the one shared encoding that fanned out). Retention and refute
  // piggybacking reuse it instead of re-encoding.
  util::BytesView raw;

  // `reuse` (optional) provides recycled storage for the encoding
  // (buffer pooling); its capacity is kept, its contents discarded.
  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<OrderedMsg> decode(util::BytesView data);
};

// Asymmetric-mode forward (origin's unicast to the sequencer).
struct FwdMsg {
  GroupId group = 0;
  ProcessId origin = 0;
  Counter origin_counter = 0;
  util::BytesView payload;  // slice of the arrival datagram; the echo
                            // re-encoding reuses it without copying

  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<FwdMsg> decode(util::BytesView data);
};

// A suspicion: "Pk has failed and the last message I attribute to it is
// numbered ln" — the {Pk, ln} pairs of §5.2.
struct Suspicion {
  ProcessId process = 0;
  Counter ln = 0;

  auto operator<=>(const Suspicion&) const = default;
};

struct SuspectMsg {
  GroupId group = 0;
  Suspicion suspicion;

  util::Bytes encode() const;
  static std::optional<SuspectMsg> decode(util::BytesView data);
};

struct RefuteMsg {
  GroupId group = 0;
  Suspicion suspicion;
  // The refuter's current receive-vector entry for the suspect: the
  // proof of liveness ("I have received m with m.c > ln from Pk"). The
  // receiver may raise its own entry to this value because every
  // application message in the gap is either piggybacked below or already
  // stable (= received by every view member); only nulls are skipped.
  Counter claimed_last = 0;
  // Raw encodings of retained ordered messages proving the suspect's
  // liveness and letting the suspector recover what it missed (§5.2 iii).
  // On the refuter these are the retention slices themselves; on the
  // receiver, slices of the refute datagram.
  std::vector<util::BytesView> recovered;

  util::Bytes encode() const;
  static std::optional<RefuteMsg> decode(util::BytesView data);
};

struct ConfirmMsg {
  GroupId group = 0;
  std::vector<Suspicion> detection;

  util::Bytes encode() const;
  static std::optional<ConfirmMsg> decode(util::BytesView data);
};

struct FormInviteMsg {
  GroupId group = 0;
  ProcessId initiator = 0;
  GroupOptions options;
  std::vector<ProcessId> members;

  util::Bytes encode() const;
  static std::optional<FormInviteMsg> decode(util::BytesView data);
};

struct FormReplyMsg {
  GroupId group = 0;
  ProcessId voter = 0;
  bool yes = false;

  util::Bytes encode() const;
  static std::optional<FormReplyMsg> decode(util::BytesView data);
};

// A join request: a process outside the group asks a contact (any
// incumbent) to bring it in. The contact answers by emitting an ordered
// kJoinAnnounce whose delivery position — identical at every member, by
// total order — becomes the state-transfer cutover stamp.
struct JoinRequestMsg {
  GroupId group = 0;
  ProcessId joiner = 0;

  util::Bytes encode() const;
  static std::optional<JoinRequestMsg> decode(util::BytesView data);
};

// The welcome an incumbent unicasts to the joiner when it delivers the
// join announce: the agreed view (joiner included), the group options as
// carried on the wire (FormInviteMsg layout), and the cutover stamp
// {stamp_counter, stamp_sender} — the queue position of the announce
// itself. Every delivery ordered at or before the stamp is covered by
// the snapshot; everything after it the joiner orders normally (stashed
// until the snapshot installs).
struct JoinWelcomeMsg {
  GroupId group = 0;
  ProcessId source = 0;  // designated transfer source in the new view
  Counter stamp_counter = 0;
  ProcessId stamp_sender = 0;
  std::uint64_t view_seq = 0;
  GroupOptions options;  // wire-carried fields only (no callbacks)
  std::vector<ProcessId> members;  // new view, joiner included

  util::Bytes encode() const;
  static std::optional<JoinWelcomeMsg> decode(util::BytesView data);
};

// One chunk of the application snapshot, unicast source -> joiner over
// the reliable FIFO channel (so chunks arrive in order, no loss). The
// stamp identifies which cutover the bytes belong to: a joiner that
// re-requested after a source crash drops chunks from the stale cut.
// `index` must equal the count of chunks already accepted; `last` marks
// the final chunk, after which the joiner installs and drains its stash.
struct SnapshotFrame {
  GroupId group = 0;
  Counter stamp_counter = 0;
  std::uint64_t index = 0;
  bool last = false;
  util::BytesView payload;  // slice of the arrival datagram

  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<SnapshotFrame> decode(util::BytesView data);
};

// A relay container (ring/tree dissemination, core/dissemination.h):
// wraps exactly one encoded ordered-plane message with the identity of
// its *origin* (the process whose fan-out produced it). Receivers on the
// overlay re-send the received encoding verbatim to their own next hops
// (encode-once: the forwarded bytes are a slice of the arrival datagram,
// never a re-encode) and dispatch the inner message attributed to the
// origin, not the relaying link. The inner payload must itself be an
// ordered-plane message — nesting a BatchFrame or another RelayFrame is
// rejected on decode (amplification), though a RelayFrame may ride
// *inside* a BatchFrame like any other protocol payload.
struct RelayFrame {
  GroupId group = 0;
  ProcessId origin = 0;
  // Dense per-origin content sequence, stamped at fan-out. The ordered
  // counters are Lamport values (they jump), so they cannot detect
  // end-to-end loss at a crashed relay; this sequence is contiguous by
  // construction, making any jump at a receiver a proof of loss.
  // Content frames carry their own (fresh) number; nulls carry the
  // origin's current frontier, which exposes tail loss — a burst whose
  // every successor frame died with the relay — within one ω period.
  // Nulls themselves are never retained or repaired.
  Counter seq = 0;
  util::BytesView payload;  // one encoded OrderedMsg; on decode, a slice
                            // of the arrival buffer (forwarded as-is)

  // `reuse` provides recycled storage for the encoding (buffer pooling).
  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<RelayFrame> decode(util::BytesView data);
};

// Relay gap-repair request. The per-link FIFO channels guarantee no
// loss between neighbours, but a relay that crashes after receiving and
// before forwarding loses messages *end-to-end* — downstream members see
// the origin's RelayFrame::seq jump. The receiver stashes the jumped
// frame and asks the emitter directly (off the overlay) to re-send its
// retained content above counter `have`, re-wrapped at the original
// sequence numbers so the fills close the seq gap exactly. Retention
// holds everything needed: the requester withholds post-gap processing,
// so its receive vector stays below the missing messages and keeps them
// unstable (§5.1) — and therefore retained — at the emitter.
struct RelayRepairMsg {
  GroupId group = 0;
  ProcessId emitter = 0;  // whose stream has the gap
  Counter have = 0;       // highest ordered counter received (its rv)

  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<RelayRepairMsg> decode(util::BytesView data);
};

// A transport container: several encoded protocol messages coalesced into
// one frame, so one datagram (and one reliable-channel slot) can carry
// many ordered messages per peer per flush. Batching at the transport
// boundary is the dominant throughput lever for atomic broadcast; the
// protocol itself is oblivious — receivers unwrap and dispatch each
// payload as if it had arrived alone. Frames never nest.
struct BatchFrame {
  // On decode these are sub-slices of the one arrival buffer: unwrapping
  // a frame is pointer arithmetic, not N payload copies.
  std::vector<util::BytesView> payloads;

  static constexpr std::size_t kMaxPayloads = 4096;
  // Bound on one payload's length prefix (a varint) in the frame.
  static constexpr std::size_t kLenPrefixBound = 4;

  util::Bytes encode() const;
  // Upper bound on the encoded frame size for these payloads — the one
  // place the framing overhead is accounted for; pooled callers size
  // their acquire() with it.
  static std::size_t encoded_size_bound(
      const std::vector<util::BytesView>& payloads);
  // Encode-once fan-out path: frames payload views directly, without
  // copying them into a BatchFrame first, into `reuse` (recycled pool
  // storage; an empty Bytes allocates). Views cover both whole shared
  // encodings and relay forwards — a forwarded slice of an arrival
  // datagram batches without ever detaching into its own buffer.
  static util::Bytes encode_shared(
      const std::vector<util::BytesView>& payloads, util::Bytes reuse);
  static std::optional<BatchFrame> decode(util::BytesView data);

  // Allocation-free unwrap for the receive hot path: validates the whole
  // frame first (same acceptance rules as decode — a malformed or nested
  // frame dispatches nothing), then streams each payload slice to `fn`
  // without materialising the payload vector. Returns false iff the
  // frame was rejected.
  template <typename Fn>
  static bool for_each_payload(const util::BytesView& data, Fn&& fn) {
    for (int pass = 0; pass < 2; ++pass) {
      util::Reader r(data);
      if (static_cast<MsgType>(r.u8()) != MsgType::kBatch) return false;
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > kMaxPayloads) return false;
      for (std::uint64_t i = 0; i < n; ++i) {
        util::BytesView p = r.bytes_view();
        if (!r.ok()) return false;
        // Nested frames would allow unbounded amplification.
        if (!p.empty() && static_cast<MsgType>(p[0]) == MsgType::kBatch)
          return false;
        if (pass == 1) fn(std::move(p));
      }
      if (!r.at_end()) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------
// Transport-plane channel packet framing (the kData/kAck packets of the
// reliable FIFO channel, one layer *below* the protocol messages above;
// a kData payload is an OrderedMsg/BatchFrame/... encoding).
//
// Both frames carry timing fields: the sender stamps every data packet
// with its transmit time (and whether this transmission is a
// retransmission), and the receiver echoes the stamp of received data
// back in its cumulative acks, giving the sender per-peer RTT samples
// for the RTO/ack-delay estimator in transport/fifo_channel.h.
//
//   data: [kind|0x80] seq cum_ack flags tx_ts [echo_ts] payload
//   ack:  [kind|0x80] cum_ack flags [echo_ts]
//
// `flags` says whether the tx stamp is a retransmission and whether an
// echo is present. Decoding is strict: a kind byte without the 0x80 bit
// (the retired untimed layout), a data frame without its tx stamp, an
// ack carrying one, unknown flag bits and truncation are all rejected.
// ---------------------------------------------------------------------

enum class ChannelPacketKind : std::uint8_t { kData = 0, kAck = 1 };

// High bit of every channel frame's kind byte (kind = byte & ~this).
inline constexpr std::uint8_t kChannelTimingFlag = 0x80;

// A transmit-time stamp: `ts` is an opaque tick value in the *sender's*
// clock domain (virtual microseconds in the sim, steady_clock
// microseconds in the threaded/UDP hosts) — it is only ever echoed back
// verbatim and compared against that same clock, so peers need no time
// agreement. `rexmit` marks a retransmission, letting the original
// sender apply Karn's rule to the echoed sample.
struct TimingStamp {
  std::uint64_t ts = 0;
  bool rexmit = false;
};

// A kData channel packet.
struct ChannelDataFrame {
  std::uint64_t seq = 0;
  std::uint64_t cum_ack = 0;              // piggybacked reverse-path ack
  TimingStamp timing;                     // tx stamp of this packet
  std::optional<TimingStamp> echo;        // echo of the peer's data stamp
  util::BytesView payload;

  // `reuse` provides recycled storage for the encoding (buffer pooling).
  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<ChannelDataFrame> decode(util::BytesView data);
};

// A standalone kAck channel packet.
struct ChannelAckFrame {
  std::uint64_t cum_ack = 0;
  std::optional<TimingStamp> echo;

  util::Bytes encode(util::Bytes reuse = {}) const;
  static std::optional<ChannelAckFrame> decode(util::BytesView data);
};

// Peeks at the type byte without a full decode.
std::optional<MsgType> peek_type(std::span<const std::uint8_t> data);

// True for types on the ordered plane (stamped with logical clock values).
constexpr bool is_ordered(MsgType t) {
  return t == MsgType::kApp || t == MsgType::kNull || t == MsgType::kLeave ||
         t == MsgType::kStartGroup || t == MsgType::kJoinAnnounce;
}

}  // namespace newtop
