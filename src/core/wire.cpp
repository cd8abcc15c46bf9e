#include "core/wire.h"

namespace newtop {

namespace {
// Shared header layout for ordered messages.
void write_header(util::Writer& w, MsgType type, GroupId group) {
  w.u8(static_cast<std::uint8_t>(type));
  w.varint(group);
}
}  // namespace

util::Bytes OrderedMsg::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.reserve(payload.size() + 24);
  write_header(w, type, group);
  w.varint(sender);
  w.varint(emitter);
  w.varint(counter);
  w.varint(origin_counter);
  w.varint(ldn);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<OrderedMsg> OrderedMsg::decode(util::BytesView data) {
  util::Reader r(data);
  OrderedMsg m;
  m.type = static_cast<MsgType>(r.u8());
  if (!is_ordered(m.type)) return std::nullopt;
  m.group = static_cast<GroupId>(r.varint());
  m.sender = static_cast<ProcessId>(r.varint());
  m.emitter = static_cast<ProcessId>(r.varint());
  m.counter = r.varint();
  m.origin_counter = r.varint();
  m.ldn = r.varint();
  m.payload = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  m.raw = std::move(data);
  return m;
}

util::Bytes FwdMsg::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.reserve(payload.size() + 16);
  write_header(w, MsgType::kFwd, group);
  w.varint(origin);
  w.varint(origin_counter);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<FwdMsg> FwdMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kFwd) return std::nullopt;
  FwdMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.origin = static_cast<ProcessId>(r.varint());
  m.origin_counter = r.varint();
  m.payload = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes SuspectMsg::encode() const {
  util::Writer w(16);
  write_header(w, MsgType::kSuspect, group);
  w.varint(suspicion.process);
  w.varint(suspicion.ln);
  return std::move(w).take();
}

std::optional<SuspectMsg> SuspectMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kSuspect) return std::nullopt;
  SuspectMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.suspicion.process = static_cast<ProcessId>(r.varint());
  m.suspicion.ln = r.varint();
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes RefuteMsg::encode() const {
  util::Writer w(32);
  write_header(w, MsgType::kRefute, group);
  w.varint(suspicion.process);
  w.varint(suspicion.ln);
  w.varint(claimed_last);
  w.varint(recovered.size());
  for (const auto& raw : recovered) w.bytes(raw);
  return std::move(w).take();
}

std::optional<RefuteMsg> RefuteMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kRefute) return std::nullopt;
  RefuteMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.suspicion.process = static_cast<ProcessId>(r.varint());
  m.suspicion.ln = r.varint();
  m.claimed_last = r.varint();
  const std::uint64_t n = r.varint();
  if (n > 1u << 20) return std::nullopt;  // sanity bound
  m.recovered.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) m.recovered.push_back(r.bytes_view());
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes ConfirmMsg::encode() const {
  util::Writer w(16 + detection.size() * 8);
  write_header(w, MsgType::kConfirm, group);
  w.varint(detection.size());
  for (const auto& s : detection) {
    w.varint(s.process);
    w.varint(s.ln);
  }
  return std::move(w).take();
}

std::optional<ConfirmMsg> ConfirmMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kConfirm) return std::nullopt;
  ConfirmMsg m;
  m.group = static_cast<GroupId>(r.varint());
  const std::uint64_t n = r.varint();
  if (n > 1u << 20) return std::nullopt;
  m.detection.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Suspicion s;
    s.process = static_cast<ProcessId>(r.varint());
    s.ln = r.varint();
    m.detection.push_back(s);
  }
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes FormInviteMsg::encode() const {
  util::Writer w(24 + members.size() * 4);
  write_header(w, MsgType::kFormInvite, group);
  w.varint(initiator);
  w.u8(static_cast<std::uint8_t>(options.mode));
  w.u8(static_cast<std::uint8_t>(options.guarantee));
  w.u8(options.failure_free ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(options.dissemination));
  w.varint(options.relay_arity);
  w.varint(members.size());
  for (ProcessId p : members) w.varint(p);
  return std::move(w).take();
}

std::optional<FormInviteMsg> FormInviteMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kFormInvite)
    return std::nullopt;
  FormInviteMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.initiator = static_cast<ProcessId>(r.varint());
  m.options.mode = static_cast<OrderMode>(r.u8());
  m.options.guarantee = static_cast<Guarantee>(r.u8());
  m.options.failure_free = r.u8() != 0;
  const std::uint8_t strategy = r.u8();
  if (strategy > static_cast<std::uint8_t>(DisseminationStrategy::kTree))
    return std::nullopt;
  m.options.dissemination = static_cast<DisseminationStrategy>(strategy);
  m.options.relay_arity = static_cast<std::uint32_t>(r.varint());
  const std::uint64_t n = r.varint();
  if (n > 1u << 20) return std::nullopt;
  m.members.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    m.members.push_back(static_cast<ProcessId>(r.varint()));
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes FormReplyMsg::encode() const {
  util::Writer w(12);
  write_header(w, MsgType::kFormReply, group);
  w.varint(voter);
  w.u8(yes ? 1 : 0);
  return std::move(w).take();
}

std::optional<FormReplyMsg> FormReplyMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kFormReply)
    return std::nullopt;
  FormReplyMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.voter = static_cast<ProcessId>(r.varint());
  m.yes = r.u8() != 0;
  if (!r.at_end()) return std::nullopt;
  return m;
}

util::Bytes JoinRequestMsg::encode() const {
  util::Writer w(12);
  write_header(w, MsgType::kJoinRequest, group);
  w.varint(joiner);
  return std::move(w).take();
}

std::optional<JoinRequestMsg> JoinRequestMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kJoinRequest)
    return std::nullopt;
  JoinRequestMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.joiner = static_cast<ProcessId>(r.varint());
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

util::Bytes JoinWelcomeMsg::encode() const {
  util::Writer w(32 + members.size() * 4);
  write_header(w, MsgType::kJoinWelcome, group);
  w.varint(source);
  w.varint(stamp_counter);
  w.varint(stamp_sender);
  w.varint(view_seq);
  w.u8(static_cast<std::uint8_t>(options.mode));
  w.u8(static_cast<std::uint8_t>(options.guarantee));
  w.u8(options.failure_free ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(options.dissemination));
  w.varint(options.relay_arity);
  w.varint(members.size());
  for (ProcessId p : members) w.varint(p);
  return std::move(w).take();
}

std::optional<JoinWelcomeMsg> JoinWelcomeMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kJoinWelcome)
    return std::nullopt;
  JoinWelcomeMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.source = static_cast<ProcessId>(r.varint());
  m.stamp_counter = r.varint();
  m.stamp_sender = static_cast<ProcessId>(r.varint());
  m.view_seq = r.varint();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(OrderMode::kAsymmetric))
    return std::nullopt;
  m.options.mode = static_cast<OrderMode>(mode);
  const std::uint8_t guarantee = r.u8();
  if (guarantee > static_cast<std::uint8_t>(Guarantee::kAtomicOnly))
    return std::nullopt;
  m.options.guarantee = static_cast<Guarantee>(guarantee);
  m.options.failure_free = r.u8() != 0;
  const std::uint8_t strategy = r.u8();
  if (strategy > static_cast<std::uint8_t>(DisseminationStrategy::kTree))
    return std::nullopt;
  m.options.dissemination = static_cast<DisseminationStrategy>(strategy);
  m.options.relay_arity = static_cast<std::uint32_t>(r.varint());
  const std::uint64_t n = r.varint();
  if (n > 1u << 20) return std::nullopt;
  m.members.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i)
    m.members.push_back(static_cast<ProcessId>(r.varint()));
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

util::Bytes SnapshotFrame::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.reserve(payload.size() + 24);
  write_header(w, MsgType::kSnapshot, group);
  w.varint(stamp_counter);
  w.varint(index);
  w.u8(last ? 1 : 0);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<SnapshotFrame> SnapshotFrame::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kSnapshot) return std::nullopt;
  SnapshotFrame m;
  m.group = static_cast<GroupId>(r.varint());
  m.stamp_counter = r.varint();
  m.index = r.varint();
  const std::uint8_t last = r.u8();
  if (last > 1) return std::nullopt;
  m.last = last != 0;
  m.payload = r.bytes_view();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

util::Bytes RelayFrame::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.reserve(payload.size() + 16);
  write_header(w, MsgType::kRelay, group);
  w.varint(origin);
  w.varint(seq);
  w.bytes(payload);
  return std::move(w).take();
}

std::optional<RelayFrame> RelayFrame::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kRelay) return std::nullopt;
  RelayFrame m;
  m.group = static_cast<GroupId>(r.varint());
  m.origin = static_cast<ProcessId>(r.varint());
  m.seq = r.varint();
  m.payload = r.bytes_view();
  if (!r.at_end()) return std::nullopt;
  // The inner payload must be a bare ordered-plane message. A nested
  // batch or relay would allow unbounded amplification along the
  // overlay; reject the whole frame rather than dispatch it.
  if (m.payload.empty()) return std::nullopt;
  const auto inner = static_cast<MsgType>(m.payload[0]);
  if (inner == MsgType::kBatch || inner == MsgType::kRelay)
    return std::nullopt;
  return m;
}

util::Bytes RelayRepairMsg::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.reserve(24);
  write_header(w, MsgType::kRelayRepair, group);
  w.varint(emitter);
  w.varint(have);
  return std::move(w).take();
}

std::optional<RelayRepairMsg> RelayRepairMsg::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kRelayRepair)
    return std::nullopt;
  RelayRepairMsg m;
  m.group = static_cast<GroupId>(r.varint());
  m.emitter = static_cast<ProcessId>(r.varint());
  m.have = r.varint();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

util::Bytes BatchFrame::encode() const {
  util::Writer w(16);
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.varint(payloads.size());
  for (const auto& p : payloads) w.bytes(p);
  return std::move(w).take();
}

std::size_t BatchFrame::encoded_size_bound(
    const std::vector<util::BytesView>& payloads) {
  std::size_t total = 16;  // type byte + count varint, rounded up
  for (const auto& p : payloads) total += p.size() + kLenPrefixBound;
  return total;
}

util::Bytes BatchFrame::encode_shared(
    const std::vector<util::BytesView>& payloads, util::Bytes reuse) {
  util::Writer w(std::move(reuse));
  w.reserve(encoded_size_bound(payloads));
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.varint(payloads.size());
  for (const auto& p : payloads) w.bytes(p);
  return std::move(w).take();
}

std::optional<BatchFrame> BatchFrame::decode(util::BytesView data) {
  util::Reader r(data);
  if (static_cast<MsgType>(r.u8()) != MsgType::kBatch) return std::nullopt;
  const std::uint64_t n = r.varint();
  if (n > kMaxPayloads) return std::nullopt;
  BatchFrame b;
  b.payloads.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Unwrap as sub-slices of the arrival buffer: no per-payload copy.
    util::BytesView p = r.bytes_view();
    // A nested batch would allow unbounded amplification; reject the
    // whole frame rather than dispatch it.
    if (!p.empty() && static_cast<MsgType>(p[0]) == MsgType::kBatch)
      return std::nullopt;
    b.payloads.push_back(std::move(p));
  }
  if (!r.at_end()) return std::nullopt;
  return b;
}

namespace {

// Flag byte layout (shared by both channel frames). A data frame always
// sets kTxStampPresent; an ack never does.
constexpr std::uint8_t kTxStampPresent = 0x01;
constexpr std::uint8_t kTxStampRexmit = 0x02;
constexpr std::uint8_t kEchoPresent = 0x04;
constexpr std::uint8_t kEchoRexmit = 0x08;
constexpr std::uint8_t kEchoFlags = kEchoPresent | kEchoRexmit;

constexpr std::uint8_t kind_byte(ChannelPacketKind k) {
  return static_cast<std::uint8_t>(k) | kChannelTimingFlag;
}

std::uint8_t echo_flags(const std::optional<TimingStamp>& echo) {
  if (!echo) return 0;
  return kEchoPresent | (echo->rexmit ? kEchoRexmit : 0);
}

// Reads the echo announced by `flags` (if any) into `echo`.
void read_echo(util::Reader& r, std::uint8_t flags,
               std::optional<TimingStamp>& echo) {
  if (flags & kEchoPresent)
    echo = TimingStamp{r.varint(), (flags & kEchoRexmit) != 0};
}

}  // namespace

util::Bytes ChannelDataFrame::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.u8(kind_byte(ChannelPacketKind::kData));
  w.varint(seq);
  w.varint(cum_ack);
  w.u8(kTxStampPresent | (timing.rexmit ? kTxStampRexmit : 0) |
       echo_flags(echo));
  w.varint(timing.ts);
  if (echo) w.varint(echo->ts);
  w.bytes(payload.span());
  return std::move(w).take();
}

std::optional<ChannelDataFrame> ChannelDataFrame::decode(
    util::BytesView data) {
  util::Reader r(data);
  if (r.u8() != kind_byte(ChannelPacketKind::kData)) return std::nullopt;
  ChannelDataFrame f;
  f.seq = r.varint();
  f.cum_ack = r.varint();
  const std::uint8_t flags = r.u8();
  if (!(flags & kTxStampPresent) ||
      (flags & ~(kTxStampPresent | kTxStampRexmit | kEchoFlags)) != 0)
    return std::nullopt;
  f.timing = TimingStamp{r.varint(), (flags & kTxStampRexmit) != 0};
  read_echo(r, flags, f.echo);
  f.payload = r.bytes_view();
  if (!r.ok()) return std::nullopt;
  return f;
}

util::Bytes ChannelAckFrame::encode(util::Bytes reuse) const {
  util::Writer w(std::move(reuse));
  w.u8(kind_byte(ChannelPacketKind::kAck));
  w.varint(cum_ack);
  w.u8(echo_flags(echo));
  if (echo) w.varint(echo->ts);
  return std::move(w).take();
}

std::optional<ChannelAckFrame> ChannelAckFrame::decode(util::BytesView data) {
  util::Reader r(data);
  if (r.u8() != kind_byte(ChannelPacketKind::kAck)) return std::nullopt;
  ChannelAckFrame f;
  f.cum_ack = r.varint();
  const std::uint8_t flags = r.u8();
  if ((flags & ~kEchoFlags) != 0) return std::nullopt;
  read_echo(r, flags, f.echo);
  if (!r.ok()) return std::nullopt;
  return f;
}

std::optional<MsgType> peek_type(std::span<const std::uint8_t> data) {
  if (data.empty()) return std::nullopt;
  const auto t = static_cast<MsgType>(data[0]);
  switch (t) {
    case MsgType::kApp:
    case MsgType::kNull:
    case MsgType::kLeave:
    case MsgType::kFwd:
    case MsgType::kStartGroup:
    case MsgType::kBatch:
    case MsgType::kRelay:
    case MsgType::kRelayRepair:
    case MsgType::kSuspect:
    case MsgType::kRefute:
    case MsgType::kConfirm:
    case MsgType::kFormInvite:
    case MsgType::kFormReply:
    case MsgType::kJoinAnnounce:
    case MsgType::kJoinRequest:
    case MsgType::kJoinWelcome:
    case MsgType::kSnapshot:
      return t;
  }
  return std::nullopt;
}

}  // namespace newtop
