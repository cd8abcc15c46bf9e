// Round-trip and robustness tests for the Newtop wire format, plus the
// message-space-overhead property §6 claims (O(1) ordering metadata).
#include <gtest/gtest.h>

#include "core/wire.h"

namespace newtop {
namespace {

TEST(Wire, OrderedMsgRoundTrip) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 7;
  m.sender = 3;
  m.emitter = 3;
  m.counter = 123456;
  m.origin_counter = 0;
  m.ldn = 99;
  m.payload = {1, 2, 3};
  const auto raw = m.encode();
  const auto d = OrderedMsg::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kApp);
  EXPECT_EQ(d->group, 7u);
  EXPECT_EQ(d->sender, 3u);
  EXPECT_EQ(d->emitter, 3u);
  EXPECT_EQ(d->counter, 123456u);
  EXPECT_EQ(d->ldn, 99u);
  EXPECT_EQ(d->payload, (util::Bytes{1, 2, 3}));
}

TEST(Wire, EchoCarriesOriginDistinctFromEmitter) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 1;
  m.sender = 5;   // origin (m.s)
  m.emitter = 0;  // sequencer
  m.counter = 42;
  m.origin_counter = 17;
  const auto d = OrderedMsg::decode(m.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sender, 5u);
  EXPECT_EQ(d->emitter, 0u);
  EXPECT_EQ(d->origin_counter, 17u);
}

TEST(Wire, NullMsgRoundTrip) {
  OrderedMsg m;
  m.type = MsgType::kNull;
  m.group = 2;
  m.sender = m.emitter = 4;
  m.counter = 9;
  m.ldn = 8;
  const auto d = OrderedMsg::decode(m.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kNull);
  EXPECT_TRUE(d->payload.empty());
}

TEST(Wire, FwdRoundTrip) {
  FwdMsg f;
  f.group = 3;
  f.origin = 8;
  f.origin_counter = 77;
  f.payload = {9, 9};
  const auto d = FwdMsg::decode(f.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->origin, 8u);
  EXPECT_EQ(d->origin_counter, 77u);
  EXPECT_EQ(d->payload, (util::Bytes{9, 9}));
}

TEST(Wire, SuspectRoundTrip) {
  SuspectMsg s;
  s.group = 1;
  s.suspicion = {4, 500};
  const auto d = SuspectMsg::decode(s.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->suspicion.process, 4u);
  EXPECT_EQ(d->suspicion.ln, 500u);
}

TEST(Wire, RefuteRoundTripWithRecovery) {
  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 1;
  inner.sender = inner.emitter = 2;
  inner.counter = 501;
  RefuteMsg r;
  r.group = 1;
  r.suspicion = {2, 500};
  r.claimed_last = 502;
  r.recovered.push_back(inner.encode());
  const auto d = RefuteMsg::decode(r.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->claimed_last, 502u);
  ASSERT_EQ(d->recovered.size(), 1u);
  const auto di = OrderedMsg::decode(d->recovered[0]);
  ASSERT_TRUE(di.has_value());
  EXPECT_EQ(di->counter, 501u);
}

TEST(Wire, ConfirmRoundTripMultiEntry) {
  ConfirmMsg c;
  c.group = 9;
  c.detection = {{1, 10}, {2, 20}, {3, 30}};
  const auto d = ConfirmMsg::decode(c.encode());
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->detection.size(), 3u);
  EXPECT_EQ(d->detection[1].process, 2u);
  EXPECT_EQ(d->detection[2].ln, 30u);
}

TEST(Wire, FormInviteRoundTrip) {
  FormInviteMsg f;
  f.group = 11;
  f.initiator = 0;
  f.options.mode = OrderMode::kAsymmetric;
  f.options.guarantee = Guarantee::kAtomicOnly;
  f.options.failure_free = true;
  f.members = {0, 1, 2};
  const auto d = FormInviteMsg::decode(f.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->options.mode, OrderMode::kAsymmetric);
  EXPECT_EQ(d->options.guarantee, Guarantee::kAtomicOnly);
  EXPECT_TRUE(d->options.failure_free);
  EXPECT_EQ(d->members, (std::vector<ProcessId>{0, 1, 2}));
}

TEST(Wire, FormReplyRoundTrip) {
  FormReplyMsg f;
  f.group = 11;
  f.voter = 2;
  f.yes = true;
  const auto d = FormReplyMsg::decode(f.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->yes);
  EXPECT_EQ(d->voter, 2u);
}

TEST(Wire, PeekTypeMatchesAllTypes) {
  OrderedMsg m;
  m.type = MsgType::kLeave;
  EXPECT_EQ(peek_type(m.encode()), MsgType::kLeave);
  SuspectMsg s;
  EXPECT_EQ(peek_type(s.encode()), MsgType::kSuspect);
  EXPECT_EQ(peek_type({}), std::nullopt);
  EXPECT_EQ(peek_type(util::Bytes{0x7F}), std::nullopt);
}

TEST(Wire, DecodeRejectsWrongType) {
  SuspectMsg s;
  EXPECT_FALSE(OrderedMsg::decode(s.encode()).has_value());
  OrderedMsg m;
  m.type = MsgType::kApp;
  EXPECT_FALSE(SuspectMsg::decode(m.encode()).has_value());
}

TEST(Wire, DecodeRejectsTrailingGarbage) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  auto raw = m.encode();
  raw.push_back(0x00);
  EXPECT_FALSE(OrderedMsg::decode(raw).has_value());
}

TEST(Wire, DecodeRejectsTruncation) {
  ConfirmMsg c;
  c.group = 1;
  c.detection = {{1, 10}, {2, 20}};
  auto raw = c.encode();
  raw.resize(raw.size() - 1);
  EXPECT_FALSE(ConfirmMsg::decode(raw).has_value());
}

TEST(Wire, BatchFrameRoundTrip) {
  OrderedMsg a;
  a.type = MsgType::kApp;
  a.group = 1;
  a.sender = a.emitter = 2;
  a.counter = 10;
  a.payload = {1, 2, 3};
  SuspectMsg s;
  s.group = 1;
  s.suspicion = {3, 9};
  BatchFrame b;
  b.payloads = {a.encode(), s.encode()};
  const auto d = BatchFrame::decode(b.encode());
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->payloads.size(), 2u);
  const auto da = OrderedMsg::decode(d->payloads[0]);
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->counter, 10u);
  EXPECT_EQ(da->payload, (util::Bytes{1, 2, 3}));
  const auto ds = SuspectMsg::decode(d->payloads[1]);
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(ds->suspicion.process, 3u);
}

TEST(Wire, BatchFrameEncodeSharedMatchesEncode) {
  OrderedMsg a;
  a.type = MsgType::kNull;
  a.group = 4;
  a.sender = a.emitter = 1;
  a.counter = 7;
  BatchFrame b;
  b.payloads = {a.encode(), a.encode()};
  const std::vector<util::BytesView> shared = {util::share(a.encode()),
                                               util::share(a.encode())};
  EXPECT_EQ(b.encode(), BatchFrame::encode_shared(shared, util::Bytes()));
}

TEST(Wire, BatchFrameEmptyRoundTrips) {
  BatchFrame b;
  const auto d = BatchFrame::decode(b.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->payloads.empty());
}

TEST(Wire, BatchFrameRejectsOversizedCount) {
  // A frame whose count field exceeds the cap is rejected before any
  // payload allocation happens.
  util::Writer w(8);
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.varint(BatchFrame::kMaxPayloads + 1);
  EXPECT_FALSE(BatchFrame::decode(std::move(w).take()).has_value());
}

TEST(Wire, BatchFrameRejectsNestedBatch) {
  BatchFrame inner;
  BatchFrame outer;
  outer.payloads = {inner.encode()};
  EXPECT_FALSE(BatchFrame::decode(outer.encode()).has_value());
}

TEST(Wire, BatchFrameRejectsTruncationAndTrailingGarbage) {
  OrderedMsg a;
  a.type = MsgType::kApp;
  a.group = 1;
  a.sender = a.emitter = 2;
  a.counter = 5;
  a.payload = {9, 9, 9};
  BatchFrame b;
  b.payloads = {a.encode()};
  auto raw = b.encode();
  auto truncated = raw;
  truncated.resize(truncated.size() - 2);
  EXPECT_FALSE(BatchFrame::decode(truncated).has_value());
  raw.push_back(0x00);
  EXPECT_FALSE(BatchFrame::decode(raw).has_value());
}

TEST(Wire, RelayFrameRoundTrip) {
  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 6;
  inner.sender = inner.emitter = 3;
  inner.counter = 42;
  inner.payload = {7, 7, 7};
  const auto inner_raw = inner.encode();
  RelayFrame f;
  f.group = 6;
  f.origin = 3;
  f.seq = 1ULL << 40;  // varint-wide sequence survives the trip
  f.payload = util::BytesView(inner_raw);
  const auto raw = f.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kRelay);
  const auto d = RelayFrame::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 6u);
  EXPECT_EQ(d->origin, 3u);
  EXPECT_EQ(d->seq, 1ULL << 40);
  const auto di = OrderedMsg::decode(d->payload);
  ASSERT_TRUE(di.has_value());
  EXPECT_EQ(di->counter, 42u);
  EXPECT_EQ(di->payload, (util::Bytes{7, 7, 7}));
}

TEST(Wire, RelayFrameRejectsTruncationAndTrailingGarbage) {
  OrderedMsg inner;
  inner.type = MsgType::kNull;
  inner.group = 1;
  inner.sender = inner.emitter = 2;
  inner.counter = 9;
  const auto inner_raw = inner.encode();
  RelayFrame f;
  f.group = 1;
  f.origin = 2;
  f.seq = 3;
  f.payload = util::BytesView(inner_raw);
  auto raw = f.encode();
  for (std::size_t cut = 1; cut < raw.size(); ++cut) {
    util::Bytes t(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(RelayFrame::decode(t).has_value()) << "cut=" << cut;
  }
  raw.push_back(0x00);
  EXPECT_FALSE(RelayFrame::decode(raw).has_value());
}

TEST(Wire, RelayFrameRejectsEmptyAndNestedPayloads) {
  RelayFrame empty;
  empty.group = 1;
  empty.origin = 2;
  EXPECT_FALSE(RelayFrame::decode(empty.encode()).has_value());

  // Amplification guards: neither a BatchFrame nor another RelayFrame
  // may ride inside a relay container...
  BatchFrame b;
  const auto batch_raw = b.encode();
  RelayFrame nested_batch;
  nested_batch.group = 1;
  nested_batch.origin = 2;
  nested_batch.payload = util::BytesView(batch_raw);
  EXPECT_FALSE(RelayFrame::decode(nested_batch.encode()).has_value());

  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 1;
  inner.sender = inner.emitter = 2;
  const auto inner_raw = inner.encode();
  RelayFrame innermost;
  innermost.group = 1;
  innermost.origin = 2;
  innermost.payload = util::BytesView(inner_raw);
  const auto relay_raw = innermost.encode();
  RelayFrame nested_relay;
  nested_relay.group = 1;
  nested_relay.origin = 2;
  nested_relay.payload = util::BytesView(relay_raw);
  EXPECT_FALSE(RelayFrame::decode(nested_relay.encode()).has_value());

  // ...but a RelayFrame inside a BatchFrame is an ordinary payload.
  BatchFrame carrier;
  carrier.payloads = {relay_raw};
  const auto d = BatchFrame::decode(carrier.encode());
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->payloads.size(), 1u);
  EXPECT_TRUE(RelayFrame::decode(d->payloads[0]).has_value());
}

TEST(Wire, RelayRepairRoundTrip) {
  RelayRepairMsg r;
  r.group = 12;
  r.emitter = 5;
  r.have = 1ULL << 50;
  const auto raw = r.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kRelayRepair);
  const auto d = RelayRepairMsg::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 12u);
  EXPECT_EQ(d->emitter, 5u);
  EXPECT_EQ(d->have, 1ULL << 50);
  auto truncated = raw;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(RelayRepairMsg::decode(truncated).has_value());
  auto garbage = raw;
  garbage.push_back(0x00);
  EXPECT_FALSE(RelayRepairMsg::decode(garbage).has_value());
}

TEST(Wire, FormInviteCarriesDisseminationAgreement) {
  // The overlay is part of the group-wide agreement: invite-formed
  // members must reconstruct the same plan, so strategy and arity ride
  // the invite.
  FormInviteMsg f;
  f.group = 21;
  f.initiator = 1;
  f.options.dissemination = DisseminationStrategy::kTree;
  f.options.relay_arity = 7;
  f.members = {1, 2, 3, 4};
  const auto d = FormInviteMsg::decode(f.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->options.dissemination, DisseminationStrategy::kTree);
  EXPECT_EQ(d->options.relay_arity, 7u);

  // An out-of-range strategy byte is a malformed invite, not UB.
  auto raw = f.encode();
  // strategy byte sits after header(type+group varint)+initiator+mode+
  // guarantee+failure_free — locate it by re-encoding with a sentinel.
  FormInviteMsg probe = f;
  probe.options.dissemination = DisseminationStrategy::kRing;
  const auto probe_raw = probe.encode();
  ASSERT_EQ(raw.size(), probe_raw.size());
  std::size_t strategy_at = raw.size();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != probe_raw[i]) {
      strategy_at = i;
      break;
    }
  }
  ASSERT_LT(strategy_at, raw.size());
  raw[strategy_at] = 0x7f;
  EXPECT_FALSE(FormInviteMsg::decode(raw).has_value());
}

// --- Joiner state transfer (docs/STATE_TRANSFER.md) -------------------

TEST(Wire, JoinRequestRoundTrip) {
  JoinRequestMsg m;
  m.group = 14;
  m.joiner = 1u << 29;
  const auto raw = m.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kJoinRequest);
  const auto d = JoinRequestMsg::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 14u);
  EXPECT_EQ(d->joiner, 1u << 29);
  auto truncated = raw;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(JoinRequestMsg::decode(truncated).has_value());
  auto garbage = raw;
  garbage.push_back(0x00);
  EXPECT_FALSE(JoinRequestMsg::decode(garbage).has_value());
}

TEST(Wire, JoinWelcomeRoundTrip) {
  JoinWelcomeMsg w;
  w.group = 5;
  w.source = 0;
  w.stamp_counter = 1ULL << 45;  // varint-wide stamp survives the trip
  w.stamp_sender = 3;
  w.view_seq = 9;
  w.options.mode = OrderMode::kAsymmetric;
  w.options.dissemination = DisseminationStrategy::kRing;
  w.options.relay_arity = 2;
  w.members = {0, 1, 3, 7};
  const auto raw = w.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kJoinWelcome);
  const auto d = JoinWelcomeMsg::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->source, 0u);
  EXPECT_EQ(d->stamp_counter, 1ULL << 45);
  EXPECT_EQ(d->stamp_sender, 3u);
  EXPECT_EQ(d->view_seq, 9u);
  EXPECT_EQ(d->options.mode, OrderMode::kAsymmetric);
  EXPECT_EQ(d->options.dissemination, DisseminationStrategy::kRing);
  EXPECT_EQ(d->options.relay_arity, 2u);
  EXPECT_EQ(d->members, (std::vector<ProcessId>{0, 1, 3, 7}));
}

TEST(Wire, JoinWelcomeRejectsTruncationAndRangeViolations) {
  JoinWelcomeMsg w;
  w.group = 5;
  w.source = 1;
  w.stamp_counter = 100;
  w.stamp_sender = 1;
  w.members = {1, 2, 9};
  auto raw = w.encode();
  for (std::size_t cut = 1; cut < raw.size(); ++cut) {
    util::Bytes t(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(JoinWelcomeMsg::decode(t).has_value()) << "cut=" << cut;
  }
  auto garbage = raw;
  garbage.push_back(0x00);
  EXPECT_FALSE(JoinWelcomeMsg::decode(garbage).has_value());

  // Out-of-range enum bytes are malformed welcomes, not UB: locate the
  // mode byte by diffing against a re-encode with a different mode.
  JoinWelcomeMsg probe = w;
  probe.options.mode = OrderMode::kAsymmetric;
  const auto probe_raw = probe.encode();
  ASSERT_EQ(raw.size(), probe_raw.size());
  std::size_t mode_at = raw.size();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != probe_raw[i]) {
      mode_at = i;
      break;
    }
  }
  ASSERT_LT(mode_at, raw.size());
  raw[mode_at] = 0x7f;
  EXPECT_FALSE(JoinWelcomeMsg::decode(raw).has_value());
}

TEST(Wire, SnapshotFrameRoundTrip) {
  SnapshotFrame f;
  f.group = 5;
  f.stamp_counter = 777;
  f.index = 3;
  f.last = true;
  f.payload = {0xde, 0xad, 0xbe, 0xef};
  const auto raw = f.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kSnapshot);
  const auto d = SnapshotFrame::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 5u);
  EXPECT_EQ(d->stamp_counter, 777u);
  EXPECT_EQ(d->index, 3u);
  EXPECT_TRUE(d->last);
  EXPECT_EQ(d->payload, (util::Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Wire, SnapshotFrameEmptyChunkRoundTrips) {
  // An empty snapshot is one empty last-marked frame; the joiner needs
  // the `last` edge even when there are no bytes.
  SnapshotFrame f;
  f.group = 1;
  f.last = true;
  const auto d = SnapshotFrame::decode(f.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->last);
  EXPECT_TRUE(d->payload.empty());
}

TEST(Wire, SnapshotFrameRejectsTruncationAndBadLastByte) {
  SnapshotFrame f;
  f.group = 2;
  f.stamp_counter = 9;
  f.index = 1;
  f.payload = {1, 2, 3};
  auto raw = f.encode();
  for (std::size_t cut = 1; cut < raw.size(); ++cut) {
    util::Bytes t(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(SnapshotFrame::decode(t).has_value()) << "cut=" << cut;
  }
  auto garbage = raw;
  garbage.push_back(0x00);
  EXPECT_FALSE(SnapshotFrame::decode(garbage).has_value());
  // The `last` flag is a strict 0/1 byte: locate it by diffing a
  // re-encode with the flag flipped, then poison it.
  SnapshotFrame probe = f;
  probe.last = true;
  const auto probe_raw = probe.encode();
  ASSERT_EQ(raw.size(), probe_raw.size());
  std::size_t last_at = raw.size();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != probe_raw[i]) {
      last_at = i;
      break;
    }
  }
  ASSERT_LT(last_at, raw.size());
  raw[last_at] = 0x02;
  EXPECT_FALSE(SnapshotFrame::decode(raw).has_value());
}

TEST(Wire, JoinAnnounceIsOrdered) {
  EXPECT_TRUE(is_ordered(MsgType::kJoinAnnounce));
  EXPECT_FALSE(is_ordered(MsgType::kJoinRequest));
  EXPECT_FALSE(is_ordered(MsgType::kJoinWelcome));
  EXPECT_FALSE(is_ordered(MsgType::kSnapshot));
  OrderedMsg m;
  m.type = MsgType::kJoinAnnounce;
  m.group = 3;
  m.sender = m.emitter = 1;
  m.counter = 55;
  util::Writer w(4);
  w.varint(9);  // the joiner id rides the payload
  const util::Bytes payload = std::move(w).take();
  m.payload = util::BytesView(payload);
  const auto raw = m.encode();
  EXPECT_EQ(peek_type(raw), MsgType::kJoinAnnounce);
  const auto d = OrderedMsg::decode(raw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->type, MsgType::kJoinAnnounce);
  EXPECT_EQ(d->counter, 55u);
}

TEST(Wire, PeekTypeSeesBatch) {
  BatchFrame b;
  EXPECT_EQ(peek_type(b.encode()), MsgType::kBatch);
  EXPECT_FALSE(is_ordered(MsgType::kBatch));
}

// §6 headline: Newtop's ordering metadata is bounded and does not grow
// with group size — the App header carries no per-member data, unlike a
// vector clock (n entries) or a Psync predecessor list (up to n-1 ids).
TEST(Wire, HeaderSizeBoundedRegardlessOfGroupSize) {
  // Worst-ish case: large ids and counters after long uptime.
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 1u << 30;
  m.sender = m.emitter = 1u << 30;
  m.counter = 1ULL << 60;
  m.origin_counter = 1ULL << 60;
  m.ldn = 1ULL << 60;
  EXPECT_LT(m.encode().size(), 64u);  // "low and bounded"

  // Typical steady-state message: a couple dozen bytes at most.
  OrderedMsg typical;
  typical.type = MsgType::kApp;
  typical.group = 3;
  typical.sender = typical.emitter = 17;
  typical.counter = 1'000'000;
  typical.ldn = 999'990;
  EXPECT_LE(typical.encode().size(), 16u);
}

// --- Channel packet frames (transport plane) --------------------------

TEST(ChannelFrames, DataFrameRoundTrips) {
  ChannelDataFrame f;
  f.seq = 77;
  f.cum_ack = 76;
  f.timing = TimingStamp{123456789, true};
  f.echo = TimingStamp{987654321, false};
  f.payload = {9, 8, 7};
  const util::Bytes raw = f.encode();
  const auto d = ChannelDataFrame::decode(util::BytesView(raw));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->seq, 77u);
  EXPECT_EQ(d->cum_ack, 76u);
  EXPECT_EQ(d->timing.ts, 123456789u);
  EXPECT_TRUE(d->timing.rexmit);
  ASSERT_TRUE(d->echo.has_value());
  EXPECT_EQ(d->echo->ts, 987654321u);
  EXPECT_FALSE(d->echo->rexmit);
  EXPECT_EQ(d->payload, f.payload);
}

TEST(ChannelFrames, AckFrameRoundTrips) {
  ChannelAckFrame f;
  f.cum_ack = 12;
  f.echo = TimingStamp{42, true};
  auto d = ChannelAckFrame::decode(util::BytesView(f.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->cum_ack, 12u);
  ASSERT_TRUE(d->echo.has_value());
  EXPECT_EQ(d->echo->ts, 42u);
  EXPECT_TRUE(d->echo->rexmit);
  // An ack owed before any stamp arrived carries no echo.
  f.echo.reset();
  d = ChannelAckFrame::decode(util::BytesView(f.encode()));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->cum_ack, 12u);
  EXPECT_FALSE(d->echo.has_value());
}

TEST(ChannelFrames, LayoutsAreByteExact) {
  // data: kind|0x80, seq, cum_ack, flags, tx stamp, [echo], payload.
  ChannelDataFrame f;
  f.seq = 5;
  f.cum_ack = 3;
  f.timing = TimingStamp{9, false};
  f.payload = {0xaa, 0xbb};
  EXPECT_EQ(f.encode(), (util::Bytes{0x80, 5, 3, /*flags*/ 0x01, 9,
                                     /*len*/ 2, 0xaa, 0xbb}));
  f.timing.rexmit = true;
  f.echo = TimingStamp{7, true};
  EXPECT_EQ(f.encode(), (util::Bytes{0x80, 5, 3, /*flags*/ 0x0f, 9, 7,
                                     /*len*/ 2, 0xaa, 0xbb}));
  // ack: kind|0x80, cum_ack, flags, [echo].
  ChannelAckFrame a;
  a.cum_ack = 200;
  EXPECT_EQ(a.encode(), (util::Bytes{0x81, /*varint 200*/ 0xc8, 0x01, 0}));
  a.echo = TimingStamp{42, false};
  EXPECT_EQ(a.encode(), (util::Bytes{0x81, 0xc8, 0x01, /*flags*/ 0x04, 42}));
}

TEST(ChannelFrames, DecodeRejectsUntimedDataFrame) {
  // The retired untimed layout: kind 0, seq, cum_ack, payload — no flags
  // byte, no stamp. A peer emitting it is not speaking this protocol.
  const util::Bytes untimed = {/*kind*/ 0, /*seq*/ 5, /*cum*/ 3,
                               /*len*/ 2,  0xaa,      0xbb};
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(untimed)));
  EXPECT_FALSE(ChannelAckFrame::decode(util::BytesView(untimed)));
  // Likewise its ack: kind 1, cum_ack.
  const util::Bytes untimed_ack = {/*kind*/ 1, /*varint 200*/ 0xc8, 0x01};
  EXPECT_FALSE(ChannelAckFrame::decode(util::BytesView(untimed_ack)));
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(untimed_ack)));
}

TEST(ChannelFrames, DecodeRejectsMalformedFlags) {
  ChannelDataFrame f;
  f.seq = 1;
  f.timing = TimingStamp{99, false};
  f.payload = {1};
  const util::Bytes raw = f.encode();
  ASSERT_TRUE(ChannelDataFrame::decode(util::BytesView(raw)));
  // Unknown flag bits.
  util::Bytes bad = raw;
  bad[3] |= 0x10;
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(bad)));
  // A data frame without its tx stamp.
  bad = raw;
  bad[3] &= static_cast<std::uint8_t>(~0x01);
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(bad)));
  // An ack claiming a tx stamp.
  EXPECT_FALSE(ChannelAckFrame::decode(
      util::BytesView(util::Bytes{0x81, 1, /*flags*/ 0x01, 5})));
}

TEST(ChannelFrames, DecodeRejectsTruncatedFrames) {
  ChannelDataFrame f;
  f.seq = 1;
  f.cum_ack = 0;
  f.timing = TimingStamp{1234567, false};
  f.echo = TimingStamp{7654321, false};
  f.payload = {1, 2, 3};
  ChannelAckFrame a;
  a.cum_ack = 300;
  a.echo = TimingStamp{7654321, false};
  const util::Bytes raw = f.encode();
  const util::Bytes raw_ack = a.encode();
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    const util::Bytes t(raw.begin(),
                        raw.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(t))) << cut;
  }
  for (std::size_t cut = 0; cut < raw_ack.size(); ++cut) {
    const util::Bytes t(raw_ack.begin(),
                        raw_ack.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(ChannelAckFrame::decode(util::BytesView(t))) << cut;
  }
  const auto whole = ChannelDataFrame::decode(util::BytesView(raw));
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->payload, f.payload);
  EXPECT_TRUE(ChannelAckFrame::decode(util::BytesView(raw_ack)));
}

TEST(ChannelFrames, KindMismatchRejected) {
  ChannelAckFrame a;
  a.cum_ack = 1;
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(a.encode())));
  ChannelDataFrame dfr;
  dfr.seq = 1;
  dfr.payload = {1};
  EXPECT_FALSE(ChannelAckFrame::decode(util::BytesView(dfr.encode())));
}

}  // namespace
}  // namespace newtop
