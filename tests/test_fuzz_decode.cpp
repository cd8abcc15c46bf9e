// Decoder robustness: seeded random and mutated inputs into every wire
// decoder and into Endpoint::on_message / Router::on_datagram. The
// protocol sits on a network; nothing an adversarial or corrupt peer
// sends may crash the process or corrupt unrelated state. (The transport
// assumption in §3 is "uncorrupted", but a production release defends in
// depth.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/endpoint.h"
#include "core/sim_host.h"
#include "core/wire.h"
#include "transport/router.h"
#include "util/rng.h"
#include "logged_world.h"

namespace newtop {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// Iteration budget knob: NEWTOP_FUZZ_ITERS rescales every loop below
// proportionally (the env value replaces the 20000 reference count, so
// e.g. 200000 means 10x depth everywhere). PR CI runs the defaults;
// the nightly workflow cranks this up where latency does not matter.
int fuzz_iters(int base) {
  static const double scale = [] {
    const char* s = std::getenv("NEWTOP_FUZZ_ITERS");
    if (s == nullptr) return 1.0;
    const long v = std::strtol(s, nullptr, 10);
    return v > 0 ? static_cast<double>(v) / 20000.0 : 1.0;
  }();
  return std::max(1, static_cast<int>(static_cast<double>(base) * scale));
}

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes b(rng.next_below(max_len + 1));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
  return b;
}

TEST(FuzzDecode, PureRandomBytesNeverCrashDecoders) {
  util::Rng rng(20260610);
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    const util::Bytes b = random_bytes(rng, 64);
    (void)OrderedMsg::decode(b);
    (void)FwdMsg::decode(b);
    (void)SuspectMsg::decode(b);
    (void)RefuteMsg::decode(b);
    (void)ConfirmMsg::decode(b);
    (void)FormInviteMsg::decode(b);
    (void)FormReplyMsg::decode(b);
    (void)BatchFrame::decode(b);
    (void)RelayFrame::decode(b);
    (void)RelayRepairMsg::decode(b);
    (void)JoinRequestMsg::decode(b);
    (void)JoinWelcomeMsg::decode(b);
    (void)SnapshotFrame::decode(b);
    (void)ChannelDataFrame::decode(util::BytesView(b));
    (void)ChannelAckFrame::decode(util::BytesView(b));
    (void)peek_type(b);
  }
}

// The retired untimed channel layouts (kind byte without the 0x80 bit,
// no flags byte, no stamps): hostile input now.
const util::Bytes kUntimedData = {/*kind*/ 0, /*seq*/ 41, /*cum*/ 40,
                                  /*len*/ 3, 1, 2, 3};
const util::Bytes kUntimedAck = {/*kind*/ 1, /*cum*/ 77};

TEST(FuzzDecode, MutatedChannelFramesNeverCrashDecoders) {
  // The channel headers carry a flags byte and up to two stamp varints;
  // corrupting any of them must fail cleanly, and a surviving decode
  // must stay within the backing buffer. The untimed layouts seed the
  // corpus too: mutations of them must fail just as cleanly.
  util::Rng rng(86420);
  ChannelDataFrame data;
  data.seq = 41;
  data.cum_ack = 40;
  data.timing = TimingStamp{123456789, false};
  data.echo = TimingStamp{987654321, true};
  data.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  ChannelAckFrame ack;
  ack.cum_ack = 77;
  ack.echo = TimingStamp{13579, false};
  const util::Bytes seeds[] = {data.encode(), ack.encode(), kUntimedData,
                               kUntimedAck};
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    util::Bytes b = seeds[i % 4];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.next_below(3)) {
        case 0:
          if (!b.empty()) {
            b[rng.next_below(b.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        case 1:
          if (!b.empty()) b.resize(rng.next_below(b.size()));
          break;
        case 2:
          b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    const util::BytesView view{b};
    if (auto d = ChannelDataFrame::decode(view)) {
      // Any payload slice a surviving decode hands out must lie within
      // the backing buffer (the zero-copy invariant).
      if (!d->payload.empty()) {
        ASSERT_GE(d->payload.begin(), view.begin());
        ASSERT_LE(d->payload.end(), view.end());
      }
    }
    (void)ChannelAckFrame::decode(view);
  }
}

TEST(FuzzDecode, MutatedValidMessagesNeverCrashDecoders) {
  util::Rng rng(424242);
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = 7;
  m.sender = m.emitter = 3;
  m.counter = 1000;
  m.ldn = 990;
  m.payload = {1, 2, 3, 4, 5};
  const util::Bytes valid = m.encode();
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    util::Bytes b = valid;
    // 1-3 random point mutations (flips, truncations, extensions).
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.next_below(3)) {
        case 0:
          if (!b.empty()) {
            b[rng.next_below(b.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        case 1:
          if (!b.empty()) b.resize(rng.next_below(b.size()));
          break;
        case 2:
          b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    (void)OrderedMsg::decode(b);
    (void)RefuteMsg::decode(b);
    (void)ConfirmMsg::decode(b);
    (void)peek_type(b);
  }
}

TEST(FuzzDecode, MutatedBatchFramesNeverCrashDecoder) {
  util::Rng rng(97531);
  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 7;
  inner.sender = inner.emitter = 3;
  inner.counter = 50;
  inner.payload = {1, 2, 3};
  BatchFrame frame;
  frame.payloads = {inner.encode(), inner.encode(), inner.encode()};
  const util::Bytes valid = frame.encode();
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    util::Bytes b = valid;
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.next_below(3)) {
        case 0:
          if (!b.empty()) {
            b[rng.next_below(b.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        case 1:
          if (!b.empty()) b.resize(rng.next_below(b.size()));
          break;
        case 2:
          b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    // A corrupted frame either fails to decode or yields payloads that
    // the per-message decoders reject on their own; neither may crash.
    if (auto d = BatchFrame::decode(b)) {
      for (const auto& p : d->payloads) (void)OrderedMsg::decode(p);
    }
  }
}

TEST(FuzzDecode, MutatedRelayFramesNeverCrashDecoder) {
  util::Rng rng(24680);
  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 7;
  inner.sender = inner.emitter = 3;
  inner.counter = 50;
  inner.payload = {1, 2, 3};
  const util::Bytes inner_raw = inner.encode();
  RelayFrame frame;
  frame.group = 7;
  frame.origin = 3;
  frame.seq = 12345;
  frame.payload = util::BytesView(inner_raw);
  const util::Bytes valid = frame.encode();
  RelayRepairMsg repair;
  repair.group = 7;
  repair.emitter = 3;
  repair.have = 49;
  const util::Bytes valid_repair = repair.encode();
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    util::Bytes b = (i % 2 == 0) ? valid : valid_repair;
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.next_below(3)) {
        case 0:
          if (!b.empty()) {
            b[rng.next_below(b.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        case 1:
          if (!b.empty()) b.resize(rng.next_below(b.size()));
          break;
        case 2:
          b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    const util::BytesView view{b};
    if (auto d = RelayFrame::decode(view)) {
      // The nesting rule survives mutation: whatever decodes is never a
      // batch or relay container (amplification guard) ...
      ASSERT_FALSE(d->payload.empty());
      const auto t = static_cast<MsgType>(d->payload[0]);
      ASSERT_NE(t, MsgType::kBatch);
      ASSERT_NE(t, MsgType::kRelay);
      // ... and the payload slice stays within the arrival buffer.
      ASSERT_GE(d->payload.begin(), view.begin());
      ASSERT_LE(d->payload.end(), view.end());
      (void)OrderedMsg::decode(d->payload);
    }
    (void)RelayRepairMsg::decode(view);
  }
}

TEST(FuzzDecode, MutatedJoinMessagesNeverCrashDecoders) {
  // The three state-transfer codecs (docs/STATE_TRANSFER.md) decode
  // input from processes that are not yet group members — the least
  // trusted source in the system. Mutations must fail cleanly and any
  // surviving SnapshotFrame payload must honor its length field.
  util::Rng rng(19950605);
  JoinRequestMsg req;
  req.group = 7;
  req.joiner = 9;
  JoinWelcomeMsg wel;
  wel.group = 7;
  wel.source = 0;
  wel.stamp_counter = 4242;
  wel.stamp_sender = 2;
  wel.view_seq = 3;
  wel.members = {0, 1, 2};
  SnapshotFrame snap;
  snap.group = 7;
  snap.stamp_counter = 4242;
  snap.index = 2;
  snap.last = true;
  snap.payload = {9, 8, 7, 6, 5, 4};
  const util::Bytes seeds[] = {req.encode(), wel.encode(), snap.encode()};
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    util::Bytes b = seeds[static_cast<std::size_t>(i) % 3];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      switch (rng.next_below(3)) {
        case 0:
          if (!b.empty()) {
            b[rng.next_below(b.size())] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        case 1:
          if (!b.empty()) b.resize(rng.next_below(b.size()));
          break;
        case 2:
          b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
          break;
      }
    }
    (void)JoinRequestMsg::decode(b);
    if (auto w = JoinWelcomeMsg::decode(b)) {
      // Range invariants survive mutation: decoded enums are always
      // valid enumerators (the engine switches on them unguarded).
      ASSERT_LE(static_cast<unsigned>(w->options.mode),
                static_cast<unsigned>(OrderMode::kAsymmetric));
      ASSERT_LE(static_cast<unsigned>(w->options.guarantee),
                static_cast<unsigned>(Guarantee::kAtomicOnly));
    }
    if (auto s = SnapshotFrame::decode(b)) {
      ASSERT_LE(s->payload.size(), b.size());
    }
    (void)peek_type(b);
  }
}

TEST(FuzzDecode, EndpointSurvivesHostileJoinMessages) {
  // Forged join traffic into a live group: bogus joiners, spoofed
  // welcomes to a non-joining member, unsolicited snapshot chunks,
  // requests claiming someone else is joining. Nothing crashes, the
  // view stays sane, and the group keeps delivering.
  simhost::WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 23;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2});
  w.run_for(300 * kMillisecond);

  JoinRequestMsg spoofed;  // claims P2 (already a member) wants to join,
  spoofed.group = 1;       // but arrives from P0: joiner/from mismatch
  spoofed.joiner = 2;
  w.ep(1).on_message(0, spoofed.encode(), w.now());

  JoinRequestMsg self_join;  // P1 asked to admit itself
  self_join.group = 1;
  self_join.joiner = 1;
  w.ep(1).on_message(1, self_join.encode(), w.now());

  JoinWelcomeMsg unsolicited;  // welcome to a process that never asked
  unsolicited.group = 1;
  unsolicited.source = 0;
  unsolicited.stamp_counter = 99999;
  unsolicited.stamp_sender = 0;
  unsolicited.members = {0, 1, 2, 9};
  w.ep(1).on_message(0, unsolicited.encode(), w.now());

  SnapshotFrame stray;  // chunk with no transfer in progress
  stray.group = 1;
  stray.stamp_counter = 99999;
  stray.last = true;
  stray.payload = {0xff, 0xff};
  w.ep(1).on_message(0, stray.encode(), w.now());

  w.multicast(0, 1, "sane");
  w.run_for(2 * kSecond);
  const auto d = w.log(1).delivered_strings(1);
  EXPECT_EQ(d, std::vector<std::string>{"sane"});
  EXPECT_EQ(w.ep(1).view(1)->members, (std::vector<ProcessId>{0, 1, 2}));
  EXPECT_EQ(w.ep(1).stats().joins_completed, 0u);
}

TEST(FuzzDecode, EndpointSurvivesHostileRelayFrames) {
  // Forged relay frames straight into a live relaying group: wrong
  // groups, non-member origins, origin/emitter mismatches, absurd seqs.
  // Nothing crashes, nothing forged is delivered, the group keeps
  // working.
  simhost::WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 17;
  LoggedWorld w(cfg);
  GroupOptions opts;
  opts.dissemination = DisseminationStrategy::kRing;
  w.create_group(1, {0, 1, 2}, opts);
  w.run_for(300 * kMillisecond);

  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 1;
  inner.sender = inner.emitter = 0;
  inner.counter = 1;
  inner.payload = {'x'};
  const util::Bytes inner_raw = inner.encode();

  RelayFrame wrong_group;
  wrong_group.group = 99;
  wrong_group.origin = 0;
  wrong_group.seq = 1;
  wrong_group.payload = util::BytesView(inner_raw);
  w.ep(1).on_message(0, wrong_group.encode(), w.now());

  RelayFrame mismatched;  // origin != inner emitter: forged attribution
  mismatched.group = 1;
  mismatched.origin = 2;
  mismatched.seq = 1;
  mismatched.payload = util::BytesView(inner_raw);
  w.ep(1).on_message(0, mismatched.encode(), w.now());

  RelayFrame absurd_seq;
  absurd_seq.group = 1;
  absurd_seq.origin = 0;
  absurd_seq.seq = kCounterMax - 1;  // stashes, asks for repair, inert
  absurd_seq.payload = util::BytesView(inner_raw);
  w.ep(1).on_message(0, absurd_seq.encode(), w.now());

  RelayRepairMsg hostile_repair;
  hostile_repair.group = 1;
  hostile_repair.emitter = 2;  // not the handler's own stream: refused
  hostile_repair.have = 0;
  w.ep(1).on_message(0, hostile_repair.encode(), w.now());

  w.multicast(0, 1, "sane");
  w.run_for(2 * kSecond);
  const auto d = w.log(1).delivered_strings(1);
  EXPECT_EQ(d, std::vector<std::string>{"sane"});
  EXPECT_EQ(w.ep(1).view(1)->members, (std::vector<ProcessId>{0, 1, 2}));
}

TEST(FuzzDecode, EndpointSurvivesHostileBatches) {
  // Truncated, corrupt and adversarial batch frames (garbage payloads,
  // nested batches, huge claimed counts) fed straight into a live
  // endpoint: nothing crashes and the group keeps working.
  simhost::WorldConfig cfg;
  cfg.processes = 2;
  cfg.seed = 11;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1});
  // Let time-silence advance the clocks so the forged counter below is
  // already stale: a *corrupt* frame must be inert, and bit-flip attacks
  // that forge plausible fresh counters are out of scope here (the paper
  // assumes uncorrupted transport; decoder-level flips are fuzzed above).
  w.run_for(300 * kMillisecond);
  util::Rng rng(1331);

  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 1;
  inner.sender = inner.emitter = 0;
  inner.counter = 1;  // far behind P0's real stream by now
  inner.payload = {42};
  BatchFrame valid;
  valid.payloads = {inner.encode(), inner.encode()};
  const util::Bytes raw = valid.encode();
  for (int i = 0; i < fuzz_iters(2000); ++i) {
    util::Bytes b = raw;
    if (rng.next_below(2) == 0) {
      b.resize(rng.next_below(b.size()));  // truncate
    } else {
      b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));  // extend
    }
    w.ep(1).on_message(0, b, w.now());
  }
  // A nested batch must be dropped, not dispatched.
  util::Writer nw(raw.size() + 8);
  nw.u8(6);  // kBatch, hand-rolled so the nested frame survives encoding
  nw.varint(1);
  nw.bytes(raw);
  w.ep(1).on_message(0, std::move(nw).take(), w.now());
  // An absurd count field is rejected outright.
  util::Writer cw(8);
  cw.u8(6);
  cw.varint(1u << 30);
  w.ep(1).on_message(0, std::move(cw).take(), w.now());

  w.multicast(0, 1, "alive");
  w.run_for(kSecond);
  const auto d = w.log(1).delivered_strings(1);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.back(), "alive");
}

TEST(FuzzDecode, EndpointSurvivesGarbageStream) {
  // A live endpoint fed garbage interleaved with real traffic must keep
  // functioning and never deliver garbage.
  simhost::WorldConfig cfg;
  cfg.processes = 2;
  cfg.seed = 5;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1});
  util::Rng rng(777);
  for (int i = 0; i < fuzz_iters(5000); ++i) {
    w.ep(1).on_message(0, random_bytes(rng, 48), w.now());
  }
  w.multicast(0, 1, "real");
  w.run_for(kSecond);
  EXPECT_EQ(w.log(1).delivered_strings(1),
            std::vector<std::string>{"real"});
}

TEST(FuzzDecode, EndpointSurvivesSemanticallyHostileMessages) {
  // Well-formed messages with hostile field values: wrong groups, bogus
  // senders, absurd counters, self-referential suspicions, detections of
  // unknown processes.
  simhost::WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 6;
  LoggedWorld w(cfg);
  w.create_group(1, {0, 1, 2});
  w.run_for(200 * kMillisecond);

  OrderedMsg evil;
  evil.type = MsgType::kApp;
  evil.group = 1;
  evil.sender = 99;   // not a member
  evil.emitter = 99;
  evil.counter = kCounterMax - 1;
  w.ep(1).on_message(0, evil.encode(), w.now());

  SuspectMsg s;
  s.group = 1;
  s.suspicion = {55, 12345};  // unknown process
  w.ep(1).on_message(0, s.encode(), w.now());

  ConfirmMsg c;
  c.group = 1;
  c.detection = {{77, 1}, {88, 2}};  // all unknown
  w.ep(1).on_message(2, c.encode(), w.now());

  RefuteMsg r;
  r.group = 1;
  r.suspicion = {66, 3};
  r.claimed_last = kCounterMax;  // absurd claim about an unknown process
  w.ep(1).on_message(2, r.encode(), w.now());

  FwdMsg f;
  f.group = 1;  // symmetric group: kFwd is nonsensical here
  f.origin = 0;
  f.origin_counter = 1;
  w.ep(1).on_message(0, f.encode(), w.now());

  // The group still works and nothing hostile was delivered.
  w.multicast(0, 1, "sane");
  w.run_for(kSecond);
  const auto d = w.log(1).delivered_strings(1);
  EXPECT_EQ(d, std::vector<std::string>{"sane"});
  // View untouched by fake detections of unknown processes.
  EXPECT_EQ(w.ep(1).view(1)->members, (std::vector<ProcessId>{0, 1, 2}));
}

TEST(FuzzDecode, ViewDecodersSliceWithinBackingBuffer) {
  // Zero-copy decoders hand back sub-slices of the arrival buffer; the
  // slice arithmetic must never escape the backing allocation, even when
  // the decoded region is itself a mid-buffer view with hostile length
  // fields. Every view a successful decode returns is bounds-checked
  // against its backing buffer.
  util::Rng rng(8675309);

  OrderedMsg inner;
  inner.type = MsgType::kApp;
  inner.group = 3;
  inner.sender = inner.emitter = 2;
  inner.counter = 9;
  inner.payload = {1, 2, 3, 4};
  BatchFrame bf;
  bf.payloads = {inner.encode(), inner.encode(), inner.encode()};
  RefuteMsg rf;
  rf.group = 3;
  rf.suspicion = {2, 5};
  rf.claimed_last = 9;
  rf.recovered = {inner.encode(), inner.encode()};
  const std::vector<util::Bytes> seeds = {inner.encode(), bf.encode(),
                                          rf.encode()};

  const auto in_bounds = [](const util::BytesView& v) {
    if (v.buffer() == nullptr) return v.empty();
    const std::uint8_t* base = v.buffer()->data();
    return v.data() >= base &&
           v.data() + v.size() <= base + v.buffer()->size();
  };

  for (int i = 0; i < fuzz_iters(20000); ++i) {
    // A valid encoding (mutated) or pure garbage, embedded mid-buffer
    // between random pads; decode over the interior slice.
    util::Bytes content = i % 2 == 0 ? seeds[rng.next_below(seeds.size())]
                                     : random_bytes(rng, 64);
    const int edits = static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) {
      if (!content.empty()) {
        content[rng.next_below(content.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    }
    const util::Bytes front = random_bytes(rng, 8);
    const util::Bytes back = random_bytes(rng, 8);
    util::Bytes buf = front;
    buf.insert(buf.end(), content.begin(), content.end());
    buf.insert(buf.end(), back.begin(), back.end());
    const util::SharedBytes shared = util::share(std::move(buf));
    // Mostly the exact content slice; sometimes a deliberately skewed one.
    std::size_t off = front.size();
    std::size_t len = content.size();
    if (rng.next_below(4) == 0) {
      off = rng.next_below(shared->size() + 1);
      len = rng.next_below(shared->size() + 1);
    }
    const util::BytesView view(shared, off, len);

    if (auto m = OrderedMsg::decode(view)) {
      EXPECT_TRUE(in_bounds(m->payload));
      EXPECT_TRUE(in_bounds(m->raw));
    }
    if (auto f = FwdMsg::decode(view)) {
      EXPECT_TRUE(in_bounds(f->payload));
    }
    if (auto r = RefuteMsg::decode(view)) {
      for (const auto& rec : r->recovered) EXPECT_TRUE(in_bounds(rec));
    }
    if (auto b = BatchFrame::decode(view)) {
      for (const auto& p : b->payloads) {
        EXPECT_TRUE(in_bounds(p));
        if (auto m = OrderedMsg::decode(p)) {
          EXPECT_TRUE(in_bounds(m->payload));
        }
      }
    }
  }
}

TEST(FuzzDecode, RouterSurvivesGarbageDatagrams) {
  util::Rng rng(31337);
  int delivered = 0;
  transport::Router router(
      0, {}, [](transport::PeerId, util::Bytes) {},
      [&delivered](transport::PeerId, util::BytesView) { ++delivered; });
  for (int i = 0; i < fuzz_iters(20000); ++i) {
    router.on_datagram(1, random_bytes(rng, 40), i);
  }
  // Garbage may accidentally form valid-looking data packets; the channel
  // layer accepts them in seq order only — at most a bounded number
  // reach the deliver callback, and nothing crashes.
  router.tick(100000);
}

TEST(FuzzDecode, RouterRejectsUntimedChannelFrames) {
  int delivered = 0;
  int sent = 0;
  transport::Router router(
      0, {}, [&sent](transport::PeerId, util::Bytes) { ++sent; },
      [&delivered](transport::PeerId, util::BytesView) { ++delivered; });
  EXPECT_FALSE(ChannelDataFrame::decode(util::BytesView(kUntimedData)));
  EXPECT_FALSE(ChannelAckFrame::decode(util::BytesView(kUntimedAck)));
  router.on_datagram(1, util::BytesView(kUntimedData), 0);
  router.on_datagram(1, util::BytesView(kUntimedAck), 0);
  router.tick(100000);
  // Dropped whole: no delivery, and no ack owed for it.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sent, 0);
}

}  // namespace
}  // namespace newtop
