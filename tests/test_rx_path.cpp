// Zero-copy receive path: slice lifetime tests.
//
// The rx refactor's invariant is that a datagram is heap-allocated once
// and everything downstream — the delivery queue, application deliveries,
// recovery retention, refute piggybacks — holds owned slices of that one
// allocation. These tests hand an endpoint a shared arrival buffer, DROP
// the test's own reference, and then verify the engine's retained slices
// are still alive (weak_ptr observation) and byte-correct (content
// checks; ASan in the Debug CI job turns any dangling slice into a hard
// failure).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/endpoint.h"
#include "core/sim_host.h"
#include "core/wire.h"

namespace newtop {
namespace {

util::Bytes bytes_of(const std::string& s) {
  return util::Bytes(s.begin(), s.end());
}

// A bare endpoint with capture-everything hooks; no transport, no host.
// The event sink splits the stream: deliveries into `delivered`,
// everything else into `events`.
struct Harness {
  std::vector<Delivery> delivered;
  std::vector<std::pair<ProcessId, util::SharedBytes>> sent;
  std::vector<Event> events;
  std::unique_ptr<Endpoint> ep;

  explicit Harness(ProcessId self, Config cfg = {},
                   util::BufferPoolPtr pool = nullptr) {
    EndpointHooks hooks;
    hooks.send = [this](ProcessId to, util::SharedBytes data) {
      sent.emplace_back(to, std::move(data));
    };
    // Deliveries go to `delivered` only; recording the DeliveryEvent in
    // `events` too would hold a second payload reference and distort the
    // buffer-lifetime tests.
    hooks.on_event = [this](const Event& ev) {
      if (const auto* d = std::get_if<DeliveryEvent>(&ev)) {
        delivered.push_back(d->delivery);
      } else {
        events.push_back(ev);
      }
    };
    hooks.buffer_pool = std::move(pool);
    ep = std::make_unique<Endpoint>(self, cfg, std::move(hooks));
  }

  std::size_t count_send_window_events() const {
    std::size_t n = 0;
    for (const auto& ev : events) {
      if (std::holds_alternative<SendWindowEvent>(ev)) ++n;
    }
    return n;
  }
};

util::Bytes encode_app(GroupId g, ProcessId sender, Counter c,
                       const std::string& payload, Counter ldn = 0) {
  OrderedMsg m;
  m.type = MsgType::kApp;
  m.group = g;
  m.sender = m.emitter = sender;
  m.counter = c;
  m.ldn = ldn;
  m.payload = bytes_of(payload);
  return m.encode();
}

TEST(RxPath, DeliveredSliceOutlivesArrivalDatagram) {
  // Atomic-only group: the message is delivered during on_message; the
  // recorded Delivery's payload must stay valid and correct after the
  // arrival buffer's last external reference is gone.
  Harness h(1);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  h.ep->create_group(1, {0, 1}, opts, 0);

  util::SharedBytes datagram = util::share(encode_app(1, 0, 1, "keepme"));
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  ASSERT_EQ(h.delivered.size(), 1u);
  // The delivery (and recovery retention) still reference the buffer.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(h.delivered[0].payload, bytes_of("keepme"));
  EXPECT_EQ(h.delivered[0].payload.buffer().get(), watch.lock().get());
}

TEST(RxPath, QueuedDeliverySlicesOutliveBatchedDatagram) {
  // Total-order group: messages from P0 wait in the delivery queue until
  // P1's own stream advances past them. Both arrive in one BatchFrame
  // whose buffer the test releases while they are still queued.
  Harness h(1);
  h.ep->create_group(1, {0, 1}, {}, 0);

  BatchFrame frame;
  frame.payloads = {encode_app(1, 0, 1, "first"),
                    encode_app(1, 0, 2, "second")};
  util::SharedBytes datagram = util::share(frame.encode());
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  // Still gated: D = min over members, and P1 has emitted nothing.
  EXPECT_EQ(h.delivered.size(), 0u);
  EXPECT_EQ(h.ep->queued_deliveries(), 2u);
  EXPECT_FALSE(watch.expired());  // the queue's slices keep it alive

  // P1's own multicast stamps counter 3 (CA2 observed 2) and raises
  // rv[1]; D reaches 2 and the queued slices deliver in order.
  ASSERT_EQ(h.ep->multicast(1, bytes_of("own"), 2), SendResult::kSent);
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].payload, bytes_of("first"));
  EXPECT_EQ(h.delivered[1].payload, bytes_of("second"));
  // Both payloads are sub-slices of the one batched arrival buffer.
  EXPECT_EQ(h.delivered[0].payload.buffer().get(),
            h.delivered[1].payload.buffer().get());
}

TEST(RxPath, RetainedRecoverySlicesBackRefutePiggybacks) {
  // P1 retains P0's message (as a slice of the arrival datagram, since
  // released), then refutes P2's stale suspicion of P0. The refute's
  // piggybacked recovery entries must reproduce the original encoding.
  Harness h(1);
  h.ep->create_group(1, {0, 1, 2}, {}, 0);

  const util::Bytes original = encode_app(1, 0, 5, "evidence");
  util::SharedBytes datagram = util::share(util::Bytes(original));
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();
  EXPECT_FALSE(watch.expired());  // retention holds a slice
  EXPECT_EQ(h.ep->retained_messages(1), 1u);

  SuspectMsg suspect;
  suspect.group = 1;
  suspect.suspicion = Suspicion{0, 0};  // "P0 failed; last saw ln = 0"
  h.sent.clear();
  h.ep->on_message(2, suspect.encode(), 2);

  // P1 has rv[0] = 5 > 0: it must have fanned out a refute carrying the
  // retained message.
  std::optional<RefuteMsg> refute;
  for (const auto& [to, raw] : h.sent) {
    if (peek_type(*raw) == MsgType::kRefute) {
      refute = RefuteMsg::decode(util::BytesView(raw));
      break;
    }
  }
  ASSERT_TRUE(refute.has_value());
  EXPECT_EQ(refute->claimed_last, 5u);
  ASSERT_EQ(refute->recovered.size(), 1u);
  EXPECT_EQ(refute->recovered[0], original);
  const auto recovered = OrderedMsg::decode(refute->recovered[0]);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->payload, bytes_of("evidence"));
}

TEST(RxPath, SuspicionHeldSlicesSurviveDatagramRelease) {
  // Messages from a suspected process are held pending agreement; the
  // held OrderedMsgs' views must keep their (batched) arrival buffer
  // alive. self_refute is off so the evidence is held, not consumed.
  Config cfg;
  cfg.self_refute = false;
  Harness h(1, cfg);
  h.ep->create_group(1, {0, 1, 2}, {}, 0);

  // Keep P2 fresh so only P0 crosses the Ω silence threshold — with P2
  // unendorsed the agreement cannot conclude, and the suspicion (with its
  // held messages) stays pending.
  h.ep->on_message(2, encode_app(1, 2, 1, "alive2"),
                   cfg.omega_big - 50 * sim::kMillisecond);
  h.ep->on_tick(cfg.omega_big + 1);
  ASSERT_TRUE(h.ep->suspects(1, 0));
  ASSERT_FALSE(h.ep->suspects(1, 2));

  BatchFrame frame;
  frame.payloads = {encode_app(1, 0, 7, "held")};
  util::SharedBytes datagram = util::share(frame.encode());
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), cfg.omega_big + 2);
  datagram.reset();

  // Not delivered, not retained — held under the suspicion, slice alive.
  EXPECT_EQ(h.delivered.size(), 0u);
  EXPECT_FALSE(watch.expired());
}

// ---------------------------------------------------------------------
// Retention byte accounting + slice compaction
// ---------------------------------------------------------------------

util::Bytes encode_null(GroupId g, ProcessId sender, Counter c,
                        std::size_t payload_len) {
  OrderedMsg m;
  m.type = MsgType::kNull;
  m.group = g;
  m.sender = m.emitter = sender;
  m.counter = c;
  m.payload = util::Bytes(payload_len, 0xEE);
  return m.encode();
}

TEST(RxPath, CompactionReleasesOversizedBackingBuffer) {
  // A ~30-byte app message arrives sharing a BatchFrame with 4KB of
  // bulk (a null). Retention would pin the whole frame until stability;
  // the compaction pass must copy the slice into a right-sized buffer
  // and let the frame go — observable as the weak_ptr expiring — while
  // refute piggybacks still reproduce the original encoding.
  Harness h(1);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;  // deliver immediately
  h.ep->create_group(1, {0, 1, 2}, opts, 0);

  const util::Bytes original = encode_app(1, 0, 5, "keepme");
  BatchFrame frame;
  frame.payloads = {original, encode_null(1, 0, 6, 4096)};
  util::SharedBytes datagram = util::share(frame.encode());
  const std::size_t frame_size = datagram->size();
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].payload, bytes_of("keepme"));
  // The app drops its payload reference; only retention pins the frame.
  h.delivered.clear();
  ASSERT_EQ(h.ep->retained_messages(1), 1u);
  EXPECT_FALSE(watch.expired());

  // Accounting before compaction: the tiny slice pins the whole frame.
  RetentionStats before = h.ep->retention_stats(1);
  EXPECT_EQ(before.retained_msgs, 1u);
  EXPECT_EQ(before.used_bytes, original.size());
  EXPECT_EQ(before.pinned_bytes, frame_size);
  EXPECT_GT(before.pinned_bytes, 2 * before.used_bytes);

  h.ep->on_tick(2);  // compaction pass

  // The original datagram allocation is gone...
  EXPECT_TRUE(watch.expired());
  EXPECT_GT(h.ep->stats().retention_compactions, 0u);
  // ...and pinned bytes are bounded by the configured ratio (2x).
  RetentionStats after = h.ep->retention_stats(1);
  EXPECT_EQ(after.retained_msgs, 1u);
  EXPECT_EQ(after.used_bytes, original.size());
  EXPECT_LE(after.pinned_bytes, 2 * after.used_bytes);

  // The compacted slice still backs a byte-identical refute piggyback.
  SuspectMsg suspect;
  suspect.group = 1;
  suspect.suspicion = Suspicion{0, 0};
  h.sent.clear();
  h.ep->on_message(2, suspect.encode(), 3);
  std::optional<RefuteMsg> refute;
  for (const auto& [to, raw] : h.sent) {
    if (peek_type(*raw) == MsgType::kRefute) {
      refute = RefuteMsg::decode(util::BytesView(raw));
      break;
    }
  }
  ASSERT_TRUE(refute.has_value());
  ASSERT_EQ(refute->recovered.size(), 1u);
  EXPECT_EQ(refute->recovered[0], original);
}

TEST(RxPath, CompactionSkipsBuffersOthersStillReference) {
  // Copying a slice only helps if it frees the backing buffer. While
  // the application still holds a delivery payload from the same frame,
  // compaction must leave the retained slice alone (a copy would grow
  // the footprint, not shrink it).
  Harness h(1);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  h.ep->create_group(1, {0, 1, 2}, opts, 0);

  BatchFrame frame;
  frame.payloads = {encode_app(1, 0, 5, "keepme"),
                    encode_null(1, 0, 6, 4096)};
  util::SharedBytes datagram = util::share(frame.encode());
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  ASSERT_EQ(h.delivered.size(), 1u);  // app keeps its payload slice
  const std::uint64_t compactions = h.ep->stats().retention_compactions;
  h.ep->on_tick(2);
  EXPECT_EQ(h.ep->stats().retention_compactions, compactions);
  EXPECT_FALSE(watch.expired());
}

TEST(RxPath, SuspicionHeldMessagesCompactToo) {
  // A message held under a suspicion pins its (large) arrival frame;
  // the compaction pass re-slices it, and the release path still hands
  // the application byte-identical content.
  Config cfg;
  cfg.self_refute = false;
  Harness h(1, cfg);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  h.ep->create_group(1, {0, 1, 2}, opts, 0);

  h.ep->on_message(2, encode_app(1, 2, 1, "alive2"),
                   cfg.omega_big - 50 * sim::kMillisecond);
  h.ep->on_tick(cfg.omega_big + 1);
  ASSERT_TRUE(h.ep->suspects(1, 0));
  h.delivered.clear();  // drop alive2's delivery (and its payload ref)

  // The bulk sibling rides the same frame but belongs to the unsuspected
  // P2, so only the small message is held — and it alone pins the frame.
  BatchFrame frame;
  frame.payloads = {encode_app(1, 0, 7, "held"), encode_null(1, 2, 9, 4096)};
  util::SharedBytes datagram = util::share(frame.encode());
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), cfg.omega_big + 2);
  datagram.reset();
  EXPECT_EQ(h.delivered.size(), 0u);  // held, not delivered

  h.ep->on_tick(cfg.omega_big + 3);  // compaction pass
  EXPECT_TRUE(watch.expired());
  RetentionStats rs = h.ep->retention_stats(1);
  EXPECT_EQ(rs.held_msgs, 1u);
  EXPECT_LE(rs.pinned_bytes, 2 * rs.used_bytes);

  // Another member refutes the suspicion: the held (now compacted)
  // message is released and delivered byte-identically.
  RefuteMsg refute;
  refute.group = 1;
  refute.suspicion = Suspicion{0, 0};
  refute.claimed_last = 0;
  h.ep->on_message(2, refute.encode(), cfg.omega_big + 4);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].payload, bytes_of("held"));
}

// ---------------------------------------------------------------------
// Delivery ownership modes (GroupOptions::delivery)
// ---------------------------------------------------------------------

TEST(RxPath, CopyOutReleasesArrivalDatagramAtHandlingReturn) {
  // kPooledCopy with no host pool detaches every accepted message from
  // its arrival buffer into plain heap copies at receive time: the
  // moment on_message returns (and the test drops its own reference),
  // nothing — not the recorded Delivery, not recovery retention — pins
  // the datagram. Contrast with DeliveredSliceOutlivesArrivalDatagram
  // above, where kZeroCopySlice keeps it alive.
  Harness h(1);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  opts.delivery = DeliveryMode::kPooledCopy;
  h.ep->create_group(1, {0, 1}, opts, 0);

  util::SharedBytes datagram = util::share(encode_app(1, 0, 1, "keepme"));
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_TRUE(watch.expired());  // retention + delivery hold copies
  EXPECT_EQ(h.delivered[0].payload, bytes_of("keepme"));
  EXPECT_GT(h.ep->stats().arrival_detach_copies, 0u);
  EXPECT_GT(h.ep->retained_messages(1), 0u);  // retention intact, detached
}

TEST(RxPath, CopyOutReleasesBatchFrameWhileMessagesStillQueued) {
  // Total-order group: the messages wait in the delivery queue, but the
  // queue holds detached copies — the batched arrival buffer dies the
  // moment its handling returns, long before delivery. No host pool:
  // plain heap copies.
  Harness h(1);
  GroupOptions opts;
  opts.delivery = DeliveryMode::kPooledCopy;
  h.ep->create_group(1, {0, 1}, opts, 0);

  BatchFrame frame;
  frame.payloads = {encode_app(1, 0, 1, "first"),
                    encode_app(1, 0, 2, "second")};
  util::SharedBytes datagram = util::share(frame.encode());
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  EXPECT_EQ(h.delivered.size(), 0u);
  EXPECT_EQ(h.ep->queued_deliveries(), 2u);
  EXPECT_TRUE(watch.expired());  // the queue pins copies, not the frame

  ASSERT_EQ(h.ep->multicast(1, bytes_of("own"), 2), SendResult::kSent);
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].payload, bytes_of("first"));
  EXPECT_EQ(h.delivered[1].payload, bytes_of("second"));
}

TEST(RxPath, PooledCopyDrawsFromHostPoolAndReleasesArrival) {
  // With a host BufferPool installed, kPooledCopy recycles the detach
  // buffers through it, so steady-state detaching costs no allocator
  // traffic.
  auto pool = util::BufferPool::create();
  Config cfg;
  Harness h(1, cfg, pool);
  GroupOptions opts;
  opts.guarantee = Guarantee::kAtomicOnly;
  opts.delivery = DeliveryMode::kPooledCopy;
  h.ep->create_group(1, {0, 1}, opts, 0);

  const util::BufferPoolStats before = pool->stats();
  util::SharedBytes datagram = util::share(encode_app(1, 0, 1, "pooled"));
  std::weak_ptr<const util::Bytes> watch = datagram;
  h.ep->on_message(0, util::BytesView(datagram), 1);
  datagram.reset();

  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(h.delivered[0].payload, bytes_of("pooled"));
  const util::BufferPoolStats after = pool->stats();
  EXPECT_GT(after.shares, before.shares);  // detach went through the pool

  // Round-trip: once the app and the engine drop the detach buffer (the
  // delivery log cleared, retention gone with the membership), its
  // storage lands back in the pool and the next detach reuses it.
  h.delivered.clear();
  h.ep->leave_group(1, 2);  // drops retention -> pooled buffer recycles
  h.ep->create_group(1, {0, 1}, opts, 3);
  h.ep->on_message(0, encode_app(1, 0, 1, "again"), 4);
  EXPECT_GT(pool->stats().acquire_hits, before.acquire_hits);
}

TEST(RxPath, ZeroCopySliceRemainsTheDefault) {
  GroupOptions opts;
  EXPECT_EQ(opts.delivery, DeliveryMode::kZeroCopySlice);
}

// A host hands each delivery to the application's sink and keeps no
// reference of its own. Once the message is stable (retention trimmed),
// the payload the sink kept is the only owner of its backing buffer.
class HostHoldsNoPayload : public ::testing::TestWithParam<DeliveryMode> {};

TEST_P(HostHoldsNoPayload, SimHostDropsDeliveredPayload) {
  simhost::WorldConfig cfg;
  cfg.processes = 3;
  cfg.seed = 11;
  cfg.network.latency = sim::LatencyModel::uniform(
      1 * sim::kMillisecond, 5 * sim::kMillisecond);
  simhost::SimWorld w(cfg);
  GroupOptions opts;
  opts.delivery = GetParam();
  w.create_group(1, {0, 1, 2}, opts);
  w.run_for(200 * sim::kMillisecond);

  util::BytesView kept;
  w.process(1).set_event_sink([&kept](const Event& ev) {
    const auto* d = std::get_if<DeliveryEvent>(&ev);
    if (d != nullptr && kept.empty()) kept = d->delivery.payload;
  });
  ASSERT_TRUE(send_accepted(
      w.group(0, 1).multicast(util::Bytes(1024, std::uint8_t{0xab}))));
  w.run_for(3 * sim::kSecond);  // quiescence: stability trims retention

  ASSERT_EQ(kept.size(), 1024u);
  EXPECT_EQ(kept.buffer().use_count(), 1)
      << "something besides the application holds the delivered payload";
}

INSTANTIATE_TEST_SUITE_P(
    DeliveryModes, HostHoldsNoPayload,
    ::testing::Values(DeliveryMode::kZeroCopySlice, DeliveryMode::kPooledCopy),
    [](const ::testing::TestParamInfo<DeliveryMode>& mode) {
      return std::string(mode.param == DeliveryMode::kZeroCopySlice
                             ? "ZeroCopySlice"
                             : "PooledCopy");
    });

// ---------------------------------------------------------------------
// Send backpressure (Config::max_pending_sends) + SendWindowEvent
// ---------------------------------------------------------------------

TEST(RxPath, BackpressureCapRejectsAndWindowEventFiresOnceOnDrain) {
  // flow_window = 1 parks every send after the first; max_pending_sends
  // = 2 bounds that parking. A burst then yields kSent, kQueued x2,
  // kBackpressure — and when stability drains the flow window, exactly
  // one SendWindowEvent announces the reopening.
  Config cfg;
  cfg.flow_window = 1;
  cfg.max_pending_sends = 2;
  Harness h(1, cfg);
  h.ep->create_group(1, {0, 1}, {}, 0);

  EXPECT_EQ(h.ep->multicast(1, bytes_of("m1"), 1), SendResult::kSent);
  EXPECT_EQ(h.ep->multicast(1, bytes_of("m2"), 1), SendResult::kQueued);
  EXPECT_EQ(h.ep->multicast(1, bytes_of("m3"), 1), SendResult::kQueued);
  EXPECT_EQ(h.ep->multicast(1, bytes_of("m4"), 1),
            SendResult::kBackpressure);
  EXPECT_EQ(h.ep->multicast(1, bytes_of("m5"), 1),
            SendResult::kBackpressure);
  EXPECT_EQ(h.ep->queued_sends(), 2u);
  EXPECT_EQ(h.ep->stats().sends_rejected, 2u);
  EXPECT_EQ(h.count_send_window_events(), 0u);  // still closed

  // P0 acknowledges our m1 (ldn = 1): combined with our own next
  // emission's ldn, stability discards m1, the flow window reopens and
  // the pump drains one queued send — pending drops under the cap.
  h.ep->on_message(0, encode_app(1, 0, 5, "ack", /*ldn=*/1), 2);
  h.ep->on_tick(h.ep->config().omega + 3);

  EXPECT_LT(h.ep->queued_sends(), 2u);
  EXPECT_EQ(h.count_send_window_events(), 1u);
  EXPECT_EQ(h.ep->stats().send_window_events, 1u);

  // Re-arm: filling the window again and rejecting again owes exactly
  // one more event on the next drain.
  while (h.ep->multicast(1, bytes_of("fill"), 10) !=
         SendResult::kBackpressure) {
  }
  EXPECT_EQ(h.count_send_window_events(), 1u);
}

}  // namespace
}  // namespace newtop
