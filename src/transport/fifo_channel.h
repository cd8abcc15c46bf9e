// Reliable FIFO point-to-point channel protocol.
//
// The paper assumes (§3) "a message transport layer permitting uncorrupted
// and sequenced message transmission between a sender and destination
// processes, if the processes are alive and the destination processes are
// not partitioned from the sender". This module builds that abstraction
// from an unreliable datagram service (which may drop, duplicate and
// reorder): sliding-window ARQ with cumulative acks and timeout-driven
// retransmission, one independent channel per direction per peer pair.
//
// A channel never gives up on its own: retransmission continues until the
// peer acks or the owner resets the channel. Deciding that a peer is gone
// is the membership service's job, not the transport's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "core/wire.h"  // channel packet framing + TimingStamp
#include "sim/time.h"
#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/logging.h"

namespace newtop::transport {

using sim::Duration;
using sim::Time;

// Transport timing is adaptive (see docs/TRANSPORT.md): every data
// packet is stamped with its transmit time, acks echo the stamp, and a
// per-peer Jacobson/Karn estimator turns the echoes into SRTT/RTTVAR.
// Packets start from rto = srtt + 4*rttvar clamped to [rto_min, rto_max],
// and the delayed-ack window follows clamp(srtt/4, kAckDelayMin,
// kAckDelayMax). `rto` and kAckDelay apply only until a channel's first
// RTT sample arrives.

// Per-packet RTO backoff: each retransmission multiplies the packet's
// timeout by this factor, capped at max(rto_max, rto), so a partitioned
// path sees geometrically fewer retransmissions instead of a full-window
// burst every rto. Pinning rto_min = rto_max = rto keeps it flat.
inline constexpr int kRtoBackoff = 2;

// Delayed cumulative acks: an owed ack waits up to this window for
// outgoing data to piggyback it, or for more data to share it (a burst of
// n datagrams costs one kAck, not n). Well below rto, so the sender does
// not retransmit spuriously; fast paths ack sooner, slow paths later.
inline constexpr Duration kAckDelay = 3 * sim::kMillisecond;
inline constexpr Duration kAckDelayMin = 500 * sim::kMicrosecond;
inline constexpr Duration kAckDelayMax = 20 * sim::kMillisecond;

struct ChannelConfig {
  std::size_t window = 64;           // max in-flight unacked packets
  Duration rto = 20 * sim::kMillisecond;  // timeout before the first sample
  Duration rto_max = 8 * 20 * sim::kMillisecond;
  Duration rto_min = 5 * sim::kMillisecond;
  std::size_t max_reorder = 4096;    // receiver out-of-order buffer cap
  // Router batching: payloads buffered per peer between flushes are
  // coalesced into one BatchFrame datagram, at most this many per frame.
  // <= 1 disables batching (send_buffered degenerates to send).
  std::size_t max_batch = 16;
  // Optional buffer pool: packet encodes draw their storage from it
  // instead of the allocator (hosts share one pool per process).
  util::BufferPoolPtr pool;
};

struct ChannelStats {
  std::uint64_t packets_sent = 0;          // first transmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;             // standalone kAck datagrams
  std::uint64_t acks_suppressed = 0;       // piggybacked on outgoing data
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t reorder_dropped = 0;       // overflow of the reorder buffer
  std::uint64_t delivered = 0;
  std::uint64_t batches_sent = 0;          // BatchFrames flushed
  std::uint64_t batched_payloads = 0;      // payloads carried inside them
  // Relay re-sends (Router::send_relayed): payloads forwarded on another
  // origin's behalf, counted separately from originated traffic so the
  // datagram/syscall gates can tell overlay forwarding from own load.
  std::uint64_t relayed_payloads = 0;
  std::uint64_t relayed_bytes = 0;
  // Timing-estimator telemetry.
  std::uint64_t rtt_samples = 0;           // Karn-valid echoes consumed
  std::uint64_t karn_skipped = 0;          // echoes discarded (rexmit)
  // An ack released a packet sooner after its latest retransmission than
  // the minimum RTT ever observed — the ack must answer an *earlier*
  // transmission, so that retransmission was wasted bytes.
  std::uint64_t spurious_rexmit = 0;
  // Estimator gauges (microseconds; latest values, not counters).
  std::int64_t srtt_us = 0;
  std::int64_t rttvar_us = 0;
  std::int64_t rto_current_us = 0;
  // Socket-host I/O counters (syscall batching telemetry). Filled by
  // hosts that own a kernel socket (`UdpNode::transport_stats` overlays
  // them from its UdpTransport, transport-wide); zero under the sim
  // host, and `Router::total_stats` leaves them untouched.
  std::uint64_t tx_syscalls = 0;   // sendmmsg/sendmsg calls
  std::uint64_t rx_syscalls = 0;   // recvmmsg/recvmsg calls (incl. empty drains)
  std::uint64_t tx_datagrams = 0;  // datagrams handed to the kernel
  std::uint64_t rx_datagrams = 0;  // datagrams received from the kernel
  std::uint64_t rx_copies = 0;     // rx datagrams that cost a staging copy
  std::uint64_t wakeups = 0;       // event-loop poll returns
};

// Wire framing for channel packets (encode/decode live in core/wire.h as
// ChannelDataFrame/ChannelAckFrame). kData carries a piggybacked
// cumulative ack for the reverse direction.
using PacketKind = newtop::ChannelPacketKind;

// Jacobson/Karn round-trip estimator (RFC 6298 constants: alpha = 1/8,
// beta = 1/4). Samples come from timestamp echoes, so they include the
// peer's delayed-ack wait — which is exactly right: the RTO must cover
// the whole data->ack round trip, delayed acks included, or every
// deferred ack provokes a retransmission.
class RttEstimator {
 public:
  // Bounds are normalised so a config with rto_max below rto_min cannot
  // hand std::clamp an inverted range (UB): the floor wins.
  RttEstimator(Duration rto_initial, Duration rto_min, Duration rto_max)
      : rto_initial_(rto_initial),
        rto_min_(std::max<Duration>(rto_min, 1)),
        rto_max_(std::max(rto_max, rto_min_)) {}

  void sample(Duration rtt) {
    rtt = std::max<Duration>(rtt, 1);
    if (!valid_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      min_rtt_ = rtt;
      valid_ = true;
      return;
    }
    const Duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ += (err - rttvar_) / 4;
    srtt_ += (rtt - srtt_) / 8;
    min_rtt_ = std::min(min_rtt_, rtt);
  }

  bool valid() const { return valid_; }
  Duration srtt() const { return srtt_; }
  Duration rttvar() const { return rttvar_; }
  Duration min_rtt() const { return min_rtt_; }

  // The current retransmission timeout: rto_initial until the first sample,
  // then srtt + 4*rttvar clamped to [rto_min, rto_max].
  Duration rto() const {
    if (!valid_) return rto_initial_;
    return std::clamp(srtt_ + 4 * rttvar_, rto_min_, rto_max_);
  }

 private:
  Duration rto_initial_;
  Duration rto_min_;
  Duration rto_max_;
  Duration srtt_ = 0;
  Duration rttvar_ = 0;
  Duration min_rtt_ = 0;
  bool valid_ = false;
};

// The cumulative-ack content a sender piggybacks on outgoing packets:
// the ack number plus the receiver half's latched timestamp echo (none
// until data has arrived). Implicitly constructible from a bare ack
// number so tests can pass integers.
struct AckInfo {
  std::uint64_t cum = 0;
  std::optional<TimingStamp> echo;

  AckInfo(std::uint64_t c = 0) : cum(c) {}
  AckInfo(std::uint64_t c, std::optional<TimingStamp> e)
      : cum(c), echo(std::move(e)) {}
};

// Sender half: assigns sequence numbers, enforces the window, retransmits.
// It also owns the per-peer RTT estimator: acks carrying a timestamp
// echo feed it (Karn's rule discards echoes of retransmitted packets) and
// every new transmission starts from the estimated RTO.
class ChannelSender {
 public:
  explicit ChannelSender(ChannelConfig config)
      : config_(config),
        rtt_(config.rto, config.rto_min, std::max(config.rto_max, config.rto)) {}

  // Queues payload; returns packets to transmit now (possibly none if the
  // window is full — they will go out as acks open the window). The
  // payload buffer is shared, not copied: a multicast's encoding is held
  // once across every peer's retransmission queue. A BytesView payload
  // (the relay re-send path) pins its backing arrival datagram the same
  // way — a forwarded slice never detaches into its own buffer.
  void send(util::BytesView payload, Time now,
            std::vector<util::Bytes>& out_packets, AckInfo piggyback_ack) {
    queue_.push_back(
        Pending{next_seq_++, std::move(payload), kNotSent, config_.rto, 0});
    pump(now, out_packets, piggyback_ack);
  }
  void send(util::Bytes payload, Time now,
            std::vector<util::Bytes>& out_packets, AckInfo piggyback_ack) {
    send(util::BytesView(util::share(std::move(payload))), now, out_packets,
         std::move(piggyback_ack));
  }

  // Processes a cumulative ack: everything with seq <= cum_ack is done.
  // `echo` is the peer's timestamp echo; a fresh (non-retransmitted)
  // echo becomes an RTT sample and re-seeds the timeout of any
  // backed-off in-flight packet from the new estimate, so a path that
  // recovers from loss sheds its inflated timeouts at the first live
  // round trip instead of waiting the packets out.
  void on_ack(std::uint64_t cum_ack, std::optional<TimingStamp> echo,
              Time now, std::vector<util::Bytes>& out_packets,
              AckInfo piggyback_ack, ChannelStats& stats) {
    if (echo) take_sample(*echo, now, stats);
    while (!queue_.empty() && queue_.front().seq <= cum_ack &&
           queue_.front().sent_at != kNotSent) {
      const Pending& p = queue_.front();
      // The ack released a retransmitted packet faster than any round
      // trip ever observed: it must answer an earlier transmission, so
      // the retransmission was spurious (Eifel-style detection).
      if (p.rexmits > 0 && rtt_.valid() && now - p.sent_at < rtt_.min_rtt())
        ++stats.spurious_rexmit;
      queue_.pop_front();
      NEWTOP_DCHECK(in_flight_ > 0);
      --in_flight_;
    }
    pump(now, out_packets, piggyback_ack);
  }
  // Echo-less form (tests).
  void on_ack(std::uint64_t cum_ack, Time now,
              std::vector<util::Bytes>& out_packets, AckInfo piggyback_ack) {
    ChannelStats scratch;
    on_ack(cum_ack, std::nullopt, now, out_packets, std::move(piggyback_ack),
           scratch);
  }

  // Retransmits packets whose RTO expired. Each retransmission backs the
  // packet's own timeout off (capped), so sustained loss provokes
  // geometrically less repair traffic, not a window-sized burst per rto.
  void tick(Time now, std::vector<util::Bytes>& out_packets,
            AckInfo piggyback_ack, ChannelStats& stats) {
    std::size_t considered = 0;
    for (auto& p : queue_) {
      if (considered++ >= in_flight_) break;  // only in-flight entries
      if (p.sent_at != kNotSent && now - p.sent_at >= p.rto) {
        p.sent_at = now;
        p.rto = backed_off(p.rto);
        ++p.rexmits;
        ++stats.retransmissions;
        out_packets.push_back(encode(p, piggyback_ack));
      }
    }
  }

  bool idle() const { return queue_.empty(); }
  std::size_t backlog() const { return queue_.size(); }
  Time next_deadline(Time now) const {
    std::size_t considered = 0;
    Time best = sim::kTimeNever;
    for (const auto& p : queue_) {
      if (considered++ >= in_flight_) break;
      if (p.sent_at != kNotSent) best = std::min(best, p.sent_at + p.rto);
    }
    (void)now;
    return best;
  }

  void pump(Time now, std::vector<util::Bytes>& out_packets,
            const AckInfo& piggyback_ack) {
    // Transmit queued-but-unsent packets while the window has room.
    for (auto& p : queue_) {
      if (in_flight_ >= config_.window) break;
      if (p.sent_at != kNotSent) continue;
      p.sent_at = now;
      p.rto = current_rto();  // first transmission seeds from the estimate
      ++in_flight_;
      ++sent_count_;
      out_packets.push_back(encode(p, piggyback_ack));
    }
  }

  std::uint64_t sent_count() const { return sent_count_; }
  const RttEstimator& rtt() const { return rtt_; }
  // The RTO a packet transmitted now would start from.
  Duration current_rto() const { return rtt_.rto(); }

 private:
  static constexpr Time kNotSent = -1;

  struct Pending {
    std::uint64_t seq;
    util::BytesView payload;
    Time sent_at;            // kNotSent until first transmission
    Duration rto;            // current per-packet timeout (grows under backoff)
    std::uint32_t rexmits;   // retransmission count (Karn marking)
  };

  Duration backed_off(Duration rto) const {
    return std::min(rto * kRtoBackoff, std::max(config_.rto_max, config_.rto));
  }

  void take_sample(const TimingStamp& echo, Time now, ChannelStats& stats) {
    // Karn's rule: an echo of a retransmitted packet is ambiguous (the
    // original may have raced it); never let it into the estimator.
    if (echo.rexmit) {
      ++stats.karn_skipped;
      return;
    }
    const Duration rtt = now - static_cast<Time>(echo.ts);
    if (rtt < 0) return;  // clock confusion (hostile or misrouted echo)
    rtt_.sample(rtt);
    ++stats.rtt_samples;
    stats.srtt_us = rtt_.srtt();
    stats.rttvar_us = rtt_.rttvar();
    stats.rto_current_us = rtt_.rto();
    // Fresh evidence the path is live: any packet still carrying a
    // backed-off timeout re-seeds from the estimate, so recovery is not
    // gated on the inflated timer expiring one more time.
    const Duration seeded = rtt_.rto();
    std::size_t considered = 0;
    for (auto& p : queue_) {
      if (considered++ >= in_flight_) break;
      if (p.rexmits > 0 && p.rto > seeded) p.rto = seeded;
    }
  }

  util::Bytes encode(const Pending& p, const AckInfo& ack) const {
    // Header bound: kind + 2 varints, flags byte + 2 stamp varints.
    const std::size_t need = p.payload.size() + 48;
    ChannelDataFrame f;
    f.seq = p.seq;
    f.cum_ack = ack.cum;
    f.timing =
        TimingStamp{static_cast<std::uint64_t>(p.sent_at), p.rexmits > 0};
    f.echo = ack.echo;
    f.payload = p.payload;
    return f.encode(util::BufferPool::acquire_from(config_.pool, need));
  }

  ChannelConfig config_;
  RttEstimator rtt_;
  std::deque<Pending> queue_;  // in-flight prefix, then unsent suffix
  std::size_t in_flight_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t sent_count_ = 0;
};

// Receiver half: reorders, deduplicates and delivers in sequence order.
// Payloads are owned slices of the arrival datagrams (zero-copy receive
// path): buffering a payload for reordering keeps its datagram's single
// allocation alive, never copies it.
class ChannelReceiver {
 public:
  explicit ChannelReceiver(ChannelConfig config) : config_(config) {}

  // Handles a data packet; appends in-order payloads to `delivered`.
  // Returns the cumulative ack to send back. `stamp` is the sender's
  // transmit-time stamp: the first stamp since the last ack went out is
  // latched for echoing, so the sender's RTT sample spans the whole
  // burst-plus-delayed-ack round trip (the TCP timestamps RTTM rule for
  // delayed acks).
  std::uint64_t on_data(std::uint64_t seq, util::BytesView payload,
                        const TimingStamp& stamp,
                        std::vector<util::BytesView>& delivered,
                        ChannelStats& stats) {
    if (!echo_) echo_ = stamp;
    return on_data(seq, std::move(payload), delivered, stats);
  }

  std::uint64_t on_data(std::uint64_t seq, util::BytesView payload,
                        std::vector<util::BytesView>& delivered,
                        ChannelStats& stats) {
    if (seq < next_expected_ || buffer_.count(seq) > 0) {
      ++stats.duplicates_dropped;
    } else if (seq == next_expected_ && buffer_.empty()) {
      // Fast path (the steady state): in-order packet, nothing buffered —
      // deliver directly without a map node round-trip.
      delivered.push_back(std::move(payload));
      ++next_expected_;
      ++stats.delivered;
      return cum_ack();
    } else if (seq == next_expected_ ||
               buffer_.size() < config_.max_reorder) {
      // The in-order packet is always admitted even when the reorder
      // buffer is at capacity — rejecting it would wedge the channel:
      // draining the buffer *requires* this packet.
      buffer_.emplace(seq, std::move(payload));
    } else {
      // Out-of-order and the buffer is full: the packet is dropped and
      // must be retransmitted. Counted (and logged, dampened to powers of
      // two) so an overflowing channel is diagnosable instead of looking
      // wedged.
      ++stats.reorder_dropped;
      if ((stats.reorder_dropped & (stats.reorder_dropped - 1)) == 0) {
        NEWTOP_LOG_WARN(
            "channel: reorder buffer full (%zu), dropped seq %llu "
            "(%llu drops so far)",
            buffer_.size(), static_cast<unsigned long long>(seq),
            static_cast<unsigned long long>(stats.reorder_dropped));
      }
    }
    while (!buffer_.empty() && buffer_.begin()->first == next_expected_) {
      delivered.push_back(std::move(buffer_.begin()->second));
      buffer_.erase(buffer_.begin());
      ++next_expected_;
      ++stats.delivered;
    }
    return cum_ack();
  }

  std::uint64_t cum_ack() const { return next_expected_ - 1; }

  // The latched timestamp echo owed to the peer (if any). Peek when
  // building an ack; consume once that ack has actually been transmitted
  // (piggybacked on data or flushed standalone).
  const std::optional<TimingStamp>& pending_echo() const { return echo_; }
  void consume_echo() { echo_.reset(); }

 private:
  ChannelConfig config_;
  std::map<std::uint64_t, util::BytesView> buffer_;
  std::uint64_t next_expected_ = 1;
  std::optional<TimingStamp> echo_;
};

}  // namespace newtop::transport
