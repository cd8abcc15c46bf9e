// Per-process transport router: multiplexes reliable FIFO channels to all
// peers over a datagram send function.
//
// The router is the boundary between the Newtop protocol engine (which
// assumes the paper's sequenced transport) and whatever actually moves
// bytes (simulated network, in-process queues, sockets). It is
// time-agnostic: every entry point takes `now`, so the same code runs
// under virtual and real time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/wire.h"  // BatchFrame: the batched-transmit container
#include "transport/fifo_channel.h"
#include "util/codec.h"
#include "util/logging.h"

namespace newtop::transport {

using PeerId = std::uint32_t;

class Router {
 public:
  // Bytes of payloads plus their length prefixes past which
  // send_relayed stops coalescing: with the batch head, channel header
  // and UDP envelope on top, such a frame still fits one IPv4 UDP
  // datagram (65,507 bytes).
  static constexpr std::size_t kMaxRelayBatchBytes = 60 * 1024;

  // Sends one datagram towards a peer (unreliably).
  using SendDatagramFn = std::function<void(PeerId to, util::Bytes)>;
  // Delivers one in-order payload from a peer: an owned slice of the
  // arrival datagram's single allocation (zero-copy receive path).
  using DeliverFn = std::function<void(PeerId from, util::BytesView)>;

  Router(PeerId self, ChannelConfig config, SendDatagramFn send,
         DeliverFn deliver)
      : self_(self),
        config_(config),
        send_(std::move(send)),
        deliver_(std::move(deliver)) {
    NEWTOP_CHECK(send_ != nullptr);
    NEWTOP_CHECK(deliver_ != nullptr);
  }

  PeerId self() const { return self_; }

  // Reliable, FIFO-ordered send. Local sends short-circuit the network:
  // a process's messages to itself are delivered immediately and in order.
  // Flushes any payloads buffered for the peer first, so mixing send()
  // and send_buffered() cannot reorder the per-peer stream.
  void send(PeerId to, util::SharedBytes payload, Time now) {
    if (to == self_) {
      deliver_(self_, util::BytesView(std::move(payload)));
      return;
    }
    auto& peer = peers(to);
    flush_peer(to, peer, now);
    channel_send(to, peer, std::move(payload), now);
  }
  void send(PeerId to, util::Bytes payload, Time now) {
    send(to, util::share(std::move(payload)), now);
  }

  // Batched transmit path: queues the payload for `to` without
  // transmitting. A flush — explicit via flush_batches (hosts call it on
  // idle, once the current input has been fully processed), or implicit
  // when max_batch payloads accumulate — coalesces everything pending per
  // peer into one BatchFrame, so one datagram (and one reliable-channel
  // slot) carries many protocol messages. FIFO order per peer is
  // preserved: pending payloads flush in arrival order, ahead of nothing.
  void send_buffered(PeerId to, util::SharedBytes payload, Time now) {
    if (to == self_) {
      deliver_(self_, util::BytesView(std::move(payload)));
      return;
    }
    auto& peer = peers(to);
    if (config_.max_batch <= 1) {
      channel_send(to, peer, std::move(payload), now);
      return;
    }
    peer.pending_bytes += payload->size() + BatchFrame::kLenPrefixBound;
    peer.pending.push_back(util::BytesView(std::move(payload)));
    if (peer.pending.size() >= config_.max_batch) flush_peer(to, peer, now);
  }

  // Relay re-send path (ring/tree dissemination): transmits a received
  // slice verbatim towards `to`, buffered and batched exactly like
  // send_buffered — the slice keeps its arrival datagram's allocation
  // alive through the retransmission queue, so forwarding costs zero
  // copies. Counted separately from originated traffic
  // (ChannelStats::relayed_payloads/relayed_bytes) so datagram and
  // syscall gates can attribute overlay load.
  void send_relayed(PeerId to, util::BytesView payload, Time now) {
    if (to == self_) {
      deliver_(self_, std::move(payload));
      return;
    }
    auto& peer = peers(to);
    peer.stats.relayed_payloads += 1;
    peer.stats.relayed_bytes += payload.size();
    if (config_.max_batch <= 1) {
      channel_send(to, peer, std::move(payload), now);
      return;
    }
    // Relays are what the UDP host batches, and a forward may be near
    // the datagram limit: such a forward travels alone rather than make
    // its whole batch unsendable.
    const std::size_t framed = payload.size() + BatchFrame::kLenPrefixBound;
    if (peer.pending_bytes + framed > kMaxRelayBatchBytes) {
      flush_peer(to, peer, now);
    }
    peer.pending_bytes += framed;
    peer.pending.push_back(std::move(payload));
    if (peer.pending.size() >= config_.max_batch) flush_peer(to, peer, now);
  }

  // Flushes every peer's pending payloads (see send_buffered) and any
  // deferred acks the flushed data did not piggyback. Hosts call this at
  // the idle boundary, once the current input has been fully processed.
  void flush_batches(Time now) {
    for (auto& [peer_id, peer] : peers_) {
      flush_peer(peer_id, peer, now);
      flush_ack(peer_id, peer, now);
    }
  }

  // The datagram arrives as an owned view of its one heap allocation
  // (hosts `share` the receive buffer once); the channel payload handed
  // upward is a sub-slice of it, not a copy.
  void on_datagram(PeerId from, util::BytesView datagram, Time now) {
    // `from` is unauthenticated on a socket host: channel state for it is
    // created only once a frame decodes, so garbage allocates nothing.
    const auto kind = datagram.empty()
                          ? static_cast<PacketKind>(0xff)
                          : static_cast<PacketKind>(datagram[0] &
                                                    ~kChannelTimingFlag);
    if (kind == PacketKind::kData) {
      auto frame = ChannelDataFrame::decode(datagram);
      if (!frame) {
        NEWTOP_LOG_WARN("router %u: malformed data packet from %u", self_,
                        from);
        return;
      }
      auto& peer = peers(from);
      handle_ack(peer, from, frame->cum_ack, frame->echo, now);
      // Scratch steal/return: the common case reuses one vector's
      // capacity across datagrams; a re-entrant call just sees a fresh
      // empty vector.
      std::vector<util::BytesView> ready = std::move(rx_scratch_);
      ready.clear();
      peer.receiver.on_data(frame->seq, std::move(frame->payload),
                            frame->timing, ready, peer.stats);
      // Ack deferral: rather than answering every data packet with a
      // standalone kAck datagram, mark the ack owed. An outgoing data
      // packet within the delay window piggybacks it for free; otherwise
      // a flush/tick past the deadline emits one standalone ack covering
      // (cumulatively) everything that arrived in the window.
      if (!peer.ack_pending) {
        peer.ack_pending = true;
        peer.ack_due = now + ack_delay(peer);
      }
      for (auto& p : ready) deliver_(from, std::move(p));
      ready.clear();  // drop the moved-from views' references
      rx_scratch_ = std::move(ready);
    } else if (kind == PacketKind::kAck) {
      auto frame = ChannelAckFrame::decode(datagram);
      if (!frame) return;
      handle_ack(peers(from), from, frame->cum_ack, frame->echo, now);
    } else {
      NEWTOP_LOG_WARN("router %u: unknown packet kind from %u", self_, from);
    }
  }

  // Drives retransmission; call at least every rto/2. Also the backstop
  // for deferred acks on hosts without a flush-on-idle discipline.
  void tick(Time now) {
    for (auto& [peer_id, peer] : peers_) {
      std::vector<util::Bytes> packets = std::move(tx_scratch_);
      packets.clear();
      peer.sender.tick(now, packets, ack_info(peer), peer.stats);
      note_data_sent(peer, packets);
      transmit(peer_id, packets);
      tx_scratch_ = std::move(packets);
      flush_ack(peer_id, peer, now);
    }
  }

  // Forgets all channel state towards a peer. Used when the peer has been
  // excluded from every shared group — retransmissions to it must stop.
  // (A fresh channel would restart sequence numbers; peers only ever
  // re-engage through a *new* group, and the remote router must be reset
  // symmetrically, which hosts do on view exclusion.)
  void reset_peer(PeerId peer) { peers_.erase(peer); }

  // The earliest instant this router has timer-driven work: the soonest
  // in-flight retransmission expiry or pending delayed-ack deadline
  // across all peers (kTimeNever when fully idle). Hosts bound their
  // poll/sleep by it, so sub-tick adaptive RTOs and ack-delay windows
  // fire on time instead of waiting out a fixed tick.
  Time next_deadline(Time now) const {
    Time best = sim::kTimeNever;
    for (const auto& [id, peer] : peers_) {
      // Unflushed buffered payloads (send_buffered / send_relayed) are
      // due immediately: a host that sleeps on this deadline without
      // flushing first must wake right back up rather than stall them
      // for the whole poll timeout.
      if (!peer.pending.empty()) return now;
      best = std::min(best, peer.sender.next_deadline(now));
      if (peer.ack_pending) best = std::min(best, peer.ack_due);
    }
    return best;
  }

  bool idle() const {
    for (const auto& [id, peer] : peers_) {
      if (!peer.sender.idle() || !peer.pending.empty()) return false;
    }
    return true;
  }

  ChannelStats total_stats() const {
    ChannelStats total;
    for (const auto& [id, peer] : peers_) {
      total.packets_sent += peer.stats.packets_sent;
      total.retransmissions += peer.stats.retransmissions;
      total.acks_sent += peer.stats.acks_sent;
      total.acks_suppressed += peer.stats.acks_suppressed;
      total.duplicates_dropped += peer.stats.duplicates_dropped;
      total.reorder_dropped += peer.stats.reorder_dropped;
      total.delivered += peer.stats.delivered;
      total.batches_sent += peer.stats.batches_sent;
      total.batched_payloads += peer.stats.batched_payloads;
      total.relayed_payloads += peer.stats.relayed_payloads;
      total.relayed_bytes += peer.stats.relayed_bytes;
      total.rtt_samples += peer.stats.rtt_samples;
      total.karn_skipped += peer.stats.karn_skipped;
      total.spurious_rexmit += peer.stats.spurious_rexmit;
      // Gauges do not sum across peers; the aggregate reports the
      // worst (slowest) path.
      total.srtt_us = std::max(total.srtt_us, peer.stats.srtt_us);
      total.rttvar_us = std::max(total.rttvar_us, peer.stats.rttvar_us);
      total.rto_current_us =
          std::max(total.rto_current_us, peer.stats.rto_current_us);
    }
    return total;
  }

  // Per-peer channel stats (nullptr when no channel state exists yet).
  const ChannelStats* peer_stats(PeerId id) const {
    const auto it = peers_.find(id);
    return it == peers_.end() ? nullptr : &it->second.stats;
  }

  // The RTT estimator of the channel towards `id` (nullptr as above);
  // tests and telemetry read srtt/rttvar/rto through it.
  const RttEstimator* peer_rtt(PeerId id) const {
    const auto it = peers_.find(id);
    return it == peers_.end() ? nullptr : &it->second.sender.rtt();
  }

 private:
  struct Peer {
    explicit Peer(const ChannelConfig& config)
        : sender(config), receiver(config) {}
    ChannelSender sender;
    ChannelReceiver receiver;
    ChannelStats stats;
    // Payloads queued by send_buffered / send_relayed since the last
    // flush. Views, not shared buffers: an originated payload views its
    // whole encoding, a relayed one views a slice of its arrival
    // datagram — either way the backing allocation stays alive.
    std::vector<util::BytesView> pending;
    // pending's share of a BatchFrame: sizes plus length prefixes.
    std::size_t pending_bytes = 0;
    // An ack is owed for received data; cleared when an outgoing data
    // packet piggybacks it or a standalone kAck is flushed (not before
    // ack_due — waiting lets one cumulative ack cover a whole burst).
    bool ack_pending = false;
    Time ack_due = 0;
  };

  // The ack content outgoing data to this peer piggybacks: the current
  // cumulative ack plus the latched timestamp echo.
  static AckInfo ack_info(const Peer& peer) {
    return AckInfo(peer.receiver.cum_ack(), peer.receiver.pending_echo());
  }

  // The delayed-ack window towards this peer: kAckDelay until the
  // channel has an RTT estimate, then srtt/4 (clamped) so fast paths ack
  // sooner and slow paths stop provoking spurious retransmissions.
  static Duration ack_delay(const Peer& peer) {
    if (!peer.sender.rtt().valid()) return kAckDelay;
    return std::clamp(peer.sender.rtt().srtt() / 4, kAckDelayMin,
                      kAckDelayMax);
  }

  void channel_send(PeerId to, Peer& peer, util::BytesView payload,
                    Time now) {
    std::vector<util::Bytes> packets = std::move(tx_scratch_);
    packets.clear();
    peer.sender.send(std::move(payload), now, packets, ack_info(peer));
    peer.stats.packets_sent += packets.size();
    note_data_sent(peer, packets);
    transmit(to, packets);
    tx_scratch_ = std::move(packets);
  }

  void flush_peer(PeerId to, Peer& peer, Time now) {
    if (peer.pending.empty()) return;
    if (peer.pending.size() == 1) {
      // A lone payload travels unwrapped; framing would only add bytes.
      channel_send(to, peer, std::move(peer.pending.front()), now);
    } else {
      peer.stats.batches_sent += 1;
      peer.stats.batched_payloads += peer.pending.size();
      channel_send(to, peer, share_frame(peer.pending), now);
    }
    peer.pending.clear();
    peer.pending_bytes = 0;
  }

  // Encodes a BatchFrame, drawing storage and shared-ownership plumbing
  // from the pool when one is configured.
  util::SharedBytes share_frame(const std::vector<util::BytesView>& pending) {
    return util::BufferPool::share_into(
        config_.pool,
        newtop::BatchFrame::encode_shared(
            pending, util::BufferPool::acquire_from(
                         config_.pool,
                         newtop::BatchFrame::encoded_size_bound(pending))));
  }

  // Every data packet carries the current cumulative ack as a piggyback,
  // so transmitting any data to a peer discharges a deferred ack (and
  // the timestamp echo it carried).
  void note_data_sent(Peer& peer, const std::vector<util::Bytes>& packets) {
    if (packets.empty()) return;
    peer.receiver.consume_echo();
    if (peer.ack_pending) {
      peer.ack_pending = false;
      ++peer.stats.acks_suppressed;
    }
  }

  void flush_ack(PeerId to, Peer& peer, Time now) {
    if (!peer.ack_pending || now < peer.ack_due) return;
    peer.ack_pending = false;
    send_ack(to, peer);
  }

  Peer& peers(PeerId id) {
    auto it = peers_.find(id);
    if (it == peers_.end()) {
      it = peers_.emplace(id, Peer(config_)).first;
    }
    return it->second;
  }

  void handle_ack(Peer& peer, PeerId from, std::uint64_t cum,
                  const std::optional<TimingStamp>& echo, Time now) {
    std::vector<util::Bytes> packets = std::move(tx_scratch_);
    packets.clear();
    peer.sender.on_ack(cum, echo, now, packets, ack_info(peer), peer.stats);
    peer.stats.packets_sent += packets.size();
    note_data_sent(peer, packets);
    transmit(from, packets);
    tx_scratch_ = std::move(packets);
  }

  void send_ack(PeerId to, Peer& peer) {
    ChannelAckFrame f;
    f.cum_ack = peer.receiver.cum_ack();
    f.echo = peer.receiver.pending_echo();
    peer.receiver.consume_echo();
    ++peer.stats.acks_sent;
    send_(to, f.encode(util::BufferPool::acquire_from(config_.pool, 24)));
  }

  void transmit(PeerId to, std::vector<util::Bytes>& packets) {
    for (auto& p : packets) send_(to, std::move(p));
  }

  PeerId self_;
  ChannelConfig config_;
  SendDatagramFn send_;
  DeliverFn deliver_;
  std::map<PeerId, Peer> peers_;
  // Reusable scratch (steal/return): per-datagram transient vectors keep
  // their capacity across calls instead of reallocating each time.
  std::vector<util::Bytes> tx_scratch_;
  std::vector<util::BytesView> rx_scratch_;
};

}  // namespace newtop::transport
