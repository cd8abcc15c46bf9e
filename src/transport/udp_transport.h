// Real-network transport: Newtop over UDP sockets, with kernel-batched
// burst I/O.
//
// The paper's environment is "processes ... communicating over the
// Internet" (§2). The Router/fifo_channel stack already turns an
// unreliable datagram service into the sequenced transport the protocol
// assumes, so UDP is the natural substrate. This module provides the
// socket plumbing in two layers:
//
//  - `UdpTransport` owns one socket (or an SO_REUSEPORT group of them)
//    plus the burst machinery: transmit flushes drain into `sendmmsg`
//    calls (scatter-gather, partial-send resume on EAGAIN) and the
//    receive side drains whole bursts via `recvmmsg` directly into
//    shared pooled slabs, packed back to back — one syscall moves many
//    datagrams, a received datagram is never staged through a scratch
//    copy, and it pins memory in proportion to its size. Non-Linux builds
//    and `-DNEWTOP_NO_MMSG` keep a per-packet sendmsg/recvmsg path with
//    identical wire behaviour.
//  - `UdpNode` is a complete Newtop endpoint registered on a transport.
//    Many nodes (and with them, many groups) genuinely multiplex one
//    socket: every datagram carries a tiny envelope [magic, src id,
//    dst id] so the transport demuxes by destination process, not port.
//
// The transport owns one event-loop thread that drives every attached
// node: socket receive, command mailboxes, protocol ticks and batched
// transmit. Wakeups are deadline-driven — the poll timeout is bounded by
// `Router::next_deadline` (earliest RTO expiry / delayed-ack window)
// and each node's tick cadence, so sub-millisecond adaptive RTOs fire
// on time instead of waiting out a fixed sleep. An optional sharded
// receive mode adds M SO_REUSEPORT rx threads (the kernel hashes flows
// across them) that feed the loop for parallel drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/endpoint.h"
#include "transport/router.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop::transport {

class UdpNode;

// UDP wire envelope: every datagram between UdpTransports is prefixed
// with [magic u8][src ProcessId u32le][dst ProcessId u32le]; the channel
// packet bytes follow unchanged. The envelope is what lets many
// endpoints share one socket — receive demuxes on the destination id
// and peer identity comes from the source id, not the source port. It
// is transmitted as its own iovec (scatter-gather), never by copying
// the payload. The magic keeps stray datagrams diagnosable; anything
// without it is dropped and counted, not decoded.
inline constexpr std::uint8_t kUdpEnvelopeMagic = 0xA7;
inline constexpr std::size_t kUdpEnvelopeSize = 9;

// The largest multicast payload a UdpNode accepts: one IPv4 UDP datagram
// (65,507 bytes) less the envelope and kWireHeaderAllowance, the room
// for the headers the wire encoders put around a payload on its way out
// (channel frame, relay frame, ordered message; test_udp checks the
// allowance against their largest encodings). A larger payload would
// fail every send and retransmission with EMSGSIZE, wedging its channel
// until a view change excluded the sender's peers, so multicast rejects
// it with SendResult::kTooLarge instead.
inline constexpr std::size_t kMaxUdpDatagram = 65507;
inline constexpr std::size_t kWireHeaderAllowance = 128;
inline constexpr std::size_t kMaxUdpPayload =
    kMaxUdpDatagram - kUdpEnvelopeSize - kWireHeaderAllowance;

// Thin RAII wrapper over a bound, non-blocking IPv4 UDP socket.
class UdpSocket {
 public:
  // Binds to 127.0.0.1:port; port 0 picks an ephemeral port.
  // `reuse_port` sets SO_REUSEPORT before binding (sharded receive).
  explicit UdpSocket(std::uint16_t port, bool reuse_port = false);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  // Raw single-datagram helpers (tests and diagnostics; the transport's
  // burst paths work on fd() directly). Errors are datagram loss.
  void send_to(std::uint16_t dest_port, const util::Bytes& data);
  bool receive(std::uint16_t& from_port, util::Bytes& data);
  bool wait_readable(int timeout_ms);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Socket-layer counters of one UdpTransport (shared by every node
// attached to it). All monotonic; read with io_stats() at any time.
struct TransportIoStats {
  std::uint64_t tx_syscalls = 0;    // sendmmsg/sendmsg invocations
  std::uint64_t rx_syscalls = 0;    // recvmmsg/recvmsg invocations
  std::uint64_t tx_datagrams = 0;   // datagrams accepted by the kernel
  std::uint64_t rx_datagrams = 0;   // datagrams received
  std::uint64_t rx_full_bursts = 0; // recvmmsg calls that filled every slot
  std::uint64_t rx_copies = 0;      // datagrams staged through a copy (0)
  std::uint64_t rx_truncated = 0;   // dropped: larger than the rx window
  std::uint64_t rx_unroutable = 0;  // dropped: bad envelope / unknown dst
  std::uint64_t tx_dropped = 0;     // dropped: backlog cap or send error
  std::uint64_t wakeups = 0;        // event-loop poll returns
};

struct UdpTransportConfig {
  // Runtime switch for the kernel burst paths; builds without mmsg
  // support (non-Linux, -DNEWTOP_NO_MMSG) always use the per-packet
  // fallback. Both modes speak the same wire format and interoperate.
  bool use_mmsg = true;
  // Datagrams moved per sendmmsg/recvmmsg call. Each receive slot holds
  // one 128 KB slab, so this also sets the receive memory (1 MB at 8).
  // On an 8-member symmetric mesh 98.5% of drains return at most 8
  // datagrams; rx_full_bursts counts the drains that filled every slot.
  std::size_t burst = 8;
  // >0: sharded receive — this many rx threads, each draining its own
  // SO_REUSEPORT socket bound to the same port (kernel hashes flows
  // across them, so per-peer ordering is preserved per shard). 0 (the
  // default) receives on the event-loop thread.
  std::size_t rx_shards = 0;
};

// One socket (plus burst machinery and event loop), multiplexing any
// number of UdpNode endpoints. Create it directly to share between
// nodes, or let UdpNode's port-taking constructor own a private one.
class UdpTransport {
 public:
  explicit UdpTransport(std::uint16_t port, UdpTransportConfig config = {});
  ~UdpTransport();  // stops and joins

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  std::uint16_t port() const { return socket_.port(); }
  const util::BufferPoolPtr& pool() const { return pool_; }
  // True when the burst syscalls are compiled in and enabled.
  bool mmsg_enabled() const;
  std::size_t rx_shards() const { return shard_threads_target_; }

  // Registers the UDP port of a peer process. Shared by all attached
  // nodes; must be called before traffic flows to that peer.
  void add_route(ProcessId peer, std::uint16_t port)
      EXCLUDES(routes_mutex_);

  TransportIoStats io_stats() const;

  // Idempotent; spawns the loop (and shard) threads.
  void start() EXCLUDES(state_mutex_);
  // Joins all threads; idempotent; not restartable.
  void stop() EXCLUDES(state_mutex_);

 private:
  friend class UdpNode;

  struct RxItem {
    ProcessId src = kNoProcess;
    ProcessId dst = kNoProcess;
    util::BytesView payload;
  };

  struct TxEntry {
    std::uint32_t dest_port = 0;
    std::uint8_t hdr[kUdpEnvelopeSize];
    util::Bytes data;
  };

  // Per-consumer receive state: one packing slab per burst slot that
  // the kernel writes into, plus the mmsg scratch arrays. The loop has
  // one; each shard thread has its own (no sharing, no locks).
  struct RxSlab;
  struct RxSlots;

  // Node lifecycle (called by UdpNode).
  void attach(UdpNode* node) EXCLUDES(state_mutex_);
  void detach(UdpNode* node) EXCLUDES(state_mutex_);
  // Queues one encoded channel packet for `to` (event-loop thread only;
  // flushed in bursts at the end of the loop iteration).
  void queue_send(ProcessId from, ProcessId to, util::Bytes data)
      EXCLUDES(routes_mutex_);
  // Wakes the event loop (any thread).
  void wake();

  void loop();
  void shard_loop(std::size_t shard);
  // Drains `fd` into `out` until the socket would block. Each datagram
  // lands in the free tail of its slot's slab and goes upward as a slice
  // of that slab.
  void drain_socket(int fd, RxSlots& slots, std::vector<RxItem>& out);
  // The slot's next receive window (kRxBufferBytes long), rotating the
  // slot to a fresh pooled slab when its tail is shorter than that.
  std::uint8_t* rx_window(RxSlab& slab);
  // Hands the datagram just received into the slot's window upward (or
  // counts the drop) and advances the slot past it.
  void consume(RxSlab& slab, std::size_t len, int flags,
               std::vector<RxItem>& out);
  void flush_tx();
  bool wait_events(sim::Duration timeout_us, bool poll_socket_rx);

  UdpTransportConfig cfg_;
  UdpSocket socket_;
  std::vector<std::unique_ptr<UdpSocket>> shard_sockets_;
  std::size_t shard_threads_target_ = 0;
  util::BufferPoolPtr pool_;
  // Self-pipe: [read, write]. Every wake() writes a byte, so a wake that
  // lands after the loop drained the pipe always leaves it readable.
  int wake_fds_[2] = {-1, -1};

  // Lifecycle + attached-node registry. The loop dispatches outside the
  // lock (so node callbacks may re-enter transport APIs) over a snapshot
  // it rebuilds only when nodes_gen_ moves; detach waits for the
  // in-flight iteration (one dispatch_gen_ step), after which the loop
  // can no longer reach the node.
  mutable util::Mutex state_mutex_;
  std::condition_variable detach_cv_;
  std::map<ProcessId, UdpNode*> nodes_ GUARDED_BY(state_mutex_);
  std::uint64_t nodes_gen_ GUARDED_BY(state_mutex_) = 0;
  bool in_dispatch_ GUARDED_BY(state_mutex_) = false;
  // Bumped each time the loop clears in_dispatch_ (see detach).
  std::uint64_t dispatch_gen_ GUARDED_BY(state_mutex_) = 0;
  bool started_ GUARDED_BY(state_mutex_) = false;
  std::atomic<bool> stopping_{false};

  mutable util::Mutex routes_mutex_;
  std::map<ProcessId, std::uint16_t> routes_ GUARDED_BY(routes_mutex_);

  // Sharded-receive handoff queue (shards push, loop drains).
  util::Mutex rxq_mutex_;
  std::vector<RxItem> rx_queue_ GUARDED_BY(rxq_mutex_);

  // Event-loop-thread-only transmit state.
  std::deque<TxEntry> tx_pending_;
  std::unique_ptr<RxSlots> loop_slots_;

  // Thread handles: assigned by start(), joined by stop(). The join
  // cannot hold state_mutex_ (the loop acquires it every iteration),
  // so the handles get their own capability — without it, two
  // concurrent stop() calls both reach join() on the same handle,
  // which is a data race the annotation pass surfaced. Lock order:
  // state_mutex_ before join_mutex_ (start takes both; the loop never
  // takes join_mutex_).
  mutable util::Mutex join_mutex_;
  std::thread loop_thread_ GUARDED_BY(join_mutex_);
  std::vector<std::thread> shard_threads_ GUARDED_BY(join_mutex_);

  // Io counters (relaxed atomics: single writer per counter family,
  // read from anywhere).
  std::atomic<std::uint64_t> tx_syscalls_{0}, rx_syscalls_{0};
  std::atomic<std::uint64_t> tx_datagrams_{0}, rx_datagrams_{0};
  std::atomic<std::uint64_t> rx_full_bursts_{0};
  std::atomic<std::uint64_t> rx_copies_{0}, rx_truncated_{0};
  std::atomic<std::uint64_t> rx_unroutable_{0}, tx_dropped_{0};
  std::atomic<std::uint64_t> wakeups_{0};
};

struct UdpNodeConfig {
  Config endpoint;
  ChannelConfig channel;
  // Protocol tick cadence (suspicion, omega, compaction). Transport
  // timers no longer ride it: retransmissions and delayed acks fire at
  // their own deadlines via the transport's deadline-driven wakeups.
  sim::Duration tick_interval = 5 * sim::kMillisecond;
  // Used only when the node creates a private transport (port-taking
  // constructor). A node attached to a shared UdpTransport uses that
  // transport's knobs and pool instead.
  UdpTransportConfig transport;
  // Application event sink (core/api.h): receives every engine event on
  // the transport's loop thread. The node keeps none of them; attach an
  // EventLog (core/event_log.h) here to record history. Must not block
  // on this node's GroupHandle calls (they marshal back onto the loop).
  EventSink on_event;
};

// A complete Newtop process on a UDP transport, and the real-time host
// of the library: it exposes the same GroupHandle/event-sink surface as
// SimWorld, with every call marshalled onto the transport's loop thread.
//
// A node accepts commands only between start() and stop(). Outside that
// window no loop drains its mailbox, so a command is rejected at once:
// blocking calls return their rejecting default (kNotMember, nullopt, a
// zeroed snapshot) and an async multicast reports kNotMember via `done`.
class UdpNode : public GroupHost {
 public:
  // Private-transport form: port 0 = ephemeral; read it with port().
  UdpNode(ProcessId id, std::uint16_t port, UdpNodeConfig config);
  // Shared-transport form: the node registers on `transport` at
  // start(); many nodes (and their groups) multiplex its one socket.
  UdpNode(ProcessId id, std::shared_ptr<UdpTransport> transport,
          UdpNodeConfig config);
  ~UdpNode();

  UdpNode(const UdpNode&) = delete;
  UdpNode& operator=(const UdpNode&) = delete;

  ProcessId id() const { return id_; }
  std::uint16_t port() const { return transport_->port(); }
  const std::shared_ptr<UdpTransport>& transport() const {
    return transport_;
  }

  // Registers the UDP port of a peer process (forwards to the
  // transport's route table). Must be called for every peer before
  // traffic flows to it.
  void add_peer(ProcessId peer, std::uint16_t port);

  void start();
  void stop();  // detaches from the transport; idempotent

  // Application commands, marshalled onto the loop thread. The
  // multicast admission verdict is recorded in the node's SendCounts
  // and, when `done` is provided, reported through it from the loop
  // thread — exactly once, kNotMember if the command never ran.
  void create_group(GroupId g, std::vector<ProcessId> members,
                    GroupOptions options = {});
  void initiate_group(GroupId g, std::vector<ProcessId> members,
                      GroupOptions options = {});
  void multicast(GroupId g, util::Bytes payload,
                 std::function<void(SendResult)> done = {});
  void leave_group(GroupId g);

  // Facade over this node's membership in g (see api.h). multicast /
  // view / retention_stats / join marshal onto the loop thread and block
  // for the result — do not call them from the loop thread itself (an
  // event sink runs there).
  GroupHandle group(GroupId g) { return GroupHandle(this, g); }

  // Thread-safe snapshot of the multicast admission tallies.
  SendCounts send_counts() const;

  // Aggregated reliable-transport counters — the adaptive-RTO gauges
  // (srtt/rttvar/rto_current, worst path across peers) plus the
  // socket-layer io counters (tx/rx syscalls, datagrams, copies,
  // wakeups; transport-wide when the transport is shared). Marshalled
  // onto the loop thread like the GroupHandle calls — do not call from
  // the loop thread itself; returns a default snapshot when the node is
  // not running.
  ChannelStats transport_stats();

  // Protocol-layer counter snapshot (deliveries, nulls, relay traffic —
  // see EndpointStats). Marshalled onto the loop thread; returns a
  // default snapshot when the node is not running.
  EndpointStats endpoint_stats();

 private:
  friend class UdpTransport;

  using Command = std::function<void(Endpoint&, sim::Time)>;

  // GroupHost (the GroupHandle facade).
  SendResult group_multicast(GroupId g, util::Bytes payload) override;
  void group_leave(GroupId g) override;
  std::optional<View> group_view(GroupId g) override;
  RetentionStats group_retention_stats(GroupId g) override;
  bool group_join(GroupId g, JoinOptions opts) override;

  // Event-loop-thread entry points (called by UdpTransport).
  void on_rx(ProcessId from, util::BytesView payload, sim::Time now);
  void pump(sim::Time now);            // commands + protocol tick
  void flush(sim::Time now);           // retransmission scan + batch flush
  sim::Time next_deadline(sim::Time now) const;

  void init(UdpNodeConfig&& config);
  sim::Time now_us() const;
  // Queues fn for the loop thread; false (fn dropped) unless the node is
  // between start() and stop(). Dropped commands are destroyed outside
  // mutex_: their guards and promises run user-visible callbacks.
  bool enqueue(Command fn) EXCLUDES(mutex_);
  // Marshals a blocking call onto the loop thread: enqueues `fn`, blocks
  // on its promise, and returns `fallback` when the command was dropped
  // or destroyed unexecuted by stop() (a broken promise).
  template <typename T, typename Fn>
  T marshal(T fallback, Fn&& fn);
  // Loop thread: multicasts (or rejects a payload over kMaxUdpPayload)
  // and tallies the verdict in send_counts_.
  SendResult multicast_now(GroupId g, util::Bytes payload, sim::Time now)
      EXCLUDES(log_mutex_);

  ProcessId id_;
  UdpNodeConfig cfg_;
  std::shared_ptr<UdpTransport> transport_;
  bool owns_transport_ = false;
  util::BufferPoolPtr pool_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Endpoint> endpoint_;
  sim::Time next_tick_ = 0;  // loop-thread-only once attached

  mutable util::Mutex mutex_;
  std::deque<Command> commands_ GUARDED_BY(mutex_);
  // Loop-thread-only: pump() swaps commands_ into this and runs it, so
  // the two deques trade storage instead of allocating per call.
  std::deque<Command> running_;
  // Commands are accepted while attached_ (start() to stop()); stopped_
  // makes stop() final.
  bool attached_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;

  mutable util::Mutex log_mutex_;
  SendCounts send_counts_ GUARDED_BY(log_mutex_);
};

}  // namespace newtop::transport
