#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>

#include "util/check.h"
#include "util/logging.h"

// The kernel burst syscalls. Non-Linux builds (and -DNEWTOP_NO_MMSG,
// the portability / benchmarking switch) take the per-packet
// sendmsg/recvmsg path below; the wire format is identical, so mixed
// deployments interoperate.
#if defined(__linux__) && !defined(NEWTOP_NO_MMSG)
#define NEWTOP_HAS_MMSG 1
#else
#define NEWTOP_HAS_MMSG 0
#endif

namespace newtop::transport {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

sim::Time steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Receive geometry: each window takes the UDP maximum (larger datagrams
// are dropped as rx_truncated); a slab holds kRxSlabFactor windows, and
// datagrams pack into it on kRxAlign-byte boundaries (see RxSlab). Two
// windows: one to receive into, one of packing room before the slot
// rotates — a slab is 128 KB, and a receive context holds `burst` of
// them.
constexpr std::size_t kRxBufferBytes = 65536;
constexpr std::size_t kRxSlabFactor = 2;
constexpr std::size_t kRxSlabBytes = kRxSlabFactor * kRxBufferBytes;
constexpr std::size_t kRxAlign = 64;

// Datagrams the tx queue may hold across EAGAIN resumes before new ones
// are dropped as loss.
constexpr std::size_t kMaxTxBacklog = 1024;
// Poll cap with no deadline pending (commands wake the loop explicitly).
constexpr sim::Duration kMaxIdleWait = 50 * sim::kMillisecond;

// Deadline-bounded poll. On Linux ppoll gives microsecond precision, so
// the loop wakes exactly at the earliest RTO / delayed-ack deadline; the
// portable fallback rounds the timeout up to whole milliseconds (poll
// cannot do better — a sub-ms deadline then fires up to 1ms late, never
// busy-spins at a truncated zero timeout).
int poll_us(pollfd* fds, nfds_t nfds, sim::Duration timeout_us) {
#if defined(__linux__)
  timespec ts;
  ts.tv_sec = timeout_us / sim::kSecond;
  ts.tv_nsec = (timeout_us % sim::kSecond) * 1000;
  return ::ppoll(fds, nfds, &ts, nullptr);
#else
  const sim::Duration ms =
      (timeout_us + sim::kMillisecond - 1) / sim::kMillisecond;
  return ::poll(fds, nfds, static_cast<int>(std::min<sim::Duration>(
                               ms, std::numeric_limits<int>::max())));
#endif
}

// Completion guard of an async multicast: reports kNotMember from its
// destructor when the command carrying it is destroyed unexecuted.
struct SendCompletion {
  std::function<void(SendResult)> fn;
  bool fired = false;

  void operator()(SendResult r) {
    fired = true;
    if (fn) fn(r);
  }
  ~SendCompletion() {
    if (fn && !fired) fn(SendResult::kNotMember);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// UdpSocket

UdpSocket::UdpSocket(std::uint16_t port, bool reuse_port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  NEWTOP_CHECK_MSG(fd_ >= 0, "socket() failed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  NEWTOP_CHECK(::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0);
  if (reuse_port) {
#ifdef SO_REUSEPORT
    const int one = 1;
    NEWTOP_CHECK_MSG(::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one,
                                  sizeof(one)) == 0,
                     "setsockopt(SO_REUSEPORT) failed");
#else
    NEWTOP_CHECK_MSG(false, "SO_REUSEPORT unsupported on this platform");
#endif
  }
  sockaddr_in addr = loopback(port);
  NEWTOP_CHECK_MSG(
      ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind() failed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  NEWTOP_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0);
  port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocket::send_to(std::uint16_t dest_port, const util::Bytes& data) {
  sockaddr_in addr = loopback(dest_port);
  // Errors (ECONNREFUSED from a dead peer, ENOBUFS, ...) are datagram
  // loss; the reliable channel retransmits.
  (void)::sendto(fd_, data.data(), data.size(), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
}

bool UdpSocket::receive(std::uint16_t& from_port, util::Bytes& data) {
  std::uint8_t buf[65536];
  sockaddr_in from{};
  socklen_t len = sizeof(from);
  const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                               reinterpret_cast<sockaddr*>(&from), &len);
  if (n < 0) return false;
  from_port = ntohs(from.sin_port);
  data.assign(buf, buf + n);
  return true;
}

bool UdpSocket::wait_readable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
}

// ---------------------------------------------------------------------------
// UdpTransport

// One burst slot's packing slab. `buf` backs every payload slice cut
// from it; the kernel writes the next datagram at `off`, into bytes no
// slice covers yet (`data` is the writable alias of buf's storage, taken
// before it was shared). A slab that can no longer fit a full receive
// window is dropped for a fresh one; its slices keep it alive, and it
// recycles through the pool when the last of them is released.
struct UdpTransport::RxSlab {
  util::SharedBytes buf;
  std::uint8_t* data = nullptr;
  std::size_t off = 0;
};

// Per-consumer burst scratch: one packing slab per burst slot, plus the
// mmsg arrays. The tx arrays are used only by the event loop's flush
// (shards never transmit).
struct UdpTransport::RxSlots {
  std::vector<RxSlab> slabs;
#if NEWTOP_HAS_MMSG
  std::vector<mmsghdr> msgs;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> addrs;
  std::vector<mmsghdr> tx_msgs;
  std::vector<iovec> tx_iovs;
  std::vector<sockaddr_in> tx_addrs;
#endif
  explicit RxSlots(std::size_t burst) : slabs(burst) {
#if NEWTOP_HAS_MMSG
    msgs.resize(burst);
    iovs.resize(burst);
    addrs.resize(burst);
    tx_msgs.resize(burst);
    tx_iovs.resize(burst * 2);
    tx_addrs.resize(burst);
#endif
  }
};

UdpTransport::UdpTransport(std::uint16_t port, UdpTransportConfig config)
    : cfg_(config), socket_(port, config.rx_shards > 0) {
  NEWTOP_CHECK(cfg_.burst > 0);
  // One pool for every node on this transport. Floor its per-class byte
  // budget at one receive slab per burst slot: every slot may rotate in
  // the same drain, and a pool that cannot hold that many released slabs
  // round-trips (and zero-fills) them through the allocator.
  util::BufferPoolConfig pool_cfg;
  pool_cfg.max_bytes_per_class =
      std::max(pool_cfg.max_bytes_per_class, cfg_.burst * kRxSlabBytes);
  pool_cfg.max_class = std::max(pool_cfg.max_class, kRxSlabBytes);
  pool_ = util::BufferPool::create(pool_cfg);
  shard_threads_target_ = cfg_.rx_shards;
  for (std::size_t i = 0; i < shard_threads_target_; ++i) {
    shard_sockets_.push_back(
        std::make_unique<UdpSocket>(socket_.port(), /*reuse_port=*/true));
  }
  NEWTOP_CHECK_MSG(::pipe(wake_fds_) == 0, "pipe() failed");
  for (int fd : wake_fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    NEWTOP_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
  }
  loop_slots_ = std::make_unique<RxSlots>(cfg_.burst);
}

UdpTransport::~UdpTransport() {
  stop();
  for (auto& entry : tx_pending_) pool_->release(std::move(entry.data));
  tx_pending_.clear();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

bool UdpTransport::mmsg_enabled() const {
#if NEWTOP_HAS_MMSG
  return cfg_.use_mmsg;
#else
  return false;
#endif
}

void UdpTransport::add_route(ProcessId peer, std::uint16_t port) {
  util::MutexLock lock(routes_mutex_);
  routes_[peer] = port;
}

TransportIoStats UdpTransport::io_stats() const {
  TransportIoStats s;
  s.tx_syscalls = tx_syscalls_.load(std::memory_order_relaxed);
  s.rx_syscalls = rx_syscalls_.load(std::memory_order_relaxed);
  s.tx_datagrams = tx_datagrams_.load(std::memory_order_relaxed);
  s.rx_datagrams = rx_datagrams_.load(std::memory_order_relaxed);
  s.rx_full_bursts = rx_full_bursts_.load(std::memory_order_relaxed);
  s.rx_copies = rx_copies_.load(std::memory_order_relaxed);
  s.rx_truncated = rx_truncated_.load(std::memory_order_relaxed);
  s.rx_unroutable = rx_unroutable_.load(std::memory_order_relaxed);
  s.tx_dropped = tx_dropped_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  return s;
}

void UdpTransport::start() {
  util::MutexLock lock(state_mutex_);
  if (started_) return;
  started_ = true;
  util::MutexLock join_lock(join_mutex_);
  loop_thread_ = std::thread([this] { loop(); });
  for (std::size_t i = 0; i < shard_threads_target_; ++i) {
    shard_threads_.emplace_back([this, i] { shard_loop(i); });
  }
}

void UdpTransport::stop() {
  {
    util::MutexLock lock(state_mutex_);
    if (!started_) return;
  }
  stopping_.store(true);
  wake();
  // join_mutex_ serializes concurrent stop() calls (e.g. an explicit
  // stop racing a destructor on another thread): exactly one caller
  // joins each handle, the rest see joinable() == false. Joining under
  // state_mutex_ instead would deadlock — the loop acquires it every
  // iteration.
  util::MutexLock join_lock(join_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  for (auto& t : shard_threads_) {
    if (t.joinable()) t.join();
  }
  shard_threads_.clear();
}

void UdpTransport::attach(UdpNode* node) {
  util::MutexLock lock(state_mutex_);
  const auto [it, inserted] = nodes_.emplace(node->id(), node);
  NEWTOP_CHECK_MSG(inserted, "duplicate node id on transport");
  ++nodes_gen_;
  wake();
}

void UdpTransport::detach(UdpNode* node) {
  util::MutexLock lock(state_mutex_);
  nodes_.erase(node->id());
  ++nodes_gen_;
  wake();  // cut a long idle poll short; in_dispatch_ spans it
  // The loop may be mid-iteration with the node still in its snapshot;
  // wait it out so the node cannot be touched after detach returns.
  // (Consequently a node must not be stopped from the loop thread
  // itself — i.e. from inside an event sink or command.) One iteration
  // boundary is enough: the next iteration snapshots nodes_ after the
  // erase above. Waiting for in_dispatch_ alone could starve, since the
  // loop clears it for only a few instructions before re-taking the
  // lock. Explicit loop rather than the predicate overload: the
  // analysis sees the guarded reads under the held lock.
  const std::uint64_t gen = dispatch_gen_;
  while (in_dispatch_ && dispatch_gen_ == gen) {
    detach_cv_.wait(lock.native());
  }
}

void UdpTransport::queue_send(ProcessId from, ProcessId to,
                              util::Bytes data) {
  std::uint16_t dest = 0;
  {
    util::MutexLock lock(routes_mutex_);
    auto it = routes_.find(to);
    if (it == routes_.end()) {
      NEWTOP_LOG_WARN("udp transport: no route for peer %u", to);
      tx_dropped_.fetch_add(1, std::memory_order_relaxed);
      pool_->release(std::move(data));
      return;
    }
    dest = it->second;
  }
  if (tx_pending_.size() >= kMaxTxBacklog) {
    // Backlog cap: the socket is slower than the protocol. Excess is
    // datagram loss — the reliable channel retransmits.
    tx_dropped_.fetch_add(1, std::memory_order_relaxed);
    pool_->release(std::move(data));
    return;
  }
  TxEntry entry;
  entry.dest_port = dest;
  entry.hdr[0] = kUdpEnvelopeMagic;
  put_le32(entry.hdr + 1, from);
  put_le32(entry.hdr + 5, to);
  entry.data = std::move(data);
  tx_pending_.push_back(std::move(entry));
}

void UdpTransport::wake() {
  // Every wake writes: no "wake pending" flag whose ordering against the
  // loop's drain could leave it set over an empty pipe and swallow the
  // wakes after it. A full pipe (EAGAIN) is already readable, so a
  // failed write loses nothing.
  const std::uint8_t b = 0;
  (void)!::write(wake_fds_[1], &b, 1);
}

std::uint8_t* UdpTransport::rx_window(RxSlab& slab) {
  if (slab.buf == nullptr || slab.off + kRxBufferBytes > kRxSlabBytes) {
    // Recycled slabs come back at full element count, so the resize in
    // acquire_full zero-fills only a slab's first use.
    util::Bytes b = pool_->acquire_full(kRxSlabBytes);
    slab.data = b.data();
    slab.buf = pool_->share(std::move(b));
    slab.off = 0;
  }
  return slab.data + slab.off;
}

void UdpTransport::consume(RxSlab& slab, std::size_t len, int flags,
                           std::vector<RxItem>& out) {
  if ((flags & MSG_TRUNC) != 0) {
    // Datagram exceeded kRxBufferBytes: undecodable, drop. Its window
    // is reused for the next datagram.
    rx_truncated_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint8_t* dgram = slab.data + slab.off;
  if (len < kUdpEnvelopeSize || dgram[0] != kUdpEnvelopeMagic) {
    rx_unroutable_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RxItem item;
  item.src = get_le32(dgram + 1);
  item.dst = get_le32(dgram + 5);
  // The payload goes upward as a slice of the shared slab, past the
  // envelope — no copy, ever — and the slot moves on past it, so the
  // slab's later datagrams never touch bytes a slice covers.
  item.payload = util::BytesView(slab.buf, slab.off + kUdpEnvelopeSize,
                                 len - kUdpEnvelopeSize);
  out.push_back(std::move(item));
  slab.off += (len + kRxAlign - 1) / kRxAlign * kRxAlign;
}

void UdpTransport::drain_socket(int fd, RxSlots& slots,
                                std::vector<RxItem>& out) {
#if NEWTOP_HAS_MMSG
  if (cfg_.use_mmsg) {
    const std::size_t burst = cfg_.burst;
    for (;;) {
      for (std::size_t i = 0; i < burst; ++i) {
        slots.iovs[i].iov_base = rx_window(slots.slabs[i]);
        slots.iovs[i].iov_len = kRxBufferBytes;
        std::memset(&slots.msgs[i].msg_hdr, 0, sizeof(msghdr));
        slots.msgs[i].msg_hdr.msg_iov = &slots.iovs[i];
        slots.msgs[i].msg_hdr.msg_iovlen = 1;
        slots.msgs[i].msg_hdr.msg_name = &slots.addrs[i];
        slots.msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        slots.msgs[i].msg_len = 0;
      }
      const int n = ::recvmmsg(fd, slots.msgs.data(),
                               static_cast<unsigned>(burst), MSG_DONTWAIT,
                               nullptr);
      rx_syscalls_.fetch_add(1, std::memory_order_relaxed);
      if (n <= 0) return;
      rx_datagrams_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        consume(slots.slabs[static_cast<std::size_t>(i)],
                slots.msgs[static_cast<std::size_t>(i)].msg_len,
                slots.msgs[static_cast<std::size_t>(i)].msg_hdr.msg_flags,
                out);
      }
      // A short burst means the queue is drained; a full one may hide
      // more behind it.
      if (static_cast<std::size_t>(n) < burst) return;
      rx_full_bursts_.fetch_add(1, std::memory_order_relaxed);
    }
  }
#endif
  // Per-packet fallback: the same packing slab, one datagram per
  // recvmsg call.
  for (;;) {
    iovec iov{rx_window(slots.slabs[0]), kRxBufferBytes};
    sockaddr_in from{};
    msghdr mh{};
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_name = &from;
    mh.msg_namelen = sizeof(from);
    const ssize_t n = ::recvmsg(fd, &mh, MSG_DONTWAIT);
    rx_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) return;
    rx_datagrams_.fetch_add(1, std::memory_order_relaxed);
    consume(slots.slabs[0], static_cast<std::size_t>(n), mh.msg_flags, out);
  }
}

void UdpTransport::flush_tx() {
#if NEWTOP_HAS_MMSG
  if (cfg_.use_mmsg) {
    RxSlots& s = *loop_slots_;
    while (!tx_pending_.empty()) {
      const std::size_t cnt = std::min(cfg_.burst, tx_pending_.size());
      for (std::size_t i = 0; i < cnt; ++i) {
        TxEntry& e = tx_pending_[i];
        s.tx_addrs[i] = loopback(static_cast<std::uint16_t>(e.dest_port));
        s.tx_iovs[2 * i].iov_base = e.hdr;
        s.tx_iovs[2 * i].iov_len = kUdpEnvelopeSize;
        s.tx_iovs[2 * i + 1].iov_base = e.data.data();
        s.tx_iovs[2 * i + 1].iov_len = e.data.size();
        std::memset(&s.tx_msgs[i].msg_hdr, 0, sizeof(msghdr));
        s.tx_msgs[i].msg_hdr.msg_iov = &s.tx_iovs[2 * i];
        s.tx_msgs[i].msg_hdr.msg_iovlen = e.data.empty() ? 1 : 2;
        s.tx_msgs[i].msg_hdr.msg_name = &s.tx_addrs[i];
        s.tx_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        s.tx_msgs[i].msg_len = 0;
      }
      const int n = ::sendmmsg(socket_.fd(), s.tx_msgs.data(),
                               static_cast<unsigned>(cnt), MSG_DONTWAIT);
      tx_syscalls_.fetch_add(1, std::memory_order_relaxed);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT resumes
        // Head datagram is unsendable for another reason: treat as loss
        // so the queue cannot wedge.
        tx_dropped_.fetch_add(1, std::memory_order_relaxed);
        pool_->release(std::move(tx_pending_.front().data));
        tx_pending_.pop_front();
        continue;
      }
      for (int i = 0; i < n; ++i) {
        pool_->release(std::move(tx_pending_.front().data));
        tx_pending_.pop_front();
      }
      tx_datagrams_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    }
    return;
  }
#endif
  while (!tx_pending_.empty()) {
    TxEntry& e = tx_pending_.front();
    sockaddr_in addr = loopback(static_cast<std::uint16_t>(e.dest_port));
    iovec iovs[2];
    iovs[0].iov_base = e.hdr;
    iovs[0].iov_len = kUdpEnvelopeSize;
    iovs[1].iov_base = e.data.data();
    iovs[1].iov_len = e.data.size();
    msghdr mh{};
    mh.msg_iov = iovs;
    mh.msg_iovlen = e.data.empty() ? 1 : 2;
    mh.msg_name = &addr;
    mh.msg_namelen = sizeof(addr);
    const ssize_t n = ::sendmsg(socket_.fd(), &mh, MSG_DONTWAIT);
    tx_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      tx_dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      tx_datagrams_.fetch_add(1, std::memory_order_relaxed);
    }
    pool_->release(std::move(e.data));
    tx_pending_.pop_front();
  }
}

bool UdpTransport::wait_events(sim::Duration timeout_us,
                               bool poll_socket_rx) {
  pollfd fds[2];
  fds[0] = {wake_fds_[0], POLLIN, 0};
  short sock_events = 0;
  if (poll_socket_rx) sock_events |= POLLIN;
  if (!tx_pending_.empty()) sock_events |= POLLOUT;
  fds[1] = {socket_.fd(), sock_events, 0};
  const nfds_t nfds = sock_events != 0 ? 2 : 1;
  const int ret = poll_us(fds, nfds, std::max<sim::Duration>(0, timeout_us));
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (ret > 0 && (fds[0].revents & POLLIN) != 0) {
    // Every wake() writes, so a byte that misses this drain keeps the
    // pipe readable and the next poll returns at once. The work a
    // drained byte announced was queued before its write, so this
    // iteration's dispatch (which follows) sees it. A read shorter than
    // the buffer found the pipe empty, so only a full read loops: one
    // syscall per wake instead of a second that returns EAGAIN.
    std::uint8_t buf[256];
    while (::read(wake_fds_[0], buf, sizeof(buf)) ==
           static_cast<ssize_t>(sizeof(buf))) {
    }
  }
  // Readable, per the kernel — the caller skips the receive drain
  // otherwise (a guaranteed-empty recv* call per iteration would be
  // pure syscall waste; new arrivals always re-arm POLLIN).
  return ret > 0 && (fds[1].revents & POLLIN) != 0;
}

void UdpTransport::loop() {
  std::vector<RxItem> items;
  // Sorted by id (copied from the map); rebuilt in place only when the
  // node set changed, so an idle iteration allocates nothing.
  std::vector<std::pair<ProcessId, UdpNode*>> snapshot;
  std::uint64_t snapshot_gen = 0;
  while (!stopping_.load()) {
    {
      util::MutexLock lock(state_mutex_);
      if (snapshot_gen != nodes_gen_) {
        snapshot.assign(nodes_.begin(), nodes_.end());
        snapshot_gen = nodes_gen_;
      }
      in_dispatch_ = true;
    }
    sim::Time now = steady_now_us();
    // Wake at the earliest pending deadline: the soonest RTO expiry or
    // delayed-ack window across every attached node's router, or the
    // node's protocol-tick boundary, whichever is first — capped by
    // kMaxIdleWait when nothing is due.
    sim::Time deadline = now + kMaxIdleWait;
    for (const auto& [id, node] : snapshot) {
      deadline = std::min(deadline, node->next_deadline(now));
    }
    const bool sock_readable =
        wait_events(deadline - now, /*poll_socket_rx=*/true);

    // Receive: burst-drain the loop's socket, then collect whatever the
    // shard threads handed over.
    items.clear();
    if (sock_readable) drain_socket(socket_.fd(), *loop_slots_, items);
    if (shard_threads_target_ > 0) {
      util::MutexLock lock(rxq_mutex_);
      if (items.empty()) {
        items.swap(rx_queue_);
      } else {
        items.insert(items.end(),
                     std::make_move_iterator(rx_queue_.begin()),
                     std::make_move_iterator(rx_queue_.end()));
        rx_queue_.clear();
      }
    }
    now = steady_now_us();
    for (auto& item : items) {
      const auto it = std::lower_bound(
          snapshot.begin(), snapshot.end(), item.dst,
          [](const auto& entry, ProcessId id) { return entry.first < id; });
      if (it == snapshot.end() || it->first != item.dst) {
        rx_unroutable_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      it->second->on_rx(item.src, std::move(item.payload), now);
    }
    // Application commands + protocol ticks, then the transmit flush:
    // batched payloads and deferred acks coalesce, retransmissions due
    // by now fire, and everything leaves in sendmmsg bursts.
    now = steady_now_us();
    for (const auto& [id, node] : snapshot) node->pump(now);
    now = steady_now_us();
    for (const auto& [id, node] : snapshot) node->flush(now);
    flush_tx();
    {
      util::MutexLock lock(state_mutex_);
      in_dispatch_ = false;
      ++dispatch_gen_;
    }
    detach_cv_.notify_all();
  }
  // Final flush so acks/data queued by the last iteration are not
  // silently stranded (best-effort; errors are loss as usual).
  flush_tx();
}

void UdpTransport::shard_loop(std::size_t shard) {
  RxSlots slots(cfg_.burst);
  const int fd = shard_sockets_[shard]->fd();
  std::vector<RxItem> items;
  while (!stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ret = ::poll(&pfd, 1, 100);
    if (ret <= 0 || (pfd.revents & POLLIN) == 0) continue;
    items.clear();
    drain_socket(fd, slots, items);
    if (items.empty()) continue;
    {
      util::MutexLock lock(rxq_mutex_);
      rx_queue_.insert(rx_queue_.end(),
                       std::make_move_iterator(items.begin()),
                       std::make_move_iterator(items.end()));
    }
    wake();
  }
}

// ---------------------------------------------------------------------------
// UdpNode

UdpNode::UdpNode(ProcessId id, std::uint16_t port, UdpNodeConfig config)
    : id_(id) {
  transport_ = std::make_shared<UdpTransport>(port, config.transport);
  owns_transport_ = true;
  init(std::move(config));
}

UdpNode::UdpNode(ProcessId id, std::shared_ptr<UdpTransport> transport,
                 UdpNodeConfig config)
    : id_(id), transport_(std::move(transport)) {
  NEWTOP_CHECK(transport_ != nullptr);
  init(std::move(config));
}

void UdpNode::init(UdpNodeConfig&& config) {
  cfg_ = std::move(config);
  pool_ = transport_->pool();
  cfg_.channel.pool = pool_;
  router_ = std::make_unique<Router>(
      id_, cfg_.channel,
      /*send=*/
      [this](PeerId to, util::Bytes data) {
        transport_->queue_send(id_, to, std::move(data));
      },
      /*deliver=*/
      [this](PeerId from, util::BytesView payload) {
        endpoint_->on_message(from, std::move(payload), now_us());
      });

  EndpointHooks hooks;
  hooks.send = [this](ProcessId to, util::SharedBytes data) {
    router_->send(to, std::move(data), now_us());
  };
  hooks.send_relay = [this](ProcessId to, util::BytesView data) {
    // Relay forward: the received slice re-enters the channel verbatim
    // (batched with anything else pending; the end-of-iteration flush
    // drains it into the same sendmmsg burst).
    router_->send_relayed(to, std::move(data), now_us());
  };
  hooks.on_event = [this](const Event& ev) {
    if (cfg_.on_event) cfg_.on_event(ev);
  };
  hooks.buffer_pool = pool_;
  endpoint_ = std::make_unique<Endpoint>(id_, cfg_.endpoint,
                                         std::move(hooks));
}

UdpNode::~UdpNode() { stop(); }

sim::Time UdpNode::now_us() const { return steady_now_us(); }

void UdpNode::add_peer(ProcessId peer, std::uint16_t port) {
  transport_->add_route(peer, port);
}

void UdpNode::start() {
  {
    util::MutexLock lock(mutex_);
    NEWTOP_CHECK(!attached_ && !stopped_);
    attached_ = true;
  }
  next_tick_ = 0;  // first pump ticks immediately, then every interval
  transport_->start();
  transport_->attach(this);
}

void UdpNode::stop() {
  bool was_attached = false;
  {
    util::MutexLock lock(mutex_);
    stopped_ = true;
    was_attached = attached_;
    attached_ = false;
  }
  if (was_attached) transport_->detach(this);
  if (owns_transport_) transport_->stop();
  // Drop commands that never ran: destroying them breaks their promises
  // / fires their completion guards, so a blocked GroupHandle call
  // unblocks (kNotMember) instead of hanging. Destroyed outside the
  // mutex — a completion callback may re-enter this node.
  std::deque<Command> dropped;
  {
    util::MutexLock lock(mutex_);
    dropped.swap(commands_);
  }
}

bool UdpNode::enqueue(Command fn) {
  {
    util::MutexLock lock(mutex_);
    if (!attached_) return false;
    commands_.push_back(std::move(fn));
  }
  transport_->wake();
  return true;
}

template <typename T, typename Fn>
T UdpNode::marshal(T fallback, Fn&& fn) {
  auto prom = std::make_shared<std::promise<T>>();
  std::future<T> fut = prom->get_future();
  const bool queued = enqueue(
      [prom, fn = std::forward<Fn>(fn)](Endpoint& e, sim::Time now) mutable {
        prom->set_value(fn(e, now));
      });
  if (!queued) return fallback;
  try {
    return fut.get();
  } catch (const std::future_error&) {
    return fallback;  // stop() dropped the command before it ran
  }
}

SendResult UdpNode::multicast_now(GroupId g, util::Bytes payload,
                                  sim::Time now) {
  const SendResult r = payload.size() > kMaxUdpPayload
                           ? SendResult::kTooLarge
                           : endpoint_->multicast(g, std::move(payload), now);
  util::MutexLock lock(log_mutex_);
  send_counts_.note(r);
  return r;
}

void UdpNode::on_rx(ProcessId from, util::BytesView payload, sim::Time now) {
  router_->on_datagram(from, std::move(payload), now);
}

void UdpNode::pump(sim::Time now) {
  {
    util::MutexLock lock(mutex_);
    running_.swap(commands_);
  }
  for (auto& cmd : running_) cmd(*endpoint_, now_us());
  running_.clear();
  // Protocol housekeeping (suspicion, omega, retention compaction) keeps
  // its coarse cadence; transport timers are handled in flush() every
  // iteration at deadline precision.
  if (now >= next_tick_) {
    endpoint_->on_tick(now);
    next_tick_ = now + cfg_.tick_interval;
  }
}

void UdpNode::flush(sim::Time now) {
  // Idle boundary: everything this iteration's inputs caused has been
  // processed — flush batched payloads, then let the router emit due
  // retransmissions and deferred acks. Running every iteration (not per
  // protocol tick) is what makes sub-millisecond adaptive RTOs real:
  // the loop wakes at the deadline and the expiry fires here.
  router_->flush_batches(now);
  router_->tick(now);
}

sim::Time UdpNode::next_deadline(sim::Time now) const {
  return std::min(next_tick_, router_->next_deadline(now));
}

void UdpNode::create_group(GroupId g, std::vector<ProcessId> members,
                           GroupOptions options) {
  enqueue(
      [g, members = std::move(members), options](Endpoint& e, sim::Time now) {
        e.create_group(g, members, options, now);
      });
}

void UdpNode::initiate_group(GroupId g, std::vector<ProcessId> members,
                             GroupOptions options) {
  enqueue(
      [g, members = std::move(members), options](Endpoint& e, sim::Time now) {
        e.initiate_group(g, members, options, now);
      });
}

void UdpNode::multicast(GroupId g, util::Bytes payload,
                        std::function<void(SendResult)> done) {
  // The guard reports kNotMember if the command is dropped here or by
  // stop(), so `done` runs exactly once either way.
  auto guard = std::make_shared<SendCompletion>();
  guard->fn = std::move(done);
  const bool queued = enqueue(
      [this, g, payload = std::move(payload), guard](Endpoint&,
                                                     sim::Time now) mutable {
        (*guard)(multicast_now(g, std::move(payload), now));
      });
  if (!queued) (*guard)(SendResult::kNotMember);
}

void UdpNode::leave_group(GroupId g) { group_leave(g); }

SendResult UdpNode::group_multicast(GroupId g, util::Bytes payload) {
  return marshal<SendResult>(
      SendResult::kNotMember,
      [this, g, payload = std::move(payload)](Endpoint&,
                                              sim::Time now) mutable {
        return multicast_now(g, std::move(payload), now);
      });
}

void UdpNode::group_leave(GroupId g) {
  enqueue([g](Endpoint& e, sim::Time now) { e.leave_group(g, now); });
}

std::optional<View> UdpNode::group_view(GroupId g) {
  // The view travels through a capture, not as marshal's result: GCC 12
  // misreports moving a disengaged std::optional<View> fallback as
  // maybe-uninitialized (a -Werror break in the TSan build). Once
  // marshal returns, the command has either run or been destroyed.
  std::optional<View> view;
  marshal<bool>(false, [g, &view](Endpoint& e, sim::Time) {
    if (const View* v = e.view(g)) view = *v;
    return true;
  });
  return view;
}

RetentionStats UdpNode::group_retention_stats(GroupId g) {
  return marshal<RetentionStats>(
      RetentionStats{},
      [g](Endpoint& e, sim::Time) { return e.retention_stats(g); });
}

bool UdpNode::group_join(GroupId g, JoinOptions opts) {
  return marshal<bool>(
      false,
      [g, opts = std::move(opts)](Endpoint& e, sim::Time now) mutable {
        return e.join_group(g, std::move(opts), now);
      });
}

SendCounts UdpNode::send_counts() const {
  util::MutexLock lock(log_mutex_);
  return send_counts_;
}

ChannelStats UdpNode::transport_stats() {
  ChannelStats s = marshal<ChannelStats>(
      {}, [this](Endpoint&, sim::Time) { return router_->total_stats(); });
  {
    // A node that is not running returns the default snapshot untouched
    // (the marshal above already fell back to it).
    util::MutexLock lock(mutex_);
    if (!attached_) return s;
  }
  // Overlay the socket-layer counters (transport-wide: shared by every
  // node on the transport).
  const TransportIoStats io = transport_->io_stats();
  s.tx_syscalls = io.tx_syscalls;
  s.rx_syscalls = io.rx_syscalls;
  s.tx_datagrams = io.tx_datagrams;
  s.rx_datagrams = io.rx_datagrams;
  s.rx_copies = io.rx_copies;
  s.wakeups = io.wakeups;
  return s;
}

EndpointStats UdpNode::endpoint_stats() {
  return marshal<EndpointStats>(
      {}, [](Endpoint& e, sim::Time) { return e.stats(); });
}

}  // namespace newtop::transport
