// The traced run: a single-threaded, in-process host owned by the
// benchmark. It wires one Endpoint + Router per group member through
// their public constructors and callbacks, exactly as the real hosts do
// (UdpNode: Router::send / send_relayed; SimProcess: send_buffered),
// delivers datagrams through an in-memory queue on a virtual clock, and
// records a span with its parent link around every call into a layer:
//
//   core.endpoint   multicast (tx) / on_message (rx) / on_tick (tick)
//   transport.router send* + flush_batches (tx) / on_datagram (rx) /
//                   tick + next_deadline (tick)
//   app.sink        the event sink (the benchmark's own recorder)
//
// Self time is a span's duration minus its children's. The replay runs
// three times: capturing every datagram (so core.wire decoding can be
// timed alone through the public decoders), untraced (the overhead
// baseline), and traced.
#include <cstdio>
#include <deque>
#include <memory>

#include "core/endpoint.h"
#include "core/wire.h"
#include "transport/router.h"
#include "util/buffer_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using newtop::Endpoint;
using newtop::EndpointHooks;
using newtop::util::Bytes;
using newtop::util::BytesView;
using newtop::util::SharedBytes;
namespace transport = newtop::transport;

enum Kind : std::uint8_t {
  kEpRx,
  kEpTx,
  kEpTick,
  kRtRx,
  kRtTx,
  kRtTick,
  kSink,
  kKinds
};

struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  Kind kind = kEpRx;
};

// Spans are aggregated into per-kind self time as they close (so the
// totals never depend on the storage cap) and kept in memory, up to the
// cap, for writing out at the end.
class Tracer {
 public:
  explicit Tracer(bool on, std::size_t cap) : on_(on), cap_(cap) {
    if (on_) spans_.reserve(cap_);
  }

  class Scope {
   public:
    Scope(Tracer& t, Kind k) : t_(t) {
      if (t_.on_) t_.open(k);
    }
    ~Scope() {
      if (t_.on_) t_.close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  double self_ns(Kind k) const { return self_[k]; }
  // Sum of the durations of spans with no parent.
  double top_ns() const { return top_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t dropped() const { return count_ - spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    std::int64_t begin_ns;
    std::int64_t child_ns;
    std::int32_t stored;  // index in spans_, or -1 past the cap
    Kind kind;
  };

  void open(Kind k) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
    std::int32_t idx = -1;
    const std::int64_t now = mono_ns();
    if (spans_.size() < cap_) {
      idx = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({now, 0, parent, k});
    }
    stack_.push_back({now, 0, idx, k});
    ++count_;
  }

  void close() {
    const std::int64_t now = mono_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now - o.begin_ns;
    self_[o.kind] += static_cast<double>(dur - o.child_ns);
    if (o.stored >= 0) spans_[o.stored].end_ns = now;
    if (stack_.empty()) {
      top_ += static_cast<double>(dur);
    } else {
      stack_.back().child_ns += dur;
    }
  }

  bool on_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  double self_[kKinds] = {};
  double top_ = 0;
  std::uint64_t count_ = 0;
};

class InProcessHost {
 public:
  InProcessHost(const WorkloadSpec& w, std::uint64_t seed, bool buffered,
                Tracer& tr, Recorder& rec, std::vector<Bytes>* capture)
      : w_(w),
        seed_(seed),
        buffered_(buffered),
        tr_(tr),
        rec_(rec),
        capture_(capture),
        pool_(std::make_shared<newtop::util::BufferPool>()) {
    procs_.resize(w.processes);
    for (const GroupSpec& g : w.groups) {
      for (ProcessId p : g.members) {
        if (!procs_[p].ep) build(p);
      }
    }
    for (const GroupSpec& g : w.groups) {
      newtop::GroupOptions o;
      o.mode = g.mode;
      o.dissemination = g.dissemination;
      o.relay_arity = g.relay_arity;
      o.delivery = g.delivery;
      for (ProcessId p : g.members) {
        procs_[p].ep->create_group(g.id, g.members, o, now_us_);
      }
    }
  }

  // Replays the sends at their due times (virtual µs, zero network
  // delay), then runs until everything is delivered or `drain_us` passes.
  void replay(const std::vector<PlannedSend>& sends,
              const std::vector<std::int64_t>& due_us, std::int64_t drain_us,
              std::uint64_t expected) {
    Bytes payload;
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const PlannedSend& s = sends[i];
      advance(due_us[i]);
      rec_.set_due(s.seq, due_us[i] * 1000);
      fill_payload(payload, s.seq, s.sender, w_.payload_bytes, seed_);
      {
        Tracer::Scope span(tr_, kEpTx);
        const auto r = procs_[s.sender].ep->multicast(
            w_.groups[s.group_index].id, std::move(payload), now_us_);
        rec_.set_verdict(s.seq, r);
      }
      payload = Bytes();
      pump();
    }
    const std::int64_t deadline = now_us_ + drain_us;
    while (delivered() < expected && now_us_ < deadline) {
      advance(std::min(deadline, now_us_ + kTickUs));
    }
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (ProcessId p = 0; p < procs_.size(); ++p) {
      if (procs_[p].ep) n += rec_.delivered(p);
    }
    return n;
  }

 private:
  static constexpr std::int64_t kTickUs = 5000;  // hosts' tick_interval

  struct Proc {
    std::unique_ptr<transport::Router> router;
    std::unique_ptr<Endpoint> ep;
    std::int64_t next_tick = 0;
  };
  struct Datagram {
    ProcessId from;
    ProcessId to;
    Bytes data;
  };

  void build(ProcessId self) {
    transport::ChannelConfig cc;
    cc.pool = pool_;
    Proc& proc = procs_[self];
    proc.router = std::make_unique<transport::Router>(
        self, cc,
        [this, self](transport::PeerId to, Bytes data) {
          if (capture_ != nullptr) capture_->push_back(data);
          net_.push_back({self, to, std::move(data)});
        },
        [this, self](transport::PeerId from, BytesView payload) {
          Tracer::Scope span(tr_, kEpRx);
          procs_[self].ep->on_message(from, std::move(payload), now_us_);
        });
    EndpointHooks hooks;
    hooks.send = [this, self](ProcessId to, SharedBytes data) {
      Tracer::Scope span(tr_, kRtTx);
      if (buffered_) {
        procs_[self].router->send_buffered(to, std::move(data), now_us_);
      } else {
        procs_[self].router->send(to, std::move(data), now_us_);
      }
    };
    hooks.send_relay = [this, self](ProcessId to, BytesView data) {
      Tracer::Scope span(tr_, kRtTx);
      procs_[self].router->send_relayed(to, std::move(data), now_us_);
    };
    hooks.on_event = [this, self](const newtop::Event& ev) {
      Tracer::Scope span(tr_, kSink);
      rec_.on_event(self, ev, now_us_ * 1000);
    };
    hooks.buffer_pool = pool_;
    proc.ep = std::make_unique<Endpoint>(self, newtop::Config{},
                                       std::move(hooks));
  }

  // One host-loop iteration's housekeeping, as UdpNode::pump/flush do it:
  // the protocol tick when due, then batch flush and transport timers.
  // Calls of one kind across members share a span: a span per tiny call
  // would cost more than the call.
  void housekeeping() {
    for (Proc& proc : procs_) {
      if (!proc.ep) continue;
      if (now_us_ >= proc.next_tick) {
        Tracer::Scope span(tr_, kEpTick);
        proc.ep->on_tick(now_us_);
        proc.next_tick = now_us_ + kTickUs;
      }
    }
    {
      Tracer::Scope span(tr_, kRtTx);
      for (Proc& proc : procs_) {
        if (proc.ep) proc.router->flush_batches(now_us_);
      }
    }
    Tracer::Scope span(tr_, kRtTick);
    for (Proc& proc : procs_) {
      if (proc.ep) proc.router->tick(now_us_);
    }
  }

  // Delivers queued datagrams in bursts until the network is quiet.
  void pump() {
    housekeeping();
    while (!net_.empty()) {
      std::deque<Datagram> burst;
      burst.swap(net_);
      for (Datagram& d : burst) {
        Proc& proc = procs_[d.to];
        if (!proc.ep) continue;
        Tracer::Scope span(tr_, kRtRx);
        proc.router->on_datagram(
            d.from, BytesView(pool_->share(std::move(d.data))), now_us_);
      }
      housekeeping();
    }
  }

  // Moves virtual time to `t`, stopping at every tick and transport
  // deadline on the way.
  void advance(std::int64_t t) {
    while (now_us_ < t) {
      std::int64_t next = t;
      {
        Tracer::Scope span(tr_, kRtTick);
        for (Proc& proc : procs_) {
          if (!proc.ep) continue;
          next = std::min(next, proc.next_tick);
          next = std::min(next, proc.router->next_deadline(now_us_));
        }
      }
      now_us_ = std::max(next, now_us_ + 1);
      pump();
    }
  }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  bool buffered_;
  Tracer& tr_;
  Recorder& rec_;
  std::vector<Bytes>* capture_;
  newtop::util::BufferPoolPtr pool_;
  std::vector<Proc> procs_;
  std::deque<Datagram> net_;
  std::int64_t now_us_ = 0;
};

// Decodes one protocol payload with the public decoders, recursing into
// containers; returns bytes touched so the work cannot be elided.
std::size_t decode_payload(const BytesView& v) {
  using newtop::MsgType;
  const auto type = newtop::peek_type(v.span());
  if (!type) return 0;
  switch (*type) {
    case MsgType::kApp:
    case MsgType::kNull:
    case MsgType::kLeave:
    case MsgType::kStartGroup:
    case MsgType::kJoinAnnounce: {
      const auto m = newtop::OrderedMsg::decode(v);
      return m ? m->payload.size() + 1 : 0;
    }
    case MsgType::kFwd: {
      const auto m = newtop::FwdMsg::decode(v);
      return m ? 1 : 0;
    }
    case MsgType::kBatch: {
      std::size_t n = 0;
      newtop::BatchFrame::for_each_payload(
          v, [&](BytesView sub) { n += decode_payload(sub); });
      return n;
    }
    case MsgType::kRelay: {
      const auto m = newtop::RelayFrame::decode(v);
      return m ? decode_payload(m->payload) + 1 : 0;
    }
    case MsgType::kRelayRepair:
      return newtop::RelayRepairMsg::decode(v) ? 1 : 0;
    case MsgType::kSuspect:
      return newtop::SuspectMsg::decode(v) ? 1 : 0;
    case MsgType::kRefute:
      return newtop::RefuteMsg::decode(v) ? 1 : 0;
    case MsgType::kConfirm:
      return newtop::ConfirmMsg::decode(v) ? 1 : 0;
    default:
      return 1;
  }
}

std::size_t decode_datagram(const SharedBytes& d) {
  const BytesView v(d);
  if (v.empty()) return 0;
  const auto kind = static_cast<newtop::ChannelPacketKind>(
      v[0] & ~newtop::kChannelTimingFlag);
  if (kind == newtop::ChannelPacketKind::kData) {
    const auto f = newtop::ChannelDataFrame::decode(v);
    return f ? decode_payload(f->payload) + 1 : 0;
  }
  return newtop::ChannelAckFrame::decode(v) ? 1 : 0;
}

struct Pass {
  double wall_ns = 0;
  std::uint64_t deliveries = 0;
};

Pass run_pass(const WorkloadSpec& w, const Plan& plan, std::uint64_t seed,
              bool buffered, Tracer& tr, std::vector<Bytes>* capture) {
  // Probe first (so the group is settled), then the reference phase and
  // the ladder back to back, each at its own offsets.
  std::vector<PlannedSend> sends;
  std::vector<std::int64_t> due;
  std::int64_t base_us = 0;
  for (const PhasePlan& ph : plan.phases) {
    if (ph.kind != PhaseKind::kProbe && ph.kind != PhaseKind::kRef &&
        ph.kind != PhaseKind::kStep) {
      continue;
    }
    for (const PlannedSend& s : ph.sends) {
      sends.push_back(s);
      due.push_back(base_us + s.offset_ns / 1000);
    }
    base_us += ph.kind == PhaseKind::kProbe ? 200000 : ph.length_ns / 1000;
  }
  std::uint64_t expected = 0;
  for (const PlannedSend& s : sends) {
    expected += w.groups[s.group_index].members.size();
  }
  Recorder rec(w, plan.total_seqs, seed);
  InProcessHost host(w, seed, buffered, tr, rec, capture);
  const std::int64_t t0 = mono_ns();
  host.replay(sends, due, 5000000, expected);
  Pass out;
  out.wall_ns = static_cast<double>(mono_ns() - t0);
  out.deliveries = host.delivered();
  return out;
}

void write_spans(const Tracer& tr, const std::string& path) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  static const char* kNames[kKinds] = {
      "core.endpoint.rx", "core.endpoint.tx", "core.endpoint.tick",
      "transport.router.rx", "transport.router.tx", "transport.router.tick",
      "app.sink"};
  std::fprintf(f, "# index parent kind begin_ns end_ns\n");
  const auto& spans = tr.spans();
  const std::int64_t base = spans.empty() ? 0 : spans.front().begin_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu %d %s %lld %lld\n", i, s.parent, kNames[s.kind],
                 static_cast<long long>(s.begin_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  std::fclose(f);
}

}  // namespace

TraceReport run_traced(const WorkloadSpec& w, const Plan& plan,
                       std::uint64_t seed, bool buffered,
                       const std::string& span_file) {
  TraceReport out;
  Tracer off(false, 0);

  // Capture pass first: it also warms caches and the allocator for the
  // two timed passes that follow.
  std::vector<Bytes> captured;
  captured.reserve(1 << 16);
  const Pass cap = run_pass(w, plan, seed, buffered, off, &captured);
  const Pass plain = run_pass(w, plan, seed, buffered, off, nullptr);
  Tracer on(true, std::size_t{1} << 21);
  const Pass traced = run_pass(w, plan, seed, buffered, on, nullptr);

  const double n = static_cast<double>(std::max<std::uint64_t>(
      traced.deliveries, 1));
  out.ep_rx_ns = on.self_ns(kEpRx) / n;
  out.ep_tx_ns = on.self_ns(kEpTx) / n;
  out.ep_tick_ns = on.self_ns(kEpTick) / n;
  out.rt_rx_ns = on.self_ns(kRtRx) / n;
  out.rt_tx_ns = on.self_ns(kRtTx) / n;
  out.rt_tick_ns = on.self_ns(kRtTick) / n;
  out.sink_ns = on.self_ns(kSink) / n;
  out.unexplained_share =
      traced.wall_ns > 0 ? 1.0 - on.top_ns() / traced.wall_ns : 0;
  out.overhead_share =
      plain.wall_ns > 0 ? (traced.wall_ns - plain.wall_ns) / plain.wall_ns
                        : 0;
  if (on.dropped() > 0) {
    std::fprintf(stderr, "perfbench: traced run kept %zu of %llu spans\n",
                 on.spans().size(),
                 static_cast<unsigned long long>(on.count()));
  }
  write_spans(on, span_file);

  // core.wire: decode every captured datagram again, alone.
  std::vector<SharedBytes> datagrams;
  datagrams.reserve(captured.size());
  for (Bytes& b : captured) {
    datagrams.push_back(newtop::util::share(std::move(b)));
  }
  std::size_t touched = 0;
  const std::int64_t t0 = mono_ns();
  for (const SharedBytes& d : datagrams) touched += decode_datagram(d);
  const double decode_ns = static_cast<double>(mono_ns() - t0);
  out.decode_ns =
      touched > 0 ? decode_ns / static_cast<double>(std::max<std::uint64_t>(
                                    cap.deliveries, 1))
                  : 0;
  return out;
}

}  // namespace perfbench
