// Endpoint implementation: construction, application API, the shared
// ordered-plane machinery (logical clock, delivery conditions
// safe1'/safe2, time-silence, stability) and message dispatch. The
// per-discipline ordering logic lives behind OrderingPlane
// (ordering_symmetric.cpp / ordering_asymmetric.cpp); the membership
// service and group formation live in endpoint_membership.cpp /
// endpoint_formation.cpp.
#include "core/endpoint.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace newtop {

namespace {

// Retention compaction threshold (see "Retention compaction" below): a
// long-lived slice is copied out once its backing buffer is more than
// this factor larger than the slice.
constexpr double kRetentionCompactRatio = 2.0;

std::vector<ProcessId> sorted_unique(std::vector<ProcessId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

Endpoint::Endpoint(ProcessId self, Config config, EndpointHooks hooks)
    : self_(self), cfg_(config), hooks_(std::move(hooks)) {
  NEWTOP_CHECK(hooks_.send != nullptr);
  NEWTOP_CHECK_MSG(hooks_.on_event != nullptr, "need an event sink");
  NEWTOP_CHECK_MSG(cfg_.omega_big > cfg_.omega, "need Omega > omega (§5.2)");
}

void Endpoint::flush_erasures() {
  for (GroupId g : pending_erase_) groups_.erase(g);
  pending_erase_.clear();
}

// ---------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------

void Endpoint::create_group(GroupId g, std::vector<ProcessId> members,
                            GroupOptions options, Time now) {
  Reentrancy scope(*this);
  NEWTOP_CHECK_MSG(find_group(g) == nullptr, "already a member of group");
  members = sorted_unique(std::move(members));
  NEWTOP_CHECK_MSG(std::count(members.begin(), members.end(), self_) == 1,
                   "create_group: self must be a member");
  auto [it, inserted] = groups_.try_emplace(g);
  NEWTOP_CHECK(inserted);
  GroupState& gs = it->second;
  gs.id = g;
  gs.opts = options;
  gs.plane = make_ordering_plane(options.mode, *this);
  gs.view.seq = 0;
  gs.view.members = std::move(members);
  gs.plan = DisseminationPlan::build(gs.opts, gs.view);
  gs.open = true;
  gs.last_sent = now;
  for (ProcessId p : gs.view.members) {
    if (p != self_) gs.last_activity[p] = now;
  }
}

SendResult Endpoint::multicast(GroupId g, util::Bytes payload, Time now) {
  Reentrancy scope(*this);
  GroupState* gs = find_group(g);
  if (gs == nullptr || (!gs->open && !gs->forming)) {
    return SendResult::kNotMember;
  }
  if (cfg_.max_pending_sends > 0 &&
      gs->pending_app >= cfg_.max_pending_sends) {
    // Window full: reject instead of queueing unboundedly. The reopening
    // is announced by exactly one SendWindowEvent (notify_send_windows).
    gs->window_closed = true;
    ++stats_.sends_rejected;
    return SendResult::kBackpressure;
  }
  pending_sends_.push_back(PendingSend{g, std::move(payload)});
  ++gs->pending_app;
  pump_sends(now);
  // The pump consumes strictly from the front; our entry was the back,
  // so an empty deque means everything — including it — was submitted.
  return pending_sends_.empty() ? SendResult::kSent : SendResult::kQueued;
}

void Endpoint::leave_group(GroupId g, Time now) {
  Reentrancy scope(*this);
  joining_.erase(g);  // a leave also abandons an in-flight join
  GroupState* gs = find_group(g);
  if (gs == nullptr) return;
  if (gs->open) {
    // Announce departure as the final ordered message; the Leave's number
    // is the ln other members will agree on (§5: departures are handled by
    // the same view-update machinery as failures).
    emit_ordered(*gs, MsgType::kLeave, {}, now);
  }
  gs->defunct = true;
  pending_erase_.push_back(g);
  // Drop queued deliveries and queued sends for the group. Sends are
  // removed outright: were they merely blanked, a later re-creation of
  // the same group id would submit them as spurious empty messages (and
  // their pops would corrupt the new membership's send-window counter).
  for (auto it = queue_.begin(); it != queue_.end();) {
    it = it->first.group == g ? queue_.erase(it) : std::next(it);
  }
  std::erase_if(pending_sends_,
                [g](const PendingSend& ps) { return ps.group == g; });
}

// ---------------------------------------------------------------------
// Transport / timer inputs
// ---------------------------------------------------------------------

void Endpoint::on_message(ProcessId from, util::BytesView data, Time now) {
  Reentrancy scope(*this);
  dispatch_message(from, data, now, /*allow_batch=*/true);
}

void Endpoint::dispatch_message(ProcessId from, const util::BytesView& data,
                                Time now, bool allow_batch) {
  const auto type = peek_type(data);
  if (!type) {
    NEWTOP_LOG_WARN("P%u: dropping malformed message from P%u", self_, from);
    return;
  }
  switch (*type) {
    case MsgType::kApp:
    case MsgType::kNull:
    case MsgType::kLeave:
    case MsgType::kStartGroup:
    case MsgType::kJoinAnnounce: {
      if (auto m = OrderedMsg::decode(data)) {
        process_ordered(from, *m, now, /*via_recovery=*/false);
      }
      break;
    }
    case MsgType::kFwd: {
      if (auto m = FwdMsg::decode(data)) {
        if (GroupState* gs = find_group(m->group)) {
          gs->plane->handle_fwd(*gs, *m, now);
        }
      }
      break;
    }
    case MsgType::kBatch: {
      if (!allow_batch) {
        // Second line of defense: BatchFrame::decode already rejects
        // nested frames, so this only fires if the wire rules drift.
        NEWTOP_LOG_WARN("P%u: dropping nested batch from P%u", self_, from);
        break;
      }
      // Streamed unwrap: validate-then-dispatch without materialising
      // the payload vector (one less allocation per batch datagram).
      BatchFrame::for_each_payload(data, [&](util::BytesView sub) {
        dispatch_message(from, sub, now, /*allow_batch=*/false);
      });
      break;
    }
    case MsgType::kRelay: {
      if (auto f = RelayFrame::decode(data)) {
        handle_relay(from, *f, data, now);
      } else {
        ++stats_.relay_drops;
      }
      break;
    }
    case MsgType::kRelayRepair: {
      if (auto m = RelayRepairMsg::decode(data))
        handle_relay_repair(from, *m, now);
      break;
    }
    case MsgType::kSuspect: {
      if (auto m = SuspectMsg::decode(data)) {
        // Membership traffic racing a joiner's welcome is replayed once
        // the welcome installs the view (same for refute/confirm below).
        if (find_group(m->group) == nullptr &&
            stash_prewelcome(from, m->group, data)) {
          break;
        }
        handle_suspect(from, *m, now);
      }
      break;
    }
    case MsgType::kRefute: {
      if (auto m = RefuteMsg::decode(data)) {
        if (find_group(m->group) == nullptr &&
            stash_prewelcome(from, m->group, data)) {
          break;
        }
        handle_refute(from, *m, now);
      }
      break;
    }
    case MsgType::kConfirm: {
      if (auto m = ConfirmMsg::decode(data)) {
        if (find_group(m->group) == nullptr &&
            stash_prewelcome(from, m->group, data)) {
          break;
        }
        handle_confirm(from, *m, now);
      }
      break;
    }
    case MsgType::kFormInvite: {
      if (auto m = FormInviteMsg::decode(data))
        handle_form_invite(from, *m, now);
      break;
    }
    case MsgType::kFormReply: {
      if (auto m = FormReplyMsg::decode(data))
        handle_form_reply(from, *m, now);
      break;
    }
    case MsgType::kJoinRequest: {
      if (auto m = JoinRequestMsg::decode(data))
        handle_join_request(from, *m, now);
      break;
    }
    case MsgType::kJoinWelcome: {
      if (auto m = JoinWelcomeMsg::decode(data))
        handle_join_welcome(from, *m, now);
      break;
    }
    case MsgType::kSnapshot: {
      if (auto m = SnapshotFrame::decode(data)) handle_snapshot(from, *m, now);
      break;
    }
  }
}

void Endpoint::on_tick(Time now) {
  Reentrancy scope(*this);
  // Iterate over a snapshot of ids: handlers may mutate the group map.
  // (Scratch steal/return: the snapshot reuses one vector's capacity
  // across ticks instead of allocating every 5ms.)
  std::vector<GroupId> ids = std::move(tick_ids_scratch_);
  ids.clear();
  ids.reserve(groups_.size());
  for (const auto& [g, gs] : groups_) ids.push_back(g);
  for (GroupId g : ids) {
    GroupState* gs = find_group(g);
    if (gs == nullptr) continue;
    const bool live = gs->open || (gs->forming && gs->forming->activated);
    if (live) {
      // Time-silence (§4.1): stay lively so that every member's receive
      // vector entries — and hence D — keep advancing. The plane knows
      // which roles are exempt (§4.2: failure-free asymmetric
      // non-sequencers).
      if (gs->plane->runs_time_silence(*gs) &&
          now - gs->last_sent >= cfg_.omega) {
        emit_ordered(*gs, MsgType::kNull, {}, now);
      }
      if (!gs->opts.failure_free) tick_suspector(*gs, now);
    }
    if (gs->forming) tick_formation(*gs, now);
  }
  tick_join(now);
  // Replies buffered for invitations that never arrived (lost initiator,
  // stale group ids) are dropped once the formation window has passed.
  for (auto it = early_replies_.begin(); it != early_replies_.end();) {
    auto& replies = it->second;
    std::erase_if(replies, [&](const EarlyReply& r) {
      return now - r.at >= 2 * cfg_.formation_timeout;
    });
    it = replies.empty() ? early_replies_.erase(it) : std::next(it);
  }
  // Anything still retained/held/queued now has survived at least one
  // tick: long-lived enough to be worth copying out of an oversized
  // backing buffer.
  compact_retention();
  pump_sends(now);
  tick_ids_scratch_ = std::move(ids);
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

const View* Endpoint::view(GroupId g) const {
  const GroupState* gs = find_group(g);
  return gs != nullptr ? &gs->view : nullptr;
}

SignatureView Endpoint::signature_view(GroupId g) const {
  SignatureView sv;
  if (const GroupState* gs = find_group(g)) {
    for (ProcessId p : gs->view.members) {
      sv.signatures.emplace_back(p, gs->excluded_count);
    }
  }
  return sv;
}

std::vector<GroupId> Endpoint::group_ids() const {
  std::vector<GroupId> out;
  for (const auto& [g, gs] : groups_) {
    if (!gs.defunct) out.push_back(g);
  }
  return out;
}

ProcessId Endpoint::sequencer_of(GroupId g) const {
  const GroupState* gs = find_group(g);
  return gs != nullptr ? newtop::sequencer_of(gs->view) : kNoProcess;
}

bool Endpoint::open_for_app(GroupId g) const {
  const GroupState* gs = find_group(g);
  return gs != nullptr && gs->open;
}

Counter Endpoint::group_d(GroupId g) const {
  const GroupState* gs = find_group(g);
  return gs != nullptr ? group_d(*gs) : 0;
}

Counter Endpoint::global_d() const {
  Counter di = kCounterMax;
  for (const auto& [g, gs] : groups_) {
    if (counts_for_global_d(gs)) di = std::min(di, group_d(gs));
  }
  return di;
}

std::size_t Endpoint::retained_messages(GroupId g) const {
  const GroupState* gs = find_group(g);
  if (gs == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& [p, msgs] : gs->retained) n += msgs.size();
  return n;
}

RetentionStats Endpoint::retention_stats(GroupId g) const {
  RetentionStats out;
  const GroupState* gs = find_group(g);
  if (gs == nullptr) return out;
  // Distinct backing allocations: many slices (of one BatchFrame, say)
  // pin one buffer — count it once.
  std::set<const util::Bytes*> seen;
  auto note = [&](const util::BytesView& v) {
    out.used_bytes += v.size();
    const util::SharedBytes& buf = v.buffer();
    if (buf != nullptr && seen.insert(buf.get()).second) {
      out.pinned_bytes += buf->size();
    }
  };
  auto note_msg = [&](const OrderedMsg& m) {
    note(m.raw);
    if (m.payload.buffer() != nullptr &&
        m.payload.buffer() != m.raw.buffer()) {
      note(m.payload);
    }
  };
  for (const auto& [p, msgs] : gs->retained) {
    for (const auto& [c, v] : msgs) {
      ++out.retained_msgs;
      note(v);
    }
  }
  for (const auto& [p, held] : gs->gv.pending) {
    for (const auto& m : held) {
      ++out.held_msgs;
      note_msg(m);
    }
  }
  for (const auto& [key, m] : queue_) {
    if (key.group != g) continue;
    ++out.queued_msgs;
    note_msg(m);
  }
  return out;
}

bool Endpoint::suspects(GroupId g, ProcessId p) const {
  const GroupState* gs = find_group(g);
  if (gs == nullptr) return false;
  for (const auto& s : gs->gv.suspicions) {
    if (s.process == p) return true;
  }
  return false;
}

std::size_t Endpoint::own_unstable(GroupId g) const {
  const GroupState* gs = find_group(g);
  return gs != nullptr ? gs->plane->own_unstable(*gs) : 0;
}

// ---------------------------------------------------------------------
// PlaneHost services
// ---------------------------------------------------------------------

Counter Endpoint::ldn(const GroupCtx& g) const {
  return group_d(static_cast<const GroupState&>(g));
}

void Endpoint::unicast(ProcessId to, util::SharedBytes raw) {
  hooks_.send(to, std::move(raw));
}

util::Bytes Endpoint::obtain_buffer(std::size_t reserve) {
  return util::BufferPool::acquire_from(hooks_.buffer_pool, reserve);
}

util::SharedBytes Endpoint::share_buffer(util::Bytes b) {
  return util::BufferPool::share_into(hooks_.buffer_pool, std::move(b));
}

void Endpoint::fan_out(const GroupCtx& g, const util::SharedBytes& raw) {
  const GroupState& gs = static_cast<const GroupState&>(g);
  if (gs.plan.relaying() && gs.open && !raw->empty()) {
    // Only steady-state ordered traffic (multicasts and time-silence
    // nulls) rides the overlay. Leaves and start-groups stay direct:
    // their correctness windows overlap view agreement and formation,
    // exactly when overlays are in flux. Control-plane messages
    // (suspect/refute/confirm) also fan out through here and stay
    // direct — routing failure agreement through relays whose liveness
    // is the question would be circular.
    const auto t = static_cast<MsgType>((*raw)[0]);
    if (t == MsgType::kApp || t == MsgType::kNull) {
      relay_fan_out(gs, raw);
      return;
    }
  }
  for (ProcessId p : g.view.members) {
    if (p != self_) hooks_.send(p, raw);
  }
}

void Endpoint::relay_fan_out(const GroupState& gs,
                             const util::SharedBytes& raw) {
  const auto hops = gs.plan.next_hops(
      self_, self_, [&](ProcessId p) { return relay_skip(gs, p); });
  // Wrap the one shared encoding once; every relay hop forwards this
  // exact byte string (encode-once: relays re-send the received slice,
  // they never re-encode). Routed-around hops get the same wrapped frame
  // directly — every copy in a relaying group carries the seq, so
  // receivers gate all arrivals of this stream uniformly.
  RelayFrame f;
  f.group = gs.id;
  f.origin = self_;
  f.payload = util::BytesView(raw);
  if (static_cast<MsgType>((*raw)[0]) == MsgType::kApp) {
    // Stamp the dense relay sequence (GroupCtx::relay_seq_next) and
    // remember counter -> seq so repairs can re-wrap retained encodings
    // at the original number. fan_out is const in the plane interface,
    // but origin-side stamping must advance group state.
    auto& mut = const_cast<GroupState&>(gs);
    f.seq = ++mut.relay_seq_next;
    if (const auto inner = OrderedMsg::decode(f.payload))
      mut.relay_seq_of[inner->counter] = f.seq;
  } else {
    // Nulls don't consume a seq; they carry the current frontier. That
    // makes tail loss visible: if every content frame after some point
    // died with a crashed relay, no jumped frame ever arrives to expose
    // the gap — but the ω-periodic nulls keep announcing how far the
    // content stream actually extends.
    f.seq = gs.relay_seq_next;
  }
  const util::SharedBytes enc =
      share_buffer(f.encode(obtain_buffer(raw->size() + 24)));
  for (ProcessId p : hops.relay) hooks_.send(p, enc);
  for (ProcessId p : hops.direct) hooks_.send(p, enc);
  ++stats_.relays_originated;
  stats_.relay_direct_sends += hops.direct.size();
}

void Endpoint::relay_resend(ProcessId to, const util::BytesView& slice) {
  if (hooks_.send_relay) {
    hooks_.send_relay(to, slice);
    return;
  }
  hooks_.send(to, pooled_copy(slice));
}

bool Endpoint::relay_skip(const GroupState& gs, ProcessId p) const {
  return gs.left.count(p) > 0 || has_suspicion_on(gs, p) ||
         in_pending_wave(gs, p);
}

void Endpoint::handle_relay(ProcessId from, const RelayFrame& f,
                            const util::BytesView& frame_raw, Time now) {
  GroupState* gs = find_group(f.group);
  if (gs == nullptr) {
    ++stats_.relay_drops;
    return;
  }
  const auto inner = OrderedMsg::decode(f.payload);
  // The origin of a relay frame is the process whose fan-out produced it
  // — always the wrapped message's emitter. A mismatch is a forged or
  // corrupted attribution; drop rather than credit liveness wrongly.
  if (!inner || inner->group != f.group || inner->emitter != f.origin) {
    ++stats_.relay_drops;
    return;
  }
  if (f.origin == self_) return;  // full circle: already processed at emit
  (void)from;
  // Forward before local processing (pipelining: downstream hops overlap
  // our ordering work). Dedup per origin — only stream-advancing frames
  // propagate, so duplicates and overlay repairs cannot amplify.
  if (gs->plan.relaying() && gs->view.contains(f.origin)) {
    Counter& fwd = gs->relay_forwarded[f.origin];
    if (inner->counter > fwd) {
      fwd = inner->counter;
      const auto hops = gs->plan.next_hops(
          self_, f.origin, [&](ProcessId p) { return relay_skip(*gs, p); });
      for (ProcessId p : hops.relay) relay_resend(p, frame_raw);
      for (ProcessId p : hops.direct) relay_resend(p, frame_raw);
      if (!hops.relay.empty() || !hops.direct.empty())
        ++stats_.relays_forwarded;
      stats_.relay_direct_sends += hops.direct.size();
    }
  }
  // Local processing, attributed to the origin (an overlay arrival is
  // the same liveness evidence as a direct one — without this, Ω would
  // fire on every origin more than one hop away), gated by the dense
  // relay sequence. The ordered counters are Lamport values and jump
  // legitimately; the seq is contiguous by construction, so a jump here
  // is proof a relay crashed between receive and forward and the missing
  // messages are gone end-to-end. Letting the receive vector skip them
  // would stabilise — and release from retention — messages this process
  // never saw.
  Counter& seen = gs->relay_seen[f.origin];
  if (inner->type == MsgType::kNull) {
    // Frontier-carrying null (seq = the origin's last stamped content
    // seq; nulls are never retained or repaired themselves). At or
    // below our front it is ordinary liveness traffic. Above it, it
    // announces content we never saw — and its own counter out-runs the
    // missing messages, so processing it would let the receive vector
    // skip them: drop it (the arrival itself was the liveness evidence)
    // and fetch the range. Exception: if the receive vector already
    // covers every counter the hole could hide (refute recovery or a
    // view-install floor got there first), the hole is empty — jump.
    if (f.seq > seen && inner->counter > gs->plane->rv(f.origin) + 1) {
      gs->last_activity[f.origin] = now;
      request_relay_repair(*gs, f.origin, seen);
      return;
    }
    if (f.seq > seen) seen = f.seq;
    process_ordered(f.origin, *inner, now, /*via_recovery=*/false);
    relay_drain_stash(f.group, f.origin, now);
    return;
  }
  if (f.seq <= seen) return;  // duplicate (overlay re-route or repair echo)
  if (f.seq == seen + 1) {
    seen = f.seq;
    process_ordered(f.origin, *inner, now, /*via_recovery=*/false);
    relay_drain_stash(f.group, f.origin, now);
    return;
  }
  // Gap: stash by seq and ask the origin to re-send its retained stream
  // above our receive vector, re-wrapped at the original seqs. Our rv
  // stays below the missing messages, which keeps them unstable (§5.1) —
  // and therefore retained — at the origin, so the repair can always be
  // served. Stash is bounded; overflow drops are safe (repair re-sends).
  constexpr std::size_t kMaxStashPerOrigin = 4096;
  gs->last_activity[f.origin] = now;
  if (f.seq > seen + kMaxStashPerOrigin) {
    // Further ahead than the stash window could ever hold (a lagging
    // receiver under an unbounded flow window, or a corrupt seq). Drop
    // the frame — repair re-sends cover it — but still ask for the
    // front; in-order fills are the only way to catch up from here.
    ++stats_.relay_drops;
    request_relay_repair(*gs, f.origin, seen);
    return;
  }
  auto& stash = gs->relay_stash[f.origin];
  if (stash.size() < kMaxStashPerOrigin &&
      stash.emplace(f.seq, *inner).second) {
    ++stats_.relay_gap_stashed;
  }
  // The drain resolves the stash front: jump over holes whose content
  // provably reached us another way, or issue the damped repair request.
  relay_drain_stash(f.group, f.origin, now);
}

void Endpoint::handle_relay_repair(ProcessId from, const RelayRepairMsg& msg,
                                   Time now) {
  GroupState* gs = find_group(msg.group);
  if (gs == nullptr || !gs->view.contains(from)) return;
  gs->last_activity[from] = now;
  // Only the emitter itself serves repairs: relay_seq_of maps our own
  // counters to the seqs we stamped, and only those re-wraps are
  // guaranteed to match what the requester's gate is waiting for.
  if (msg.emitter != self_) return;
  const auto it = gs->retained.find(self_);
  if (it == gs->retained.end()) return;
  // Direct re-sends off the overlay (the requester's route through the
  // overlay just lost these), re-wrapped at the original seq so the
  // fills close the gap exactly. Bounded burst: a partial fill advances
  // the requester's front, which re-arms its damping and fetches more.
  constexpr std::size_t kMaxRepairBurst = 256;
  std::size_t sent = 0;
  for (auto mit = it->second.upper_bound(msg.have);
       mit != it->second.end() && sent < kMaxRepairBurst; ++mit) {
    const auto qit = gs->relay_seq_of.find(mit->first);
    if (qit == gs->relay_seq_of.end()) continue;  // direct-only (Leave)
    RelayFrame f;
    f.group = gs->id;
    f.origin = self_;
    f.seq = qit->second;
    f.payload = mit->second;
    hooks_.send(from,
                share_buffer(f.encode(obtain_buffer(f.payload.size() + 24))));
    ++sent;
  }
  if (sent > 0) ++stats_.relay_repairs_served;
}

void Endpoint::request_relay_repair(GroupState& gs, ProcessId origin,
                                    Counter seen) {
  Counter& asked = gs.relay_repair_asked[origin];
  if (asked == seen + 1) return;  // one request per distinct gap front
  asked = seen + 1;
  RelayRepairMsg r;
  r.group = gs.id;
  r.emitter = origin;
  r.have = gs.plane->rv(origin);
  hooks_.send(origin, share_buffer(r.encode(obtain_buffer(24))));
  ++stats_.relay_repairs_requested;
}

void Endpoint::relay_drain_stash(GroupId g, ProcessId origin, Time now) {
  GroupState* gs = find_group(g);
  while (gs != nullptr) {
    const auto sit = gs->relay_stash.find(origin);
    if (sit == gs->relay_stash.end() || sit->second.empty()) return;
    Counter& seen = gs->relay_seen[origin];
    const auto mit = sit->second.begin();
    if (mit->first <= seen) {  // stale: landed in-order meanwhile
      sit->second.erase(mit);
      continue;
    }
    if (mit->first > seen + 1) {
      // Seqs are stamped in emission order, so every seq behind the hole
      // carries a smaller counter than the front entry. If the receive
      // vector already covers those counters, they reached us by a path
      // with its own completeness guarantee (refute recovery's
      // claimed_last, or a view-install floor) — the hole hides nothing
      // and the front is safe to jump to.
      if (mit->second.counter <= gs->plane->rv(origin) + 1) {
        seen = mit->first - 1;
        continue;
      }
      // Genuinely gapped: ask the origin to re-send its retained stream
      // above our receive vector, re-wrapped at the original seqs.
      request_relay_repair(*gs, origin, seen);
      return;
    }
    seen = mit->first;
    const OrderedMsg m = std::move(mit->second);
    sit->second.erase(mit);
    process_ordered(origin, m, now, /*via_recovery=*/false);
    gs = find_group(g);  // processing may have re-entered membership
  }
}

void Endpoint::loop_back(const OrderedMsg& m, Time now) {
  process_ordered(self_, m, now, /*via_recovery=*/false);
}

void Endpoint::multicast_self(GroupCtx& g, MsgType type,
                              util::Bytes payload, Time now) {
  emit_ordered(static_cast<GroupState&>(g), type, std::move(payload), now);
}

void Endpoint::sends_unblocked(Time now) { pump_sends(now); }

// ---------------------------------------------------------------------
// Shared ordered-plane machinery
// ---------------------------------------------------------------------

Endpoint::GroupState* Endpoint::find_group(GroupId g) {
  auto it = groups_.find(g);
  return (it != groups_.end() && !it->second.defunct) ? &it->second
                                                      : nullptr;
}

const Endpoint::GroupState* Endpoint::find_group(GroupId g) const {
  auto it = groups_.find(g);
  return (it != groups_.end() && !it->second.defunct) ? &it->second
                                                      : nullptr;
}

bool Endpoint::counts_for_global_d(const GroupState& gs) const {
  if (gs.defunct) return false;
  if (gs.opts.guarantee != Guarantee::kTotalOrder) return false;
  return gs.open || (gs.forming && gs.forming->activated);
}

Counter Endpoint::group_d(const GroupState& gs) const {
  // During the start-group wait (§5.3 step 5) D is pinned to the largest
  // start-number seen so far.
  if (gs.forming && gs.forming->activated) return gs.forming->start_max;
  return gs.plane->group_d(gs);
}

void Endpoint::emit_ordered(GroupState& gs, MsgType type,
                            util::Bytes payload, Time now) {
  const Counter c = lc_.stamp_send();  // CA1
  OrderedMsg m;
  m.type = type;
  m.group = gs.id;
  m.sender = self_;
  m.emitter = self_;
  m.counter = c;
  m.origin_counter = 0;
  m.ldn = group_d(gs);  // §5.1 stability piggyback
  // Pool the payload's shared wrapper too (empty payloads — nulls,
  // leaves — need no buffer at all).
  if (!payload.empty()) {
    m.payload = util::BytesView(share_buffer(std::move(payload)));
  }
  gs.last_sent = now;
  if (type == MsgType::kApp) ++stats_.app_multicasts;
  if (type == MsgType::kNull) ++stats_.nulls_sent;
  // Encode once (into recycled storage when the host provides a pool);
  // the same buffer fans out to every peer and, via m.raw, backs the
  // local loop-back's retention/recovery slice.
  const util::SharedBytes enc =
      share_buffer(m.encode(obtain_buffer(m.payload.size() + 24)));
  m.raw = enc;
  fan_out(gs, enc);
  // "Pi delivers its own messages also by executing the protocol" §3.
  process_ordered(self_, m, now, /*via_recovery=*/false);
}

void Endpoint::process_ordered(ProcessId link_from, const OrderedMsg& incoming,
                               Time now, bool via_recovery) {
  GroupState* gs = find_group(incoming.group);
  if (gs == nullptr) {
    // A joiner awaiting its welcome cannot order this yet, but will be
    // able to the moment the welcome installs the view: buffer the raw
    // encoding and replay it then.
    stash_prewelcome(link_from, incoming.group, incoming.raw);
    return;  // not (or not yet) a member
  }

  if (incoming.type == MsgType::kStartGroup) {
    handle_start_group(*gs, incoming, now);
    return;
  }

  // "Pi discards any messages received from Pk ... if Pk ∉ Vi" (§5.2).
  if (!gs->view.contains(incoming.emitter) ||
      !gs->view.contains(incoming.sender)) {
    ++stats_.messages_discarded;
    return;
  }

  // §5.2 (viii): once a detection is agreed, messages from failed
  // processes numbered above lnmn are discarded — even if legitimately
  // sent before the failure (Example 1; required for MD5).
  if (gs->installing && incoming.counter > gs->installing->lnmn) {
    const auto& failed = gs->installing->failed;
    if (std::count(failed.begin(), failed.end(), incoming.sender) > 0 ||
        std::count(failed.begin(), failed.end(), incoming.emitter) > 0) {
      ++stats_.messages_discarded;
      return;
    }
  }

  // Copy-out ownership modes: detach the message from its arrival
  // datagram before anything (hold / queue / retention / delivery) can
  // retain a slice of it, so the datagram is released when its handling
  // returns. Self-emitted messages keep their raw encoding (the
  // transport's retransmission queue pins that buffer regardless), but a
  // payload that is a strict slice of some other arrival (a sequencer
  // echo reusing the received forward's payload) is still copied out.
  OrderedMsg detached;
  const OrderedMsg& msg = [&]() -> const OrderedMsg& {
    if (gs->opts.delivery == DeliveryMode::kZeroCopySlice) return incoming;
    // Nulls are never retained, queued or delivered; copying them would
    // tax every heartbeat for nothing. The one path that does keep a
    // null past its handling — the suspicion hold — only exists while a
    // suspicion is live, so only then is the copy owed.
    if (incoming.type == MsgType::kNull && gs->gv.suspicions.empty()) {
      return incoming;
    }
    const bool foreign = link_from != self_;
    const util::SharedBytes& pbuf = incoming.payload.buffer();
    const bool split_slice = pbuf != nullptr &&
                             pbuf != incoming.raw.buffer() &&
                             incoming.payload.size() < pbuf->size();
    if (!foreign && !split_slice) return incoming;
    detached = incoming;
    detach_arrival(detached, /*copy_raw=*/foreign);
    return detached;
  }();

  // Messages from a currently-suspected process are held pending the
  // agreement outcome (§5.2), unless self_refute lets fresh evidence
  // cancel our own suspicion immediately.
  if (!via_recovery) {
    for (const auto& s : gs->gv.suspicions) {
      if (s.process == msg.emitter && msg.counter > s.ln) {
        if (cfg_.self_refute) {
          resolve_refuted(*gs, s, now);  // also re-broadcasts the refute
          break;
        }
        ++stats_.pending_held;
        gs->gv.pending[msg.emitter].push_back(msg);
        return;
      }
    }
  }

  lc_.observe(msg.counter);  // CA2

  // Stream dedup, receive-vector advance and discipline-specific
  // attribution live in the ordering plane. kStale is a pure duplicate;
  // kEchoDup still advances clocks and stability below but carries no new
  // content. Note the plane may re-enter pump_sends (an echo clearing the
  // blocking rule); group nodes are stable and erasures deferred, so `gs`
  // stays valid.
  const OrderingPlane::Accept verdict = gs->plane->accept(*gs, msg, now);
  if (verdict == OrderingPlane::Accept::kStale) return;
  const bool duplicate_echo = verdict == OrderingPlane::Accept::kEchoDup;

  // Stability (§5.1): m.ldn is the emitter's D at transmission.
  Counter& sv = gs->sv[msg.emitter];
  sv = std::max(sv, msg.ldn);
  advance_stability(*gs);

  if (!via_recovery && link_from != self_) {
    gs->last_activity[link_from] = now;
  }

  // Retain unstable content-bearing messages for refute piggybacking: a
  // reference to the received encoding, not a re-encoding of it.
  if (msg.type != MsgType::kNull && !duplicate_echo) {
    gs->retained[msg.emitter][msg.counter] =
        msg.raw.empty() ? util::BytesView(msg.encode()) : msg.raw;
  }

  switch (msg.type) {
    case MsgType::kNull:
      break;
    case MsgType::kLeave:
      if (msg.sender != self_) {
        gs->left.insert(msg.sender);
        // Graceful departure: inject the suspicion all members will share
        // ({Pk, leave.c}) without waiting the Ω silence out.
        add_suspicion(*gs, Suspicion{msg.sender, msg.counter}, now);
        gs = find_group(msg.group);  // agreement may have re-entered
        if (gs == nullptr) return;
      }
      break;
    case MsgType::kApp:
      if (duplicate_echo) break;
      if (gs->opts.guarantee == Guarantee::kAtomicOnly) {
        deliver_app(*gs, msg);
      } else {
        queue_.emplace(QueueKey{msg.counter, msg.group, msg.sender}, msg);
      }
      break;
    case MsgType::kJoinAnnounce:
      // The announce takes effect at its *delivery* position — that
      // position is the cutover stamp, so it must ride the queue like an
      // application message (join is only served for total-order groups;
      // a stray announce in an atomic-only group applies immediately).
      if (duplicate_echo) break;
      if (gs->opts.guarantee == Guarantee::kAtomicOnly) {
        handle_join_announce(*gs, msg, now);
        gs = find_group(msg.group);
        if (gs == nullptr) return;
      } else {
        queue_.emplace(QueueKey{msg.counter, msg.group, msg.sender}, msg);
      }
      break;
    default:
      break;
  }

  pump_deliveries(now);
  gs = find_group(msg.group);  // delivery callbacks may re-enter
  if (gs == nullptr) return;
  if (gs->installing) try_complete_barrier(*gs, now);
  if (gs->forming) maybe_complete_formation(*gs, now);
}

void Endpoint::deliver_app(const GroupState& gs, const OrderedMsg& msg) {
  NEWTOP_DCHECK(gs.view.contains(msg.sender));  // MD1
  Delivery d;
  d.group = gs.id;
  d.sender = msg.sender;
  d.counter = msg.counter;
  d.view_seq = gs.view.seq;
  d.payload = msg.payload;
  ++stats_.deliveries;
  emit_event(Event(DeliveryEvent{std::move(d)}));
}

// ---------------------------------------------------------------------
// Unified event stream
// ---------------------------------------------------------------------

void Endpoint::emit_event(const Event& ev) {
  hooks_.on_event(ev);
}

util::SharedBytes Endpoint::pooled_copy(const util::BytesView& v) {
  util::Bytes b = obtain_buffer(v.size());
  b.assign(v.begin(), v.end());
  return share_buffer(std::move(b));
}

void Endpoint::detach_arrival(OrderedMsg& m, bool copy_raw) {
  auto copy = [&](const util::BytesView& v) -> util::BytesView {
    ++stats_.arrival_detach_copies;
    return util::BytesView(pooled_copy(v));
  };
  // payload is (normally) a sub-slice of raw; preserve the sharing so the
  // detached message still pins exactly one right-sized buffer.
  const bool nested =
      m.payload.buffer() != nullptr && m.payload.buffer() == m.raw.buffer();
  if (copy_raw && !m.raw.empty()) {
    const std::size_t off =
        nested ? static_cast<std::size_t>(m.payload.data() - m.raw.data())
               : 0;
    m.raw = copy(m.raw);
    if (nested) m.payload = m.raw.subview(off, m.payload.size());
  }
  if (!nested && !m.payload.empty()) m.payload = copy(m.payload);
}

void Endpoint::pump_deliveries(Time now) {
  // safe1' + safe2: deliver queued messages with m.c <= Di, in
  // (counter, group, sender) order.
  while (!queue_.empty()) {
    const QueueKey key = queue_.begin()->first;
    if (key.counter > global_d()) break;
    GroupState* gs = find_group(key.group);
    if (gs == nullptr) {
      queue_.erase(queue_.begin());
      continue;
    }
    OrderedMsg msg = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    // The pop position is the stream cut a snapshot serve is stamped
    // with: provider state = every delivery at or before this key.
    gs->last_delivered_c = key.counter;
    gs->last_delivered_s = key.sender;
    // A joiner between welcome and snapshot install diverts: deliveries
    // at or before the stamp are covered by the snapshot (drop), later
    // application messages wait in the stash until it installs.
    const auto jit = joining_.find(key.group);
    if (jit != joining_.end() && jit->second.welcomed) {
      JoinState& js = jit->second;
      if (key.counter < js.stamp_counter ||
          (key.counter == js.stamp_counter &&
           key.sender <= js.stamp_sender)) {
        ++stats_.join_covered_dropped;
        continue;  // snapshot-covered
      }
      if (msg.type == MsgType::kApp) {
        JoinState::StashedDelivery sd;
        sd.sender = msg.sender;
        sd.counter = msg.counter;
        sd.view_seq = gs->view.seq;
        sd.payload.assign(msg.payload.begin(), msg.payload.end());
        js.stash.push_back(std::move(sd));
        ++stats_.join_stash_deliveries;
        continue;
      }
      // A post-stamp announce for *another* joiner: the view must grow
      // here too (we are an incumbent from its perspective); our own
      // serve duties defer until we are caught up (maybe_serve_joins).
    }
    if (msg.type == MsgType::kJoinAnnounce) {
      handle_join_announce(*gs, msg, now);
      continue;
    }
    deliver_app(*gs, msg);
  }
}

bool Endpoint::send_eligible(const GroupState& gs) const {
  if (!gs.open) return false;
  // Mixed-mode blocking rule (§4.3): delay any ordered send in group g
  // while a unicast in a *different* group still awaits its sequencer.
  for (const auto& [other_id, other] : groups_) {
    if (other_id == gs.id || other.defunct) continue;
    if (other.plane->blocks_other_groups()) return false;
  }
  // Flow control (§7): bound own unstable messages per group.
  if (cfg_.flow_window > 0 &&
      gs.plane->own_unstable(gs) >= cfg_.flow_window) {
    return false;
  }
  return true;
}

void Endpoint::pump_sends(Time now) {
  while (!pending_sends_.empty()) {
    PendingSend& head = pending_sends_.front();
    GroupState* gs = find_group(head.group);
    if (gs == nullptr) {
      pending_sends_.pop_front();  // left the group while queued
      continue;
    }
    if (!send_eligible(*gs)) {
      // Distinguish the two stall causes for the stats.
      bool outstanding_elsewhere = false;
      for (const auto& [oid, other] : groups_) {
        if (oid != gs->id && !other.defunct &&
            other.plane->blocks_other_groups()) {
          outstanding_elsewhere = true;
        }
      }
      if (outstanding_elsewhere)
        ++stats_.sends_blocked;
      else if (gs->open)
        ++stats_.sends_flow_blocked;
      break;  // head-of-line: ordering forbids skipping ahead
    }
    util::Bytes payload = std::move(head.payload);
    pending_sends_.pop_front();
    if (gs->pending_app > 0) --gs->pending_app;
    gs->plane->submit_app(*gs, std::move(payload), now);
  }
  notify_send_windows();
}

void Endpoint::notify_send_windows() {
  if (cfg_.max_pending_sends == 0) return;
  for (auto& [gid, gs] : groups_) {
    if (gs.defunct || !gs.window_closed) continue;
    if (gs.pending_app >= cfg_.max_pending_sends) continue;
    // Clear the flag before the sink runs: a re-entrant multicast filling
    // the window again must arm a fresh event, not suppress this one.
    gs.window_closed = false;
    ++stats_.send_window_events;
    emit_event(Event(SendWindowEvent{
        gid, cfg_.max_pending_sends - gs.pending_app}));
  }
}

// ---------------------------------------------------------------------
// Retention compaction
//
// Retained slices reference their arrival datagram's single allocation —
// free at receive time, but a liability once the slice is long-lived: a
// small sub-message keeps its whole (possibly multi-KB) BatchFrame alive
// until stability discards it. The per-tick compaction pass copies any
// slice whose backing buffer exceeds kRetentionCompactRatio x its own
// size into a right-sized (pooled) buffer, bounding pinned bytes to a
// constant factor of the bytes actually referenced.
// ---------------------------------------------------------------------

bool Endpoint::should_compact(const util::BytesView& v,
                              long own_refs) const {
  const util::SharedBytes& buf = v.buffer();
  if (buf == nullptr || v.empty()) return false;
  // Copying a slice only frees memory if nothing else references the
  // backing buffer — while siblings (other retained slices of the same
  // BatchFrame, an undelivered queue entry, the application's own view)
  // hold it, a copy would *grow* the footprint. `own_refs` is how many
  // references the caller itself holds (1 for a lone retained slice, 2
  // for a message's nested raw+payload pair); use_count above that means
  // someone else still needs the buffer. Racing decrements on other
  // threads only delay compaction by one tick (conservative direction).
  if (buf.use_count() > own_refs) return false;
  return static_cast<double>(buf->size()) >
         kRetentionCompactRatio * static_cast<double>(v.size());
}

util::BytesView Endpoint::compact_view(const util::BytesView& v) {
  ++stats_.retention_compactions;
  return util::BytesView(pooled_copy(v));
}

void Endpoint::compact_msg(OrderedMsg& m) {
  // payload is (normally) a sub-slice of raw; preserve the sharing so
  // the compacted message still pins exactly one buffer.
  const bool nested =
      m.payload.buffer() != nullptr && m.payload.buffer() == m.raw.buffer();
  if (should_compact(m.raw, nested ? 2 : 1)) {
    const std::size_t off =
        nested ? static_cast<std::size_t>(m.payload.data() - m.raw.data()) : 0;
    m.raw = compact_view(m.raw);
    if (nested) m.payload = m.raw.subview(off, m.payload.size());
  }
  if (m.payload.buffer() != m.raw.buffer() && should_compact(m.payload, 1)) {
    m.payload = compact_view(m.payload);
  }
}

void Endpoint::compact_retention() {
  for (auto& [gid, gs] : groups_) {
    if (gs.defunct) continue;
    for (auto& [p, msgs] : gs.retained) {
      // Sibling slices of one BatchFrame sit at consecutive counters of
      // the same emitter, i.e. adjacent in this map. Handle each such
      // run as a unit: if the run's slices hold ALL references to the
      // backing buffer (use_count == run length) and together use less
      // than 1/ratio of it, compacting the whole run frees the buffer —
      // something the per-slice gate alone can never conclude once two
      // siblings remain.
      for (auto it = msgs.begin(); it != msgs.end();) {
        const util::SharedBytes& buf = it->second.buffer();
        auto run_end = it;
        long run = 0;
        std::size_t used = 0;
        while (run_end != msgs.end() && run_end->second.buffer() == buf) {
          used += run_end->second.size();
          ++run;
          ++run_end;
        }
        if (buf != nullptr && used > 0 && buf.use_count() <= run &&
            static_cast<double>(buf->size()) >
                kRetentionCompactRatio * static_cast<double>(used)) {
          for (; it != run_end; ++it) it->second = compact_view(it->second);
        } else {
          it = run_end;
        }
      }
    }
    for (auto& [p, held] : gs.gv.pending) {
      for (auto& m : held) compact_msg(m);
    }
  }
  for (auto& [key, m] : queue_) compact_msg(m);
}

void Endpoint::advance_stability(GroupState& gs) {
  // min(SV) over the current view: everything numbered <= floor has been
  // received by every member and can be discarded (§5.1).
  Counter floor = kCounterMax;
  for (ProcessId p : gs.view.members) {
    auto it = gs.sv.find(p);
    floor = std::min(floor, it != gs.sv.end() ? it->second : 0);
  }
  if (floor == 0 || floor == kCounterMax) return;
  for (auto& [emitter, msgs] : gs.retained) {
    msgs.erase(msgs.begin(), msgs.upper_bound(floor));
  }
  // The counter -> relay-seq map only needs to cover what repair can
  // still serve, i.e. the retained window of our own stream.
  gs.relay_seq_of.erase(gs.relay_seq_of.begin(),
                        gs.relay_seq_of.upper_bound(floor));
}

}  // namespace newtop
