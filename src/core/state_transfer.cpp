// Joiner state transfer (docs/STATE_TRANSFER.md).
//
// A process outside a long-lived group joins without stopping the group:
//
//   joiner            contact              every member          source
//     | --JoinRequest--> |                      |                  |
//     |                  | ==kJoinAnnounce==> (ordered stream)     |
//     |                  |   announce delivers at position S       |
//     |                  |   view += joiner; floors seeded at S    |
//     |                  |   own retained >= S re-sent to joiner   |
//     | <------------------JoinWelcome {view, options, stamp=S}-- |
//     | <------------------SnapshotFrame chunks (app state at S)- |
//     |  orders post-S traffic into a stash meanwhile             |
//     |  install snapshot, drain stash, go live (kCaughtUp)       |
//
// The announce rides the total order, so its delivery position S — the
// cutover stamp — is identical at every member: the snapshot (provider
// state after delivering exactly the prefix up to S) plus the stashed
// post-S deliveries reproduce the incumbents' state and delivery
// sequence byte for byte. Failure handling is retry-shaped: a lost
// request, a crashed contact or a source dying mid-snapshot all resolve
// by the joiner re-requesting (kJoinRetry) and being re-served
// at a fresh stamp.
#include "core/state_transfer.h"

#include <algorithm>
#include <utility>

#include "core/endpoint.h"
#include "util/check.h"
#include "util/logging.h"

namespace newtop {

namespace {

using state_transfer::Stamp;

// A joiner re-requests after this much silence, cycling through its
// contacts (pre-welcome) or asking the current view's source (post).
constexpr sim::Duration kJoinRetry = 400 * sim::kMillisecond;

// Raw datagrams a joiner buffers before its JoinWelcome (it cannot order
// them yet); beyond this the oldest are dropped (see stash_prewelcome).
constexpr std::size_t kJoinStashMax = 4096;

std::vector<ProcessId> sorted_unique_members(std::vector<ProcessId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

// ---------------------------------------------------------------------
// Joiner side: request / retry
// ---------------------------------------------------------------------

bool Endpoint::join_group(GroupId g, JoinOptions opts, Time now) {
  Reentrancy scope(*this);
  if (find_group(g) != nullptr) return false;  // already a member
  if (joining_.count(g) > 0) return false;     // join already in flight
  if (opts.contacts.empty()) return false;
  JoinState js;
  js.opts = std::move(opts);
  auto [it, inserted] = joining_.emplace(g, std::move(js));
  NEWTOP_CHECK(inserted);
  send_join_request(g, it->second, now);
  return true;
}

void Endpoint::send_join_request(GroupId g, JoinState& js, Time now) {
  ProcessId to = kNoProcess;
  if (js.welcomed) {
    // Post-welcome we hold the agreed view: re-ask members round-robin,
    // skipping ourselves and anyone we already suspect — the usual reason
    // to be here is that the designated source is the one that died.
    if (const GroupState* gs = find_group(g)) {
      std::vector<ProcessId> live;
      for (ProcessId p : gs->view.members) {
        if (p != self_ && !relay_skip(*gs, p)) live.push_back(p);
      }
      if (!live.empty()) to = live[js.next_contact++ % live.size()];
    }
  } else {
    to = js.opts.contacts[js.next_contact++ % js.opts.contacts.size()];
  }
  js.last_request = now;
  if (to == kNoProcess || to == self_) return;
  JoinRequestMsg m;
  m.group = g;
  m.joiner = self_;
  unicast(to, share_buffer(m.encode()));
  ++stats_.join_requests_sent;
}

void Endpoint::tick_join(Time now) {
  if (joining_.empty()) return;
  // Snapshot the ids: a retry can re-enter and mutate the map.
  std::vector<GroupId> ids;
  ids.reserve(joining_.size());
  for (const auto& [g, js] : joining_) ids.push_back(g);
  for (GroupId g : ids) {
    auto it = joining_.find(g);
    if (it == joining_.end()) continue;
    if (now - it->second.last_request >= kJoinRetry) {
      send_join_request(g, it->second, now);
    }
  }
}

// ---------------------------------------------------------------------
// Incumbent side: request -> ordered announce -> serve
// ---------------------------------------------------------------------

void Endpoint::handle_join_request(ProcessId from, const JoinRequestMsg& msg,
                                   Time now) {
  GroupState* gs = find_group(msg.group);
  if (gs == nullptr || !gs->open) return;
  if (msg.joiner != from || msg.joiner == self_) return;
  // The cutover stamp is a position in the total order; an atomic-only
  // group has no such position, so join is defined only for total order.
  if (gs->opts.guarantee != Guarantee::kTotalOrder) {
    NEWTOP_LOG_WARN("P%u: refusing join of P%u into atomic-only group %u",
                    self_, msg.joiner, msg.group);
    return;
  }
  if (gs->view.contains(msg.joiner)) {
    // Already announced: the joiner lost its transfer source mid-snapshot
    // and re-requested. Re-serve at the *current* cut — the fresh welcome
    // re-stamps, so the joiner discards the stale partial snapshot and
    // every stash entry the new snapshot covers.
    if (gs->installing || !gs->gv.waves.empty() ||
        joining_.count(gs->id) > 0) {
      if (std::count(gs->pending_join_serves.begin(),
                     gs->pending_join_serves.end(), msg.joiner) == 0) {
        gs->pending_join_serves.push_back(msg.joiner);
      }
      return;
    }
    serve_join(*gs, msg.joiner);
    return;
  }
  if (gs->join_pending.count(msg.joiner) > 0) return;  // announce in flight
  gs->join_pending.insert(msg.joiner);
  ++stats_.join_announces;
  // The announce rides the ordered stream like an application message;
  // its delivery position — identical everywhere, by total order — is the
  // stamp every member seeds the joiner's floors at.
  util::Writer w(8);
  w.varint(msg.joiner);
  emit_ordered(*gs, MsgType::kJoinAnnounce, std::move(w).take(), now);
}

void Endpoint::handle_join_announce(GroupState& gs, const OrderedMsg& msg,
                                    Time now) {
  util::Reader r(msg.payload);
  const auto joiner = static_cast<ProcessId>(r.varint());
  if (!r.ok() || joiner == kNoProcess) return;
  const GroupId g = gs.id;
  gs.join_pending.erase(joiner);
  // A duplicate announce (the joiner retried via a second contact before
  // the first announce delivered) finds the joiner already present.
  if (joiner == self_ || gs.view.contains(joiner)) return;
  const Counter stamp = msg.counter;
  // Grow the view at the agreed position. No delivery barrier is needed
  // (contrast §5.2 viii): an addition removes nothing from the delivery
  // gates, so every member can install it at the announce itself.
  gs.view.members.insert(std::upper_bound(gs.view.members.begin(),
                                          gs.view.members.end(), joiner),
                         joiner);
  gs.view.seq += 1;
  gs.plan = DisseminationPlan::build(gs.opts, gs.view);
  // Seed the joiner's floors at the stamp: its receive-vector entry
  // starts at S so delivery does not stall on a stream that begins
  // later, and its stability entry starts at S so the stability floor
  // cannot pass the stamp until the joiner itself advances — which keeps
  // the post-stamp window retained exactly as long as a serve needs it.
  gs.plane->raise_rv(joiner, stamp);
  Counter& joiner_sv = gs.sv[joiner];
  joiner_sv = std::max(joiner_sv, stamp);
  gs.last_activity[joiner] = now;
  emit_event(Event(ViewChangeEvent{g, gs.view}));
  if (find_group(g) == nullptr) return;
  emit_event(Event(MemberJoinedEvent{g, joiner, gs.view}));
  if (find_group(g) == nullptr) return;
  // Close the straggler gap: messages WE emitted to the old view before
  // delivering the announce may be ordered after the stamp, and their
  // fan-out never included the joiner. Re-send every own retained
  // encoding at or above the stamp. This covers all in-flight emissions
  // group-wide: a message numbered above S cannot go stable anywhere
  // until every old-view member has delivered past S — i.e. delivered
  // this announce — and by then that member has re-sent its own.
  auto rit = gs.retained.find(self_);
  if (rit != gs.retained.end()) {
    for (auto it = rit->second.lower_bound(stamp); it != rit->second.end();
         ++it) {
      relay_resend(joiner, it->second);
    }
  }
  // Bring the joiner into any live agreement: it must endorse our open
  // suspicions for consensus to complete in the grown view (§5.2 v).
  for (const auto& s : gs.gv.suspicions) {
    SuspectMsg sm;
    sm.group = g;
    sm.suspicion = s;
    unicast(joiner, share_buffer(sm.encode()));
  }
  // Serve the snapshot if we are the designated source; deferred while a
  // membership wave is mid-install or we are mid-join ourselves.
  if (std::count(gs.pending_join_serves.begin(), gs.pending_join_serves.end(),
                 joiner) == 0) {
    gs.pending_join_serves.push_back(joiner);
  }
  maybe_serve_joins(gs);
}

void Endpoint::maybe_serve_joins(GroupState& gs) {
  if (gs.pending_join_serves.empty()) return;
  if (gs.installing || !gs.gv.waves.empty()) return;
  if (joining_.count(gs.id) > 0) return;  // our own state is not caught up
  const GroupId g = gs.id;
  std::vector<ProcessId> pending = std::move(gs.pending_join_serves);
  gs.pending_join_serves.clear();
  for (ProcessId joiner : pending) {
    GroupState* cur = find_group(g);
    if (cur == nullptr) return;
    if (!cur->view.contains(joiner)) continue;  // excluded meanwhile
    if (transfer_source(*cur, joiner) != self_) continue;  // not our duty
    serve_join(*cur, joiner);
  }
}

ProcessId Endpoint::transfer_source(const GroupState& gs,
                                    ProcessId joiner) const {
  for (ProcessId p : gs.view.members) {
    if (p == joiner) continue;
    if (relay_skip(gs, p)) continue;  // suspected / leaving / mid-exclusion
    return p;
  }
  return kNoProcess;
}

void Endpoint::serve_join(GroupState& gs, ProcessId joiner) {
  const GroupId g = gs.id;
  // Serialise the application state FIRST, then read the cut: the
  // provider must capture exactly the deliveries made so far, and
  // gs.last_delivered is by construction the queue position of the most
  // recent one (at an announce-time serve that is the announce itself,
  // so the cut equals the stamp the joiner's floors were seeded at).
  std::vector<std::uint8_t> snapshot;
  if (gs.opts.snapshot_provider) snapshot = gs.opts.snapshot_provider(g);
  GroupState* cur = find_group(g);
  if (cur == nullptr || !cur->view.contains(joiner)) return;
  const Stamp cut{cur->last_delivered_c, cur->last_delivered_s};

  JoinWelcomeMsg w;
  w.group = g;
  w.source = self_;
  w.stamp_counter = cut.counter;
  w.stamp_sender = cut.sender;
  w.view_seq = cur->view.seq;
  w.options = cur->opts;
  w.members = cur->view.members;
  unicast(joiner, share_buffer(w.encode()));
  ++stats_.join_serves;

  // Re-send everything retained — any emitter — at or above the cut. At
  // announce time this duplicates the per-member own-retained re-send
  // (receiver-side dedup absorbs it); on a re-serve it is what closes
  // the joiner's gaps when its original stamp window was lost with the
  // first source.
  for (const auto& [emitter, msgs] : cur->retained) {
    for (auto it = msgs.lower_bound(cut.counter); it != msgs.end(); ++it) {
      relay_resend(joiner, it->second);
    }
  }
  for (const auto& s : cur->gv.suspicions) {
    SuspectMsg sm;
    sm.group = g;
    sm.suspicion = s;
    unicast(joiner, share_buffer(sm.encode()));
  }

  // Stream the snapshot in FIFO chunks. The chunks slice one shared
  // buffer (no per-chunk copy); an empty snapshot still sends one empty
  // last-marked frame — the joiner needs the `last` edge to install.
  const std::size_t total = snapshot.size();
  const std::size_t chunk =
      cfg_.snapshot_chunk_bytes > 0 ? cfg_.snapshot_chunk_bytes : total + 1;
  const util::SharedBytes snap = share_buffer(std::move(snapshot));
  std::uint64_t index = 0;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(chunk, total - off);
    SnapshotFrame f;
    f.group = g;
    f.stamp_counter = cut.counter;
    f.index = index++;
    f.last = off + n >= total;
    f.payload = util::BytesView(snap, off, n);
    unicast(joiner, share_buffer(f.encode(obtain_buffer(n + 32))));
    ++stats_.snapshot_chunks_sent;
    off += n;
  } while (off < total);
}

// ---------------------------------------------------------------------
// Joiner side: welcome -> chunks -> install
// ---------------------------------------------------------------------

void Endpoint::handle_join_welcome(ProcessId from, const JoinWelcomeMsg& msg,
                                   Time now) {
  auto jit = joining_.find(msg.group);
  if (jit == joining_.end()) return;  // not joining: stale or forged
  JoinState& js = jit->second;
  if (msg.options.guarantee != Guarantee::kTotalOrder) return;
  const GroupId g = msg.group;

  if (!js.welcomed) {
    std::vector<ProcessId> members = sorted_unique_members(msg.members);
    if (std::count(members.begin(), members.end(), self_) == 0) return;
    auto [it, inserted] = groups_.try_emplace(g);
    if (!inserted) return;  // defunct leftover awaiting flush; retry later
    GroupState& gs = it->second;
    gs.id = g;
    // The wire carries the group-wide agreement (mode, guarantee,
    // dissemination, ...); the local preferences — delivery mode and the
    // snapshot hooks — come from what the application passed to join.
    gs.opts = msg.options;
    gs.opts.delivery = js.opts.options.delivery;
    gs.opts.snapshot_provider = js.opts.options.snapshot_provider;
    gs.opts.snapshot_installer = js.opts.options.snapshot_installer;
    gs.plane = make_ordering_plane(gs.opts.mode, *this);
    gs.view.seq = static_cast<ViewSeq>(msg.view_seq);
    gs.view.members = std::move(members);
    gs.plan = DisseminationPlan::build(gs.opts, gs.view);
    gs.open = true;
    gs.last_sent = now;
    gs.last_delivered_c = msg.stamp_counter;
    gs.last_delivered_s = msg.stamp_sender;
    // Seed every floor at the stamp, ours included: streams begin for us
    // at S (anything at or before it is covered by the snapshot), and our
    // own emissions must be numbered above it. The receive-vector seed is
    // per member (covered_floor): a member past the stamp's sender may
    // still own a post-stamp message AT the stamp counter, and seeding
    // its entry at S would stale-drop that message when it is re-sent.
    lc_.observe(msg.stamp_counter);
    const state_transfer::Stamp st{msg.stamp_counter, msg.stamp_sender};
    for (ProcessId p : gs.view.members) {
      gs.plane->raise_rv(p, state_transfer::covered_floor(st, p));
      Counter& sv = gs.sv[p];
      sv = std::max(sv, state_transfer::covered_floor(st, p));
      if (p != self_) gs.last_activity[p] = now;
    }
    js.welcomed = true;
  } else {
    // Re-welcome: the source crashed mid-snapshot and our re-request was
    // served at a fresh (never older) cut, or two members raced to serve.
    GroupState* gs = find_group(g);
    if (gs == nullptr) return;
    if (msg.stamp_counter < js.stamp_counter) return;  // stale serve
    // Advance the floors to the new stamp: deliveries between the old
    // and new cut are covered by the new snapshot, so streams may jump
    // straight past them.
    lc_.observe(msg.stamp_counter);
    const Stamp cut{msg.stamp_counter, msg.stamp_sender};
    for (ProcessId p : gs->view.members) {
      gs->plane->raise_rv(p, state_transfer::covered_floor(cut, p));
    }
    std::erase_if(js.stash, [&](const JoinState::StashedDelivery& sd) {
      return state_transfer::covered(cut, sd.counter, sd.sender);
    });
  }

  js.source = msg.source != kNoProcess ? msg.source : from;
  js.stamp_counter = msg.stamp_counter;
  js.stamp_sender = msg.stamp_sender;
  js.snapshot.clear();
  js.chunks = 0;
  js.last_request = now;

  GroupState* gs = find_group(g);
  if (gs != nullptr) {
    emit_event(Event(ViewChangeEvent{g, gs->view}));
    gs = find_group(g);
  }
  if (gs != nullptr) {
    emit_event(Event(MemberJoinedEvent{g, self_, gs->view}));
    gs = find_group(g);
  }
  emit_event(Event(StateTransferEvent{g, StateTransferEvent::Phase::kOffered,
                                      js.source, js.stamp_counter, 0}));

  // Replay the raw traffic that raced ahead of this welcome, in arrival
  // order, as if it arrived now: stale (covered) messages stale-drop
  // against the seeded receive vector; post-stamp ones order into the
  // stash. Move the deque out first — replay re-enters the dispatcher,
  // which may stash anew or (in principle) complete the join.
  auto jit2 = joining_.find(g);
  if (jit2 == joining_.end()) return;
  std::deque<std::pair<ProcessId, util::Bytes>> replay =
      std::move(jit2->second.prewelcome);
  jit2->second.prewelcome.clear();
  for (auto& [src, bytes] : replay) {
    dispatch_message(src, util::BytesView(share_buffer(std::move(bytes))),
                     now, /*allow_batch=*/false);
  }
}

void Endpoint::handle_snapshot(ProcessId from, const SnapshotFrame& msg,
                               Time now) {
  auto jit = joining_.find(msg.group);
  if (jit == joining_.end()) return;
  JoinState& js = jit->second;
  if (!js.welcomed || from != js.source) return;  // unknown / stale server
  if (msg.stamp_counter != js.stamp_counter) return;  // stale cut
  if (msg.index != js.chunks) return;  // out of sequence (reset-crossed)
  js.snapshot.insert(js.snapshot.end(), msg.payload.begin(),
                     msg.payload.end());
  ++js.chunks;
  ++stats_.snapshot_chunks_received;
  // Chunk arrival is progress: re-arm the retry timer so a large
  // snapshot streaming healthily is not interrupted by a re-request.
  js.last_request = now;
  if (msg.last) complete_join_install(msg.group, now);
}

void Endpoint::complete_join_install(GroupId g, Time now) {
  auto jit = joining_.find(g);
  if (jit == joining_.end()) return;
  GroupState* gs = find_group(g);
  if (gs == nullptr) {
    joining_.erase(jit);
    return;
  }
  // Detach the join state and erase it FIRST: from here on the delivery
  // pump stops diverting, and the installer / stash replay below may
  // re-enter the endpoint.
  JoinState js = std::move(jit->second);
  joining_.erase(jit);

  emit_event(Event(StateTransferEvent{
      g, StateTransferEvent::Phase::kInstalling, js.source, js.stamp_counter,
      js.snapshot.size()}));
  gs = find_group(g);
  if (gs == nullptr) return;
  if (gs->opts.snapshot_installer) {
    gs->opts.snapshot_installer(g, js.snapshot);
    gs = find_group(g);
    if (gs == nullptr) return;
  }
  // Drain the stash: these are exactly the post-stamp deliveries the
  // incumbents made while the snapshot streamed, already in total order
  // (the pump popped them in queue order).
  for (JoinState::StashedDelivery& sd : js.stash) {
    Delivery d;
    d.group = g;
    d.sender = sd.sender;
    d.counter = sd.counter;
    d.view_seq = sd.view_seq;
    d.payload = util::BytesView(share_buffer(std::move(sd.payload)));
    ++stats_.deliveries;
    emit_event(Event(DeliveryEvent{std::move(d)}));
    gs = find_group(g);
    if (gs == nullptr) return;
  }
  ++stats_.joins_completed;
  emit_event(Event(StateTransferEvent{g, StateTransferEvent::Phase::kCaughtUp,
                                      js.source, js.stamp_counter,
                                      js.snapshot.size()}));
  gs = find_group(g);
  if (gs == nullptr) return;
  // Serves we owed but deferred while mid-join can proceed now, and the
  // queue may hold poppable messages admitted during the install.
  maybe_serve_joins(*gs);
  if (find_group(g) == nullptr) return;
  pump_deliveries(now);
}

// ---------------------------------------------------------------------
// Pre-welcome buffering
// ---------------------------------------------------------------------

bool Endpoint::stash_prewelcome(ProcessId from, GroupId g,
                                const util::BytesView& data) {
  auto jit = joining_.find(g);
  if (jit == joining_.end() || jit->second.welcomed || data.empty()) {
    return false;
  }
  JoinState& js = jit->second;
  if (js.prewelcome.size() >= kJoinStashMax) {
    // Bounded: drop the oldest. Anything dropped that matters is either
    // covered by the snapshot or re-sent at the announce / serve.
    js.prewelcome.pop_front();
    ++stats_.join_prewelcome_dropped;
  }
  util::Bytes copy = obtain_buffer(data.size());
  copy.assign(data.begin(), data.end());
  js.prewelcome.emplace_back(from, std::move(copy));
  ++stats_.join_prewelcome_stashed;
  return true;
}

}  // namespace newtop
