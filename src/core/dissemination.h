// Dissemination overlays: who transmits to whom when a group multicasts.
//
// The paper's §4 protocol has every member datagram every other member
// per multicast — O(n²) datagrams on the wire per group-wide exchange,
// the binding constraint on group size. This module decouples *fan-out*
// from *ordering* (cf. Ring Paxos's pipelined ring and LLFT's routed
// message flow): a per-group `DisseminationPlan`, recomputed
// deterministically from the agreed view at every view change, maps a
// multicast onto a small set of next-hop peers plus a relay rule. The
// origin wraps its one encoding in a `RelayFrame` (core/wire.h) and
// sends it to O(1)–O(arity) hops; receivers forward the received slice
// verbatim along the overlay (encode-once, no copy) and dispatch the
// inner message attributed to the origin. Ordering, stability and
// membership are untouched: the planes still see every message exactly
// as if it had arrived direct.
//
// Failure handling rides the existing suspicion machinery. A suspected
// hop is routed *around* — it still receives a direct, unwrapped send
// (it may be alive and merely slow; refutation needs evidence) but is
// relieved of relay duty, so one dead relay degrades its overlay
// neighbourhood to direct sends instead of partitioning the stream.
// When a relay dies silently before suspicion lands, downstream members
// simply stop receiving the origins routed through it; the Ω
// receive-silence suspector then fires exactly as for a dead sender,
// and the refute/recovery path (§5.2) replays what the gap missed. The
// next installed view rebuilds a repaired overlay from the survivors.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.h"

namespace newtop {

// The per-group overlay. Built from the agreed (sorted) view, so every
// member computes the identical plan without coordination.
struct DisseminationPlan {
  // One hop's transmission set, split by relay duty: `relay` targets get
  // the RelayFrame-wrapped encoding and forward it onward; `direct`
  // targets get the bare ordered message (terminal — no forwarding).
  struct Hops {
    std::vector<ProcessId> relay;
    std::vector<ProcessId> direct;
  };

  DisseminationStrategy strategy = DisseminationStrategy::kFullMesh;
  std::uint32_t arity = 4;
  std::vector<ProcessId> members;  // the agreed view, sorted ascending

  // Deterministic plan for `view` under `opts`. Groups of <= 2 members
  // always get kFullMesh: an overlay cannot beat one direct send. kRing
  // builds as kTree with arity 1 (the successor chain).
  static DisseminationPlan build(const GroupOptions& opts, const View& view);

  // True when multicasts in this group travel wrapped in RelayFrames.
  bool relaying() const {
    return strategy != DisseminationStrategy::kFullMesh;
  }

  // The hops `self` transmits to for a message originated by `origin` —
  // self == origin is the initial fan-out, otherwise the relay forward.
  // `suspected` routes around failed hops: a suspected relay is moved to
  // the `direct` set (it still receives, it no longer forwards) and its
  // overlay duties are taken over locally: the tree adopts its children
  // (for a ring, the next live successor).
  Hops next_hops(ProcessId self, ProcessId origin,
                 const std::function<bool(ProcessId)>& suspected) const;

 private:
  std::size_t rank_of(ProcessId p) const;  // members.size() if absent
  Hops tree_hops(ProcessId self, ProcessId origin,
                 const std::function<bool(ProcessId)>& suspected) const;
};

}  // namespace newtop
