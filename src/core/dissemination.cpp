#include "core/dissemination.h"

#include <algorithm>

namespace newtop {

DisseminationPlan DisseminationPlan::build(const GroupOptions& opts,
                                           const View& view) {
  DisseminationPlan plan;
  plan.strategy = opts.dissemination;
  plan.arity = std::max<std::uint32_t>(opts.relay_arity, 1);
  // A ring is a tree of arity 1: the origin's successor chain, walking
  // past suspected hops exactly as a tree adopts a suspected child.
  if (plan.strategy == DisseminationStrategy::kRing) {
    plan.strategy = DisseminationStrategy::kTree;
    plan.arity = 1;
  }
  plan.members = view.members;
  // An overlay cannot beat one direct send in a pair; and a degenerate
  // single-member group has nobody to transmit to at all.
  if (plan.members.size() <= 2) plan.strategy = DisseminationStrategy::kFullMesh;
  return plan;
}

std::size_t DisseminationPlan::rank_of(ProcessId p) const {
  const auto it = std::lower_bound(members.begin(), members.end(), p);
  if (it == members.end() || *it != p) return members.size();
  return static_cast<std::size_t>(it - members.begin());
}

DisseminationPlan::Hops DisseminationPlan::next_hops(
    ProcessId self, ProcessId origin,
    const std::function<bool(ProcessId)>& suspected) const {
  Hops hops;
  switch (strategy) {
    case DisseminationStrategy::kFullMesh:
      // Direct per-member sends; receivers never forward.
      if (self == origin) {
        for (ProcessId p : members)
          if (p != self) hops.direct.push_back(p);
      }
      return hops;
    case DisseminationStrategy::kRing:  // build() maps it to tree(1)
    case DisseminationStrategy::kTree:
      return tree_hops(self, origin, suspected);
  }
  return hops;
}

DisseminationPlan::Hops DisseminationPlan::tree_hops(
    ProcessId self, ProcessId origin,
    const std::function<bool(ProcessId)>& suspected) const {
  // k-ary heap-shaped tree rooted at the origin: rotate the sorted view
  // so the origin has overlay index 0, then node i's children are
  // k*i+1 .. k*i+k. Forwarding depends only on a node's own index, so a
  // parent adopting a suspected child's children leaves the
  // grandchildren's behaviour unchanged.
  Hops hops;
  const std::size_t n = members.size();
  const std::size_t origin_rank = rank_of(origin);
  const std::size_t self_rank = rank_of(self);
  if (n < 2 || origin_rank == n || self_rank == n) return hops;
  const std::size_t self_idx = (self_rank + n - origin_rank) % n;
  const std::size_t k = arity;
  // BFS worklist (indexed, not popped) so hops come out in stable
  // ascending overlay order even when adopted subtrees are appended.
  std::vector<std::size_t> work;
  for (std::size_t c = k * self_idx + 1; c <= k * self_idx + k && c < n; ++c)
    work.push_back(c);
  for (std::size_t wi = 0; wi < work.size(); ++wi) {
    const std::size_t ci = work[wi];
    const ProcessId p = members[(origin_rank + ci) % n];
    if (suspected(p)) {
      // The child still receives (direct, no relay duty); its subtree
      // is adopted here so the stream routes around the failure.
      hops.direct.push_back(p);
      for (std::size_t g = k * ci + 1; g <= k * ci + k && g < n; ++g)
        work.push_back(g);
    } else {
      hops.relay.push_back(p);
    }
  }
  return hops;
}

}  // namespace newtop
