// Endpoint configuration: protocol timing and policy knobs.
#pragma once

#include <cstddef>

#include "sim/time.h"

namespace newtop {

struct Config {
  // Time-silence interval ω (§4.1): send a null in a group if nothing was
  // sent there for this long.
  sim::Duration omega = 50 * sim::kMillisecond;

  // Suspicion threshold Ω > ω (§5.2): suspect a member after this much
  // receive-silence. "In practice, Ω should be tuned to a value that
  // minimises the possibility of unfounded suspicions."
  sim::Duration omega_big = 200 * sim::kMillisecond;

  // Group formation timeout (§5.3 step 3): the initiator vetoes if the
  // invitees' yes votes do not all arrive within this window; invitees
  // abort unilaterally after twice this.
  sim::Duration formation_timeout = 1 * sim::kSecond;

  // Flow control (§7, [11]): a sender queues further application
  // multicasts in a group while more than this many of its own messages
  // are unstable there. 0 disables flow control.
  std::size_t flow_window = 256;

  // Liveness optimisation: if direct evidence (a newer message from a
  // process we ourselves suspect) arrives, drop the suspicion and refute
  // it ourselves instead of waiting for another member's refute. Not in
  // the paper's event list, but consistent with it; strictly reduces
  // false exclusions.
  bool self_refute = true;

  // §6 signature-view variant: views carry (process, exclusion-count)
  // signatures, making concurrent subgroup views never intersect.
  bool signature_views = false;

  // Send backpressure: multicast returns SendResult::kBackpressure (and
  // drops the payload) once this many application sends are already
  // queued locally (unsubmitted) in the group; a SendWindowEvent is
  // emitted when the window reopens. 0 = unbounded queueing (the old
  // behaviour).
  std::size_t max_pending_sends = 0;

  // Joiner state transfer (docs/STATE_TRANSFER.md), snapshot chunking:
  // the transfer source slices the provider's bytes into SnapshotFrames
  // of at most this payload size, riding the reliable FIFO channel's ARQ
  // (ordered, no loss) one chunk per frame.
  std::size_t snapshot_chunk_bytes = 32 * 1024;
};

}  // namespace newtop
