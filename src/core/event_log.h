// EventLog: an application-side recorder for the engine's event stream.
//
// Hosts record nothing: SimProcess and UdpNode hand each engine Event
// straight to the application's sink and let go of it, so a host's
// memory is bounded by what the engine itself retains (§5.1 retention,
// trimmed by stability). Tests, benches and examples that want the
// history — delivery orders for the MD1-MD5' oracles, installed views,
// formation outcomes — attach an EventLog through that same sink:
//
//   EventLog log(clock);                      // clock stamps `at`
//   process.set_event_sink(log.sink());       // SimWorld
//   node_config.on_event = log.sink(mine);    // UdpNode, then forward
//
// The log keeps every record (and with a delivery, its payload slice)
// for as long as it lives: it models an application that keeps what it
// was delivered. It is thread-safe, because a UdpNode sink runs on the
// transport's loop thread while the application reads from its own;
// readers get snapshots.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/api.h"
#include "sim/time.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop {

struct DeliveryRecord {
  sim::Time at = 0;
  Delivery delivery;
};

struct ViewRecord {
  sim::Time at = 0;
  GroupId group = 0;
  View view;
};

struct FormationRecord {
  sim::Time at = 0;
  GroupId group = 0;
  FormationOutcome outcome = FormationOutcome::kFormed;
};

struct SendWindowRecord {
  sim::Time at = 0;
  SendWindowEvent event;
};

struct StateTransferRecord {
  sim::Time at = 0;
  StateTransferEvent event;
};

struct MemberJoinedRecord {
  sim::Time at = 0;
  MemberJoinedEvent event;
};

class EventLog {
 public:
  // Stamps each record's `at` (SimWorld::now for virtual time). Without
  // a clock every record reads 0.
  using Clock = std::function<sim::Time()>;

  explicit EventLog(Clock clock = {}) : clock_(std::move(clock)) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // A sink that records each event and then hands it to `downstream`
  // (outside the lock, so downstream may read this log). The log must
  // outlive every host the sink is given to.
  EventSink sink(EventSink downstream = {}) {
    return [this, downstream = std::move(downstream)](const Event& ev) {
      record(ev);
      if (downstream) downstream(ev);
    };
  }

  std::vector<DeliveryRecord> deliveries() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return deliveries_;
  }
  std::vector<ViewRecord> views() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return views_;
  }
  std::vector<FormationRecord> formations() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return formations_;
  }
  std::vector<SendWindowRecord> send_windows() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return send_windows_;
  }
  std::vector<StateTransferRecord> state_transfers() const
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return state_transfers_;
  }
  std::vector<MemberJoinedRecord> member_joins() const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return member_joins_;
  }

  // Delivered payloads of group g, in delivery order.
  std::vector<std::string> delivered_strings(GroupId g) const
      EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    std::vector<std::string> out;
    for (const auto& r : deliveries_) {
      if (r.delivery.group == g) {
        out.emplace_back(r.delivery.payload.begin(),
                         r.delivery.payload.end());
      }
    }
    return out;
  }

  // Number of deliveries in group g (counted in place, no snapshot).
  std::size_t delivery_count(GroupId g) const EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto& r : deliveries_) {
      if (r.delivery.group == g) ++n;
    }
    return n;
  }

 private:
  // Appends `ev` to its typed log.
  void record(const Event& ev) EXCLUDES(mutex_) {
    const sim::Time at = clock_ ? clock_() : 0;
    util::MutexLock lock(mutex_);
    if (const auto* d = std::get_if<DeliveryEvent>(&ev)) {
      deliveries_.push_back(DeliveryRecord{at, d->delivery});
    } else if (const auto* v = std::get_if<ViewChangeEvent>(&ev)) {
      views_.push_back(ViewRecord{at, v->group, v->view});
    } else if (const auto* f = std::get_if<FormationEvent>(&ev)) {
      formations_.push_back(FormationRecord{at, f->group, f->outcome});
    } else if (const auto* s = std::get_if<SendWindowEvent>(&ev)) {
      send_windows_.push_back(SendWindowRecord{at, *s});
    } else if (const auto* st = std::get_if<StateTransferEvent>(&ev)) {
      state_transfers_.push_back(StateTransferRecord{at, *st});
    } else if (const auto* mj = std::get_if<MemberJoinedEvent>(&ev)) {
      member_joins_.push_back(MemberJoinedRecord{at, *mj});
    }
  }

  const Clock clock_;
  mutable util::Mutex mutex_;
  std::vector<DeliveryRecord> deliveries_ GUARDED_BY(mutex_);
  std::vector<ViewRecord> views_ GUARDED_BY(mutex_);
  std::vector<FormationRecord> formations_ GUARDED_BY(mutex_);
  std::vector<SendWindowRecord> send_windows_ GUARDED_BY(mutex_);
  std::vector<StateTransferRecord> state_transfers_ GUARDED_BY(mutex_);
  std::vector<MemberJoinedRecord> member_joins_ GUARDED_BY(mutex_);
};

}  // namespace newtop
