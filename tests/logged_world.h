// Test and bench fixture: a SimWorld with one EventLog per process.
//
// Hosts record nothing, so the oracles read what each process's event
// sink saw: log(p) records every event of process p, stamped on the
// world's virtual clock. A test that needs its own sink on a process
// keeps the log by chaining through it:
//   w.process(p).set_event_sink(w.log(p).sink(mine));
#pragma once

#include <deque>
#include <utility>

#include "core/event_log.h"
#include "core/sim_host.h"

namespace newtop {

class LoggedWorld : public simhost::SimWorld {
 public:
  explicit LoggedWorld(simhost::WorldConfig config)
      : SimWorld(std::move(config)) {
    for (ProcessId p = 0; p < size(); ++p) {
      logs_.emplace_back([this] { return now(); });
      process(p).set_event_sink(logs_.back().sink());
    }
  }
  // The logs' clocks and the processes' sinks point into this object.
  LoggedWorld(const LoggedWorld&) = delete;
  LoggedWorld& operator=(const LoggedWorld&) = delete;

  EventLog& log(ProcessId p) { return logs_.at(p); }
  const EventLog& log(ProcessId p) const { return logs_.at(p); }

 private:
  std::deque<EventLog> logs_;  // EventLog does not move
};

}  // namespace newtop
