// The emmapcd daemon as a child process, started through its command line
// and reached through its socket only.
#pragma once

#include <memory>
#include <string>

#include "common.h"
#include "layers.h"
#include "service/client.h"

namespace perfbench {

class Daemon {
public:
  /// Starts `emmapcd --socket=... --jobs=N` and waits until it accepts
  /// connections. Throws std::runtime_error when it does not come up.
  Daemon(const Settings& settings, int jobs);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends SIGTERM and waits for the process to end.
  void stop();
  const std::string& socket() const { return socket_; }
  int pid() const { return pid_; }

private:
  std::string socket_;
  int pid_ = -1;
};

/// Sends the requests of an in-process workload to a daemon as well, so the
/// traced run of every workload measures the service layers on its own
/// requests.
class ServiceProbe {
public:
  explicit ServiceProbe(const Settings& settings);
  void probe(Tracer& tracer, Counters& counters, const emm::ProgramBlock& block,
             const emm::CompileOptions& options);
  /// Adds the daemon's STATS deltas since construction to `counters`.
  void finish(Counters& counters);

private:
  Daemon daemon_;
  std::unique_ptr<emm::svc::ServiceClient> client_;
  emm::svc::WireStats before_;
};

/// Adds the STATS counters of `after` minus `before` to `counters`.
void addStatsDelta(Counters& counters, const emm::svc::WireStats& before,
                   const emm::svc::WireStats& after);

}  // namespace perfbench
