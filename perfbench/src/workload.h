// The workloads and the closed-loop runner the in-process ones share.
#pragma once

#include <memory>
#include <string>

#include "common.h"
#include "layers.h"

namespace perfbench {

/// What a run reports: its operations and its metrics.
struct RunReport {
  Ledger ledger;
  Metrics metrics;
  /// Labels of operations that fail because of a known fault of the
  /// program; any other failure makes the run incorrect.
  std::set<std::string> knownFaults;
};

/// A workload run in this process by one thread, in whole rounds.
class InProcessWorkload {
public:
  virtual ~InProcessWorkload() = default;
  /// Builds a fresh set-up (inputs, warmed tiers); called several times.
  virtual void setup() = 0;
  /// Prepares the next round from the workload's stream; returns its size.
  virtual size_t beginRound(Rng& rng) = 0;
  /// Runs operation i of the round; returns the latency of the library call
  /// in ms. With the tracer enabled the call is made layer by layer.
  virtual double runOp(size_t i) = 0;
  /// Checks outputs after the timed phase and adds workload metrics
  /// (offchip_elems, reply_bytes).
  virtual void finish(RunReport& report) = 0;

  Settings settings;
  Tracer tracer;
  Counters counters;
  Ledger* ledger = nullptr;
};

/// Runs set-up, the timed (or traced) phase and the checks; fills `report`.
void runInProcess(InProcessWorkload& workload, const Settings& settings, RunReport& report);

std::unique_ptr<InProcessWorkload> makeColdKernels();
std::unique_ptr<InProcessWorkload> makeColdCorpus();
std::unique_ptr<InProcessWorkload> makeWarmSweep();
void runDaemonMix(const Settings& settings, RunReport& report);

/// Number of set-ups per run; set-up time reports their median.
inline constexpr int kSetupRepeats = 5;
/// Share of a traced run spent untraced, to measure the tracing overhead.
inline constexpr double kUntracedShare = 0.3;

/// Median of a small sample.
double medianOf(std::vector<double> v);

}  // namespace perfbench
