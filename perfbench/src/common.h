// Shared pieces of the perfbench program: run settings, the operation ledger,
// latency statistics, CPU and memory readings, the in-memory span tracer and
// the JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/checked_int.h"
#include "testgen/rng.h"

namespace perfbench {

using emm::i64;
using u64 = std::uint64_t;
using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Command-line settings of one run.
struct Settings {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  int rounds = 0;                ///< > 0: run exactly this many rounds, ignore `seconds`
  bool plantBug = false;         ///< install the testgen planted copy-loop bug
  bool corruptArtifact = false;  ///< flip one byte of a served artifact (warm-sweep)
  std::string daemonBinary;      ///< path of the emmapcd executable
  std::string runDir = ".bench_run";
};

/// Attempted and failed operations of a run. An operation has a stable
/// label; repeating it (in a later round) attempts the same label again, and
/// a failed label counts every one of its attempts as failed.
class Ledger {
public:
  void attempt(const std::string& label) { ++attempts_[label]; }
  void fail(const std::string& label, const std::string& why) { failures_.emplace(label, why); }
  /// A property of the whole run failed (not tied to one operation).
  void failRun(const std::string& why) { runFailures_.push_back(why); }

  i64 attempted() const;
  i64 failed() const;
  bool runOk() const { return runFailures_.empty(); }
  const std::map<std::string, std::string>& failures() const { return failures_; }
  const std::vector<std::string>& runFailures() const { return runFailures_; }

private:
  std::map<std::string, i64> attempts_;
  std::map<std::string, std::string> failures_;
  std::vector<std::string> runFailures_;
};

/// Latency samples in milliseconds.
struct Latencies {
  std::vector<double> ms;
  void add(double v) { ms.push_back(v); }
  double median() const;
  /// The highest whole percentile (at most the 99th) with at least ten
  /// samples beyond it.
  double tail() const;
  double mean() const;
};

/// User+system CPU time of this process, in milliseconds.
double selfCpuMs();
/// Peak resident set of this process, in MiB.
double selfPeakRssMb();
/// User+system CPU time of another process (all threads), in milliseconds.
double processCpuMs(int pid);
/// Peak resident set (VmHWM) of another process, in MiB.
double processPeakRssMb(int pid);

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Prints the final JSON line: correct, attempted, failed, metrics.
void printResult(bool correct, const Ledger& ledger, const Metrics& metrics);

/// Prints `nproc` and the ratio of a fixed spin loop's time on one thread to
/// its time split over `nproc` threads (the machine's effective parallelism).
void printParallelismLine();

/// Seeded random stream of the benchmark (SplitMix64, as in testgen).
using Rng = emm::testgen::Rng;

/// A Zipf(s) sampler over ranks [0, n).
class Zipf {
public:
  Zipf(size_t n, double s);
  size_t draw(Rng& rng) const;

private:
  std::vector<double> cdf_;
};

/// In-memory span recorder. A span names the layer a call went into; its
/// parent is the span open on the same thread when it started, and every
/// span of one request carries the request's id. Spans are written out when
/// the run ends.
class Tracer {
public:
  struct Span {
    std::string name;
    double startMs = 0;
    double endMs = 0;
    int parent = -1;
    i64 request = 0;
  };

  /// RAII guard for one span; a disabled tracer records nothing.
  class Scope {
  public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }
  void beginRequest() { ++request_; }
  /// Records a span with a known duration ending now (for times the program
  /// reports, such as the server-side compile time of a reply).
  void record(const char* name, double durationMs);

  /// Self time per span name: duration minus the time its children cover.
  /// Returns name -> (total self ms, span count).
  std::map<std::string, std::pair<double, i64>> selfTimes() const;
  /// Mean duration of root spans with this name, in ms (0 when none).
  double meanRoot(const std::string& name) const;
  /// Writes the spans as JSON lines.
  void write(const std::string& path) const;

private:
  double nowMs() const { return std::chrono::duration<double, std::milli>(Clock::now() - origin_).count(); }

  bool enabled_ = false;
  i64 request_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Removes a directory tree, ignoring errors.
void removeTree(const std::string& path);

}  // namespace perfbench
