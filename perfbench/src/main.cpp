// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--rounds N] [--plant-bug] [--corrupt-artifact]
//             [--daemon-binary PATH]
//
// Workloads: cold-kernels, cold-corpus, warm-sweep, daemon-mix (see
// perfbench/README.md). The last line of stdout is one JSON object with
// correct, attempted, failed and metrics: the end-to-end metrics untraced,
// the per-layer metrics with --trace 1. --rounds runs a fixed number of
// rounds instead of --seconds (the self-tests use it); --plant-bug and
// --corrupt-artifact plant faults the checks must catch.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "driver/backend.h"
#include "workload.h"

namespace perfbench {

double medianOf(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void runInProcess(InProcessWorkload& w, const Settings& settings, RunReport& report) {
  w.settings = settings;
  w.ledger = &report.ledger;
  std::vector<double> setups;
  u64 emitsBefore = 0;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // The traced run traces its last set-up, so warm-up compiles show in
    // the pass spans and its emissions count.
    if (settings.trace && k == kSetupRepeats - 1) w.tracer.enable();
    emitsBefore = emm::emitterInvocations();
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(msSince(t0) / 1e3);
  }
  Rng rng(emm::testgen::mixSeed(settings.seed, 0x5eed));

  // Runs whole rounds until `seconds` (or `rounds`) is reached; keeps each
  // round's request rate and CPU time per request.
  std::vector<double> roundRates, roundCpu;
  auto phase = [&](double seconds, int rounds, Latencies& lat) {
    const auto t0 = Clock::now();
    int done = 0;
    while (true) {
      const auto r0 = Clock::now();
      const double cpu0 = selfCpuMs();
      const size_t n = w.beginRound(rng);
      for (size_t i = 0; i < n; ++i) lat.add(w.runOp(i));
      roundCpu.push_back((selfCpuMs() - cpu0) / static_cast<double>(n));
      roundRates.push_back(static_cast<double>(n) / (msSince(r0) / 1e3));
      ++done;
      if (rounds > 0 ? done >= rounds : msSince(t0) >= seconds * 1e3) break;
    }
    return std::make_pair(msSince(t0), done);
  };

  Latencies lat;
  double untracedMeanMs = 0;
  if (!settings.trace) {
    w.tracer = Tracer();
    const auto [elapsedMs, rounds] = phase(settings.seconds, settings.rounds, lat);
    // Rates and CPU time are medians over rounds, so a burst of load from
    // outside the process moves them less than a whole-run mean.
    report.metrics["requests_per_s"] = {medianOf(roundRates), "1/s"};
    report.metrics["request_ms_p50"] = {lat.median(), "ms"};
    report.metrics["request_ms_tail"] = {lat.tail(), "ms"};
    report.metrics["cpu_ms_per_request"] = {medianOf(roundCpu), "ms"};
    report.metrics["setup_s"] = {medianOf(setups), "s"};
    std::printf("requests: %zu in %d rounds, %.1f s; p50 %.4f ms, tail %.4f ms\n",
                lat.ms.size(), rounds, elapsedMs / 1e3, lat.median(), lat.tail());
  } else {
    // Untraced share first, then the traced share of the same run.
    Tracer traced = std::move(w.tracer);
    w.tracer = Tracer();
    const int untracedRounds = settings.rounds > 0 ? settings.rounds : 0;
    phase(settings.seconds * kUntracedShare, untracedRounds, lat);
    const double untracedMean = lat.mean();
    w.tracer = std::move(traced);
    w.tracer.enable();
    Latencies tracedLat;
    const auto [elapsedMs, rounds] =
        phase(settings.seconds * (1 - kUntracedShare), settings.rounds, tracedLat);
    (void)elapsedMs;
    w.counters.rounds = rounds;
    w.counters.emitCalls = emm::emitterInvocations() - emitsBefore;
    untracedMeanMs = untracedMean;
  }
  // Checks run after the timed phase; they also count the interpreter work.
  w.finish(report);
  if (settings.trace)
    addLayerMetrics(report.metrics, w.tracer.selfTimes(), w.counters,
                    w.tracer.meanRoot("request"), untracedMeanMs);
  report.metrics["peak_rss_mb"] = {selfPeakRssMb(), "MiB"};
  if (settings.trace)
    w.tracer.write(settings.runDir + "/trace-" + settings.workload + ".jsonl");
}

namespace {

const char* kUsage =
    "usage: perfbench --workload cold-kernels|cold-corpus|warm-sweep|daemon-mix\n"
    "                 --seed N --seconds S --trace 0|1 [--rounds N] [--plant-bug]\n"
    "                 [--corrupt-artifact] [--daemon-binary PATH]\n";

bool parse(int argc, char** argv, Settings& s) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") s.workload = value();
    else if (a == "--seed") s.seed = std::stoull(value());
    else if (a == "--seconds") s.seconds = std::stod(value());
    else if (a == "--trace") s.trace = value() == "1";
    else if (a == "--rounds") s.rounds = std::stoi(value());
    else if (a == "--daemon-binary") s.daemonBinary = value();
    else if (a == "--plant-bug") s.plantBug = true;
    else if (a == "--corrupt-artifact") s.corruptArtifact = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return !s.workload.empty() && s.seconds > 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Settings settings;
  try {
    if (!parse(argc, argv, settings)) {
      std::fputs(kUsage, stderr);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(settings.runDir, ec);
  printParallelismLine();
  RunReport report;
  try {
    if (settings.workload == "daemon-mix") {
      runDaemonMix(settings, report);
    } else {
      std::unique_ptr<InProcessWorkload> w;
      if (settings.workload == "cold-kernels") w = makeColdKernels();
      else if (settings.workload == "cold-corpus") w = makeColdCorpus();
      else if (settings.workload == "warm-sweep") w = makeWarmSweep();
      if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s", settings.workload.c_str(),
                     kUsage);
        return 2;
      }
      runInProcess(*w, settings, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  bool correct = report.ledger.runOk();
  for (const std::string& why : report.ledger.runFailures())
    std::printf("check failed (run): %s\n", why.c_str());
  for (const auto& [label, why] : report.ledger.failures()) {
    const bool known = report.knownFaults.count(label) > 0;
    std::printf("failed op %s%s: %s\n", label.c_str(), known ? " (known fault)" : "", why.c_str());
    if (!known) correct = false;
  }
  // The traced run prints the per-layer metrics only.
  static const char* kEndToEnd[] = {"setup_s",       "requests_per_s",     "request_ms_p50",
                                    "request_ms_tail", "cpu_ms_per_request", "offchip_elems",
                                    "reply_bytes",   "peak_rss_mb"};
  Metrics out;
  for (const auto& [name, m] : report.metrics) {
    const bool endToEnd = std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) !=
                          std::end(kEndToEnd);
    if (endToEnd != settings.trace) out[name] = m;
  }
  printResult(correct, report.ledger, out);
  return 0;
}
