// daemon-mix: emmapcd as its own process (--jobs=2), driven by one load
// generator process with three closed-loop client connections.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "daemon.h"
#include "driver/backend.h"
#include "families.h"
#include "service/protocol.h"
#include "testgen/generator.h"
#include "workload.h"

namespace perfbench {

using namespace emm;

namespace {

constexpr unsigned kFillSeed = 5;
constexpr int kClients = 3;
constexpr int kDaemonJobs = 2;

/// Round composition: per family six new sizes, 36 Zipf-drawn repeats of
/// requests already served, two new testgen programs and one STATS probe
/// per connection, in a seeded order. The programs are about 3% of the
/// compile requests, so the p99 tail falls among their cold compiles.
constexpr int kNewPerFamily = 6;
constexpr int kRepeatsPerRound = 36;
constexpr int kProgramsPerRound = 2;
constexpr double kZipfExponent = 0.99;
/// Rounds per reading of the daemon's CPU time.
constexpr int kCpuBlockRounds = 8;

/// The trickle cycles through testgen seed 99 programs #0-#31 in index
/// order. Each send carries a fresh kernel name, so the daemon compiles it
/// cold every time, and every run compiles the same programs equally often:
/// the compiles that set the tail are the same in every run.
constexpr u64 kTrickleSeed = 99;
constexpr u64 kTricklePrograms = 32;

/// Replies kept for the reply-size mean and the identity sample: the
/// family replies at the first positions of the first rounds.
constexpr i64 kKeptRounds = 4;
constexpr size_t kKeptPositions = 16;

enum class Kind { New, Repeat, Trickle, Stats };

struct Op {
  Kind kind = Kind::New;
  size_t family = 0;
  std::vector<i64> sizes;
  u64 send = 0;  ///< trickle: the send's index; the program is send % kTricklePrograms
};

std::string opLabel(const Op& op, i64 round, size_t index) {
  switch (op.kind) {
    case Kind::New:
    case Kind::Repeat:
      return std::string(op.kind == Kind::New ? "new:" : "repeat:") +
             makeKernelRequest(families()[op.family].config, op.sizes).label;
    case Kind::Trickle: return "trickle:s99#" + std::to_string(op.send % kTricklePrograms);
    case Kind::Stats: return "stats:" + std::to_string(round) + ":" + std::to_string(index);
  }
  return "?";
}

svc::CompileRequest familyRequest(const Op& op) {
  const KernelRequest req = makeKernelRequest(families()[op.family].config, op.sizes);
  svc::CompileRequest wire;
  wire.kernel = req.config->kernel;
  wire.sizes = req.params;
  wire.options = kernelOptions(req);
  return wire;
}

testgen::GeneratedProgram trickleProgram(u64 index) {
  testgen::GeneratorOptions gen;
  gen.seed = kTrickleSeed;
  return testgen::ProgramGenerator(gen).generate(index);
}

CompileOptions trickleOptions(const testgen::GeneratedProgram& p, u64 send) {
  CompileOptions o;
  o.innerProcs = 4;
  o.paramValues = p.paramValues;
  o.kernelName = "trickle_" + std::to_string(send);
  return o;
}

/// A reply kept for the checks, with its place in the run.
struct Kept {
  i64 round = 0;
  size_t index = 0;
  Op op;
  CompileResult result;
};

/// What one client thread gathers during a round.
struct ThreadLog {
  Latencies lat;
  std::vector<std::string> attempts;
  std::vector<std::pair<std::string, std::string>> failures;
  std::vector<Kept> kept;
  std::vector<Kept> trickles;
  Tracer tracer;
  Counters counters;
};

class DaemonMix {
public:
  DaemonMix(const Settings& s, RunReport& report) : s_(s), report_(report) {}

  void run() {
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const auto t0 = Clock::now();
      setup();
      setups.push_back(msSince(t0) / 1e3);
    }
    report_.metrics["setup_s"] = {medianOf(setups), "s"};
    Rng rng(testgen::mixSeed(s_.seed, 0xd43));

    for (int t = 0; t < kClients; ++t)
      clients_.push_back(std::make_unique<svc::ServiceClient>(daemon_->socket()));
    Latencies lat;
    if (!s_.trace) {
      const auto [elapsedMs, rounds] = phase(rng, s_.seconds, s_.rounds, lat);
      // Medians over rounds (rates) and over blocks of rounds (the daemon's
      // CPU time, read at clock-tick resolution).
      report_.metrics["requests_per_s"] = {medianOf(roundRates_), "1/s"};
      report_.metrics["request_ms_p50"] = {lat.median(), "ms"};
      report_.metrics["request_ms_tail"] = {lat.tail(), "ms"};
      report_.metrics["cpu_ms_per_request"] = {medianOf(blockCpu_), "ms"};
      std::printf("requests: %zu in %d rounds, %.1f s; p50 %.4f ms, tail %.4f ms\n",
                  lat.ms.size(), rounds, elapsedMs / 1e3, lat.median(), lat.tail());
    } else {
      phase(rng, s_.seconds * kUntracedShare, s_.rounds, lat);
      const svc::WireStats before = clients_[0]->stats();
      tracing_ = true;
      Latencies traced;
      const auto [elapsedMs, rounds] = phase(rng, s_.seconds * (1 - kUntracedShare), s_.rounds,
                                             traced);
      (void)elapsedMs;
      counters_.rounds = rounds;
      counters_.emitCalls = emitterInvocations() - emitsAtSetup_;
      addStatsDelta(counters_, before, clients_[0]->stats());
      tracedMeanMs_ = traced.mean();
      untracedMeanMs_ = lat.mean();
    }
    report_.metrics["peak_rss_mb"] = {processPeakRssMb(daemon_->pid()), "MiB"};
    clients_.clear();
    daemon_->stop();
    finish();
  }

private:
  void setup() {
    clients_.clear();
    daemon_.reset();
    daemon_ = std::make_unique<Daemon>(s_, kDaemonJobs);
    svc::ServiceClient client(daemon_->socket());
    artifacts_.clear();
    served_.clear();
    newCount_.assign(families().size(), 0);
    for (size_t f = 0; f < families().size(); ++f) {
      Op op{Kind::New, f, families()[f].warmSizes, 0};
      svc::WireCompileReply reply = client.compile(familyRequest(op));
      if (!reply.result.ok) throw std::runtime_error("warming " + families()[f].config.label);
      artifacts_.push_back(reply.result.artifact);
      served_.push_back(op);
    }
    if (s_.trace) {
      // The in-process mirror the traced run replays each request through.
      mirror_ = std::make_unique<PlanCache>();
      mirrorDir_ = s_.runDir + "/mirror-" + std::to_string(::getpid());
      removeTree(mirrorDir_);
      mirrorDisk_ = std::make_unique<DiskPlanCache>(mirrorDir_);
      emitsAtSetup_ = emitterInvocations();
      setupTracer_ = Tracer();
      setupTracer_.enable();
      for (const Family& f : families()) {
        const KernelRequest req = makeKernelRequest(f.config, f.warmSizes);
        Tiers tiers{mirror_.get(), mirrorDisk_.get()};
        tieredCompile(setupTracer_, counters_, tiers, req.block,
                      effectiveOptions(kernelOptions(req)));
      }
    }
  }

  std::vector<Op> makeRound(Rng& rng, i64 round) {
    std::vector<Op> ops;
    for (size_t f = 0; f < families().size(); ++f)
      for (int k = 0; k < kNewPerFamily; ++k) {
        const i64 j = newCount_[f]++;
        ops.push_back({Kind::New, f, families()[f].newSize(j, rng.range(0, 1 << 20)), 0});
      }
    const Zipf zipf(served_.size(), kZipfExponent);
    for (int k = 0; k < kRepeatsPerRound; ++k) {
      Op op = served_[zipf.draw(rng)];
      op.kind = Kind::Repeat;
      ops.push_back(op);
    }
    for (int k = 0; k < kProgramsPerRound; ++k)
      ops.push_back({Kind::Trickle, 0, {}, static_cast<u64>(round * kProgramsPerRound + k)});
    for (int t = 0; t < kClients; ++t) ops.push_back({Kind::Stats, 0, {}, 0});
    for (size_t i = ops.size(); i > 1; --i)
      std::swap(ops[i - 1], ops[static_cast<size_t>(rng.range(0, static_cast<i64>(i) - 1))]);
    return ops;
  }

  std::pair<double, int> phase(Rng& rng, double seconds, int rounds, Latencies& lat) {
    const auto t0 = Clock::now();
    int done = 0;
    double blockCpu0 = processCpuMs(daemon_->pid());
    size_t blockRequests = 0;
    while (true) {
      const auto r0 = Clock::now();
      const size_t before = lat.ms.size();
      const i64 round = round_++;
      const std::vector<Op> ops = makeRound(rng, round);
      std::atomic<size_t> next{0};
      std::vector<ThreadLog> logs(kClients);
      std::vector<std::thread> threads;
      for (int t = 0; t < kClients; ++t)
        threads.emplace_back([&, t] {
          if (tracing_) logs[t].tracer.enable();
          for (size_t i; (i = next.fetch_add(1)) < ops.size();)
            runOp(*clients_[t], ops[i], round, i, logs[t]);
        });
      for (std::thread& th : threads) th.join();
      for (ThreadLog& log : logs) merge(log, lat);
      for (const Op& op : ops)
        if (op.kind == Kind::New) served_.push_back(op);
      const size_t requests = lat.ms.size() - before;
      roundRates_.push_back(static_cast<double>(requests) / (msSince(r0) / 1e3));
      blockRequests += requests;
      ++done;
      if (done % kCpuBlockRounds == 0) {
        const double cpu = processCpuMs(daemon_->pid());
        blockCpu_.push_back((cpu - blockCpu0) / static_cast<double>(blockRequests));
        blockCpu0 = cpu;
        blockRequests = 0;
      }
      if (rounds > 0 ? done >= rounds : msSince(t0) >= seconds * 1e3) break;
    }
    if (blockCpu_.empty() && blockRequests > 0)
      blockCpu_.push_back((processCpuMs(daemon_->pid()) - blockCpu0) /
                          static_cast<double>(blockRequests));
    return {msSince(t0), done};
  }

  void runOp(svc::ServiceClient& client, const Op& op, i64 round, size_t index, ThreadLog& log) {
    const std::string label = opLabel(op, round, index);
    log.attempts.push_back(label);
    try {
      if (op.kind == Kind::Stats) {
        (void)client.stats();
        return;
      }
      svc::CompileRequest wire;
      testgen::GeneratedProgram program;
      if (op.kind == Kind::Trickle) {
        program = trickleProgram(op.send % kTricklePrograms);
        wire.block = program.block;
        wire.options = trickleOptions(program, op.send);
      } else {
        wire = familyRequest(op);
      }
      const CompileOptions options = wire.options;
      log.tracer.beginRequest();
      svc::WireCompileReply reply;
      double ms = 0;
      {
        Tracer::Scope span(&log.tracer, "request");
        const auto t0 = Clock::now();
        reply = client.compile(std::move(wire));
        ms = msSince(t0);
      }
      log.lat.add(ms);
      const CompileResult& r = reply.result;
      if (op.kind == Kind::Trickle) {
        if (!r.ok && r.firstError().empty())
          log.failures.push_back({label, "failed with no error diagnostic"});
        log.trickles.push_back({round, index, op, r.clone()});
      } else if (!r.ok) {
        log.failures.push_back({label, "compile failed: " + r.firstError()});
      } else if (r.artifact != artifacts_[op.family]) {
        log.failures.push_back({label, "served artifact is not the family's artifact"});
      } else if (round < kKeptRounds && index < kKeptPositions) {
        // Their mean frame size and an identity sample are measured after
        // the timed phase.
        log.kept.push_back({round, index, op, r.clone()});
      }
      if (tracing_) {
        Tracer& tr = log.tracer;
        log.counters.serverMs += reply.serverMillis;
        log.counters.wireMs += reply.roundTripMillis - reply.serverMillis;
        ++log.counters.serverReplies;
        Tracer::Scope span(&tr, "probe");
        probeCodec(tr, log.counters, r);
        const ProgramBlock block =
            op.kind == Kind::Trickle ? program.block
                                     : makeKernelRequest(families()[op.family].config, op.sizes).block;
        Tiers tiers{mirror_.get(), mirrorDisk_.get()};
        tieredCompile(tr, log.counters, tiers, block, effectiveOptions(options));
      }
    } catch (const std::exception& e) {
      log.failures.push_back({label, std::string("request failed: ") + e.what()});
    }
  }

  void merge(ThreadLog& log, Latencies& lat) {
    lat.ms.insert(lat.ms.end(), log.lat.ms.begin(), log.lat.ms.end());
    for (const std::string& l : log.attempts) report_.ledger.attempt(l);
    for (const auto& [l, why] : log.failures) report_.ledger.fail(l, why);
    for (auto& k : log.kept) kept_.push_back(std::move(k));
    for (auto& k : log.trickles) trickles_.push_back(std::move(k));
    const auto self = log.tracer.selfTimes();
    for (const auto& [name, v] : self) {
      selfTimes_[name].first += v.first;
      selfTimes_[name].second += v.second;
    }
    counters_ += log.counters;
  }

  void finish() {
    i64 offchip = 0;
    PlanCache local;
    for (size_t f = 0; f < families().size(); ++f) {
      const Family& family = families()[f];
      const KernelRequest warm = makeKernelRequest(family.config, family.warmSizes);
      Compiler c(warm.block);
      c.options(kernelOptions(warm)).cache(&local);
      const CompileResult r = c.compile();
      if (r.artifact != artifacts_[f])
        report_.ledger.failRun(family.config.label + ": daemon artifact differs from local");
      const FamilyCheck check = checkFamilyArtifact(family, local, artifacts_[f], kFillSeed);
      counters_.interp += check.trace;
      offchip += offchipElems(check.trace);
      if (!check.ok) report_.ledger.failRun(family.config.label + ": " + check.why);
    }
    double replyBytes = 0;
    size_t replies = 0;
    std::vector<bool> sampled(families().size(), false);
    // Threads interleave differently in every run; order by position.
    auto byPlace = [](const Kept& a, const Kept& b) {
      return a.round != b.round ? a.round < b.round : a.index < b.index;
    };
    std::sort(trickles_.begin(), trickles_.end(), byPlace);
    std::sort(kept_.begin(), kept_.end(), byPlace);
    // Every trickle reply with a unit runs against its program's oracle;
    // the first cycle (each program once) is compared with local compiles.
    std::map<u64, std::shared_ptr<ArrayStore>> oracles;
    for (const Kept& k : trickles_) {
      const u64 index = k.op.send % kTricklePrograms;
      const CompileResult& r = k.result;
      const testgen::GeneratedProgram p = trickleProgram(index);
      const std::string label = "trickle:s99#" + std::to_string(index);
      if (r.ok && r.unit() != nullptr) {
        std::shared_ptr<ArrayStore>& oracle = oracles[index];
        if (oracle == nullptr) {
          oracle = std::make_shared<ArrayStore>(p.block.arrays);
          oracle->fillAllPattern(kFillSeed);
          executeReference(p.block, p.paramValues, *oracle);
        }
        const CheckOutcome out = compareWithOracle(p.block, p.paramValues, *oracle, r, kFillSeed);
        counters_.interp += out.trace;
        if (!out.ok) report_.ledger.fail(label, out.why);
      }
      if (k.op.send < kTricklePrograms) {
        Compiler c(p.block);
        c.options(trickleOptions(p, k.op.send));
        const CompileResult local = c.compile();
        if (local.ok != r.ok || local.artifact != r.artifact)
          report_.ledger.fail(label, "reply differs from a local compile");
      }
    }
    // The first kept new-size reply of each family is compared with an
    // isolated local compile, and gives that family's reply size.
    for (const Kept& k : kept_) {
      const Op& op = k.op;
      const CompileResult& r = k.result;
      if (op.kind != Kind::New || sampled[op.family]) continue;
      sampled[op.family] = true;
      replyBytes += static_cast<double>(svc::encodeCompileReply(r, 0.0).size() +
                                        svc::kFrameHeaderBytes);
      ++replies;
      const KernelRequest req = makeKernelRequest(families()[op.family].config, op.sizes);
      std::string why;
      if (!identicalToIsolated(req, r, &why)) report_.ledger.fail("new:" + req.label, why);
    }
    report_.metrics["offchip_elems"] = {static_cast<double>(offchip), "elements"};
    report_.metrics["reply_bytes"] = {replies > 0 ? replyBytes / static_cast<double>(replies) : 0,
                                      "bytes"};
    if (s_.trace) {
      mirrorDisk_.reset();
      removeTree(mirrorDir_);
      const auto setupSelf = setupTracer_.selfTimes();
      for (const auto& [name, v] : setupSelf) {
        selfTimes_[name].first += v.first;
        selfTimes_[name].second += v.second;
      }
      addLayerMetrics(report_.metrics, selfTimes_, counters_, tracedMeanMs_, untracedMeanMs_);
    }
  }

  const Settings& s_;
  RunReport& report_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<svc::ServiceClient>> clients_;
  std::vector<std::string> artifacts_;
  std::vector<Op> served_;
  std::vector<i64> newCount_;
  std::vector<Kept> kept_;
  std::vector<Kept> trickles_;
  u64 emitsAtSetup_ = 0;
  i64 round_ = 0;
  bool tracing_ = false;
  std::unique_ptr<PlanCache> mirror_;
  std::unique_ptr<DiskPlanCache> mirrorDisk_;
  std::string mirrorDir_;
  Tracer setupTracer_;
  Counters counters_;
  std::map<std::string, std::pair<double, i64>> selfTimes_;
  double tracedMeanMs_ = 0, untracedMeanMs_ = 0;
  std::vector<double> roundRates_, blockCpu_;
};

}  // namespace

void runDaemonMix(const Settings& settings, RunReport& report) { DaemonMix(settings, report).run(); }

}  // namespace perfbench
