// warm-sweep: one in-process Compiler configuration with a memory tier and
// a disk tier, warmed with four kernel families; the timed loop sends new
// sizes (binder), repeats (memory tier) and fresh-compiler requests (disk
// tier).
#include <unistd.h>

#include <algorithm>
#include <map>

#include "daemon.h"
#include "driver/backend.h"
#include "families.h"
#include "service/protocol.h"
#include "workload.h"

namespace perfbench {

using namespace emm;

namespace {

constexpr unsigned kFillSeed = 5;

enum class Kind { New, Repeat, Disk };

const char* kindName(Kind k) {
  switch (k) {
    case Kind::New: return "new";
    case Kind::Repeat: return "repeat";
    case Kind::Disk: return "disk";
  }
  return "?";
}

struct Op {
  Kind kind = Kind::New;
  size_t family = 0;
  std::vector<i64> sizes;
};

/// Round composition: per family one new size, then ten repeats of sizes
/// served recently and two fresh-compiler disk reads, in a seeded order.
/// Repeats are the larger share, so the median request is a memory hit.
constexpr int kNewPerFamily = 1;
constexpr int kRepeatsPerRound = 10;
constexpr int kDiskPerRound = 2;
constexpr i64 kRepeatWindow = 64;

class WarmSweep : public InProcessWorkload {
public:
  void setup() override {
    dir_ = settings.runDir + "/warm-" + std::to_string(::getpid());
    removeTree(dir_);
    memory_ = std::make_unique<PlanCache>();
    disk_ = std::make_unique<DiskPlanCache>(dir_);
    served_.clear();
    newCount_.assign(families().size(), 0);
    artifacts_.clear();
    firstRound_.clear();
    emitsAtSetup_ = emitterInvocations();
    for (const Family& f : families()) {
      CompileResult r = compile(Kind::New, makeKernelRequest(f.config, f.warmSizes));
      if (!r.ok) throw std::runtime_error("warming " + f.config.label + " failed");
      artifacts_.push_back(r.artifact);
      served_.push_back({Kind::New, artifacts_.size() - 1, f.warmSizes});
    }
  }

  size_t beginRound(Rng& rng) override {
    ops_.clear();
    for (size_t f = 0; f < families().size(); ++f)
      for (int k = 0; k < kNewPerFamily; ++k) {
        const i64 j = newCount_[f]++;
        ops_.push_back({Kind::New, f, families()[f].newSize(j, rng.range(0, 1 << 20))});
      }
    // Repeats draw from the most recently served sizes, which the memory
    // tier still holds (its capacity is 1024 results).
    const i64 window = std::min<i64>(kRepeatWindow, static_cast<i64>(served_.size()));
    for (int k = 0; k < kRepeatsPerRound; ++k) {
      Op op = served_[served_.size() - 1 - static_cast<size_t>(rng.range(0, window - 1))];
      op.kind = Kind::Repeat;
      ops_.push_back(op);
    }
    for (int k = 0; k < kDiskPerRound; ++k) {
      const size_t f = static_cast<size_t>(rng.range(0, static_cast<i64>(families().size()) - 1));
      ops_.push_back({Kind::Disk, f, families()[f].warmSizes});
    }
    for (size_t i = ops_.size(); i > 1; --i)
      std::swap(ops_[i - 1], ops_[static_cast<size_t>(rng.range(0, static_cast<i64>(i) - 1))]);
    return ops_.size();
  }

  double runOp(size_t i) override {
    const Op& op = ops_[i];
    const Family& family = families()[op.family];
    const KernelRequest req = makeKernelRequest(family.config, op.sizes);
    const std::string label = std::string(kindName(op.kind)) + ":" + req.label;
    ledger->attempt(label);
    const u64 emits = emitterInvocations();
    const auto t0 = Clock::now();
    CompileResult r = compile(op.kind, req);
    const double ms = msSince(t0);
    if (emitterInvocations() != emits) ledger->fail(label, "a warmed family was emitted again");
    if (settings.corruptArtifact && !corrupted_ && !r.artifact.empty()) {
      r.artifact[r.artifact.size() / 2] ^= 0x20;
      corrupted_ = true;
    }
    if (!r.ok) {
      ledger->fail(label, "compile failed: " + r.firstError());
    } else if (r.artifact != artifacts_[op.family]) {
      ledger->fail(label, "served artifact is not the family's artifact");
    } else if (op.kind == Kind::New && !r.artifactBound) {
      ledger->fail(label, "new size was not served by the binder");
    } else if (op.kind == Kind::Repeat && !r.cacheHit) {
      ledger->fail(label, "repeat was not served by the memory tier");
    } else if (op.kind == Kind::Disk && !r.diskHit) {
      ledger->fail(label, "fresh-compiler request was not served by the disk tier");
    }
    if (op.kind == Kind::New) served_.push_back(op);
    if (tracer.enabled()) {
      Tracer::Scope span(&tracer, "probe");
      probeCodec(tracer, counters, r);
      if (service_ == nullptr) service_ = std::make_unique<ServiceProbe>(settings);
      service_->probe(tracer, counters, req.block, kernelOptions(req));
    }
    if (firstRound_.size() < ops_.size()) firstRound_.push_back({op, std::move(r)});
    return ms;
  }

  void finish(RunReport& report) override {
    if (service_ != nullptr) service_->finish(counters);
    // Each warmed family emitted exactly once, at set-up.
    const u64 emits = emitterInvocations() - emitsAtSetup_;
    if (emits != families().size())
      ledger->failRun("warmed families were emitted " + std::to_string(emits) +
                      " times, expected " + std::to_string(families().size()));
    // Every distinct artifact served, run at a size inside its guards.
    i64 offchip = 0;
    for (size_t f = 0; f < families().size(); ++f) {
      const FamilyCheck c = checkFamilyArtifact(families()[f], *memory_, artifacts_[f], kFillSeed);
      counters.interp += c.trace;
      offchip += offchipElems(c.trace);
      if (!c.ok) failFamily(f, c.why);
    }
    // A seeded sample of served sizes (one per family from the first round)
    // must be byte-identical to isolated cold compiles. The same replies
    // give the mean reply size, one per family.
    double replyBytes = 0;
    std::vector<bool> sampled(families().size(), false);
    for (const auto& [op, r] : firstRound_) {
      if (op.kind != Kind::New || sampled[op.family]) continue;
      sampled[op.family] = true;
      replyBytes += static_cast<double>(svc::encodeCompileReply(r, 0.0).size() +
                                        svc::kFrameHeaderBytes);
      const KernelRequest req = makeKernelRequest(families()[op.family].config, op.sizes);
      std::string why;
      if (!identicalToIsolated(req, r, &why)) ledger->fail("new:" + req.label, why);
    }
    report.metrics["offchip_elems"] = {static_cast<double>(offchip), "elements"};
    report.metrics["reply_bytes"] = {replyBytes / static_cast<double>(families().size()),
                                     "bytes"};
    memory_.reset();
    disk_.reset();
    removeTree(dir_);
  }

private:
  /// One request as the library serves it: Compiler::compile untraced, the
  /// same resolution order layer by layer when traced.
  CompileResult compile(Kind kind, const KernelRequest& req) {
    const bool diskOnly = kind == Kind::Disk;
    if (!tracer.enabled()) {
      Compiler c(req.block);
      c.options(kernelOptions(req));
      if (!diskOnly) c.cache(memory_.get());
      c.diskCache(disk_.get());
      return c.compile();
    }
    tracer.beginRequest();
    Tracer::Scope span(&tracer, "request");
    Tiers tiers{diskOnly ? nullptr : memory_.get(), disk_.get()};
    return tieredCompile(tracer, counters, tiers, req.block, effectiveOptions(kernelOptions(req)));
  }

  void failFamily(size_t f, const std::string& why) {
    for (const auto& [op, r] : firstRound_)
      if (op.family == f)
        ledger->fail(std::string(kindName(op.kind)) + ":" +
                         makeKernelRequest(families()[f].config, op.sizes).label,
                     why);
    ledger->failRun(families()[f].config.label + ": " + why);
  }

  std::string dir_;
  std::unique_ptr<PlanCache> memory_;
  std::unique_ptr<DiskPlanCache> disk_;
  std::vector<Op> served_;
  std::vector<i64> newCount_;
  std::vector<std::string> artifacts_;
  std::vector<Op> ops_;
  std::vector<std::pair<Op, CompileResult>> firstRound_;
  u64 emitsAtSetup_ = 0;
  bool corrupted_ = false;
  std::unique_ptr<ServiceProbe> service_;
};

}  // namespace

std::unique_ptr<InProcessWorkload> makeWarmSweep() { return std::make_unique<WarmSweep>(); }

}  // namespace perfbench
