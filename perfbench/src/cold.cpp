// cold-kernels and cold-corpus: compiles with no cache attached, so the
// passes do all the work.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "daemon.h"
#include "kernels.h"
#include "service/protocol.h"
#include "testgen/generator.h"
#include "testgen/planted_bug.h"
#include "workload.h"

namespace perfbench {

using namespace emm;

namespace {

/// One cold compile request of a round.
struct ColdRequest {
  std::string label;
  std::string group;  ///< kernel configuration label, or the corpus seed
  size_t roundGroup = 0;  ///< which rounds compile it (see roundGroups_)
  ProgramBlock block;
  CompileOptions options;
  // cold-corpus only: the oracle store of the untransformed block.
  IntVec params;
  std::shared_ptr<ArrayStore> oracle;
  // cold-kernels only.
  std::optional<KernelRequest> kernel;
};

constexpr unsigned kFillSeed = 5;

/// The shared machinery: a fixed list of requests compiled cold. Rounds take
/// the request groups in turn (all requests form one group unless a
/// workload splits them), each in a seeded order; first results are kept
/// for the checks and later rounds must reproduce their artifacts.
class ColdWorkload : public InProcessWorkload {
public:
  size_t beginRound(Rng& rng) override {
    const size_t groups = std::max<size_t>(1, roundGroups_);
    const size_t group = rounds_++ % groups;
    order_.clear();
    for (size_t i = 0; i < requests_.size(); ++i)
      if (requests_[i].roundGroup == group) order_.push_back(i);
    for (size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[static_cast<size_t>(rng.range(0, static_cast<i64>(i) - 1))]);
    return order_.size();
  }

  double runOp(size_t i) override {
    const size_t index = order_[i];
    const ColdRequest& req = requests_[index];
    ledger->attempt(req.label);
    CompileResult r;
    double ms = 0;
    if (!tracer.enabled()) {
      Compiler c(req.block);
      c.options(req.options);
      if (settings.plantBug) testgen::plantTilerBug(c);
      const auto t0 = Clock::now();
      r = c.compile();
      ms = msSince(t0);
    } else {
      tracer.beginRequest();
      std::shared_ptr<FamilyPlan> family;
      const CompileOptions eff = effectiveOptions(req.options);
      {
        const auto t0 = Clock::now();
        Tracer::Scope span(&tracer, "request");
        r = runPasses(tracer, req.block, eff, nullptr, &family, bugPass_.get());
        ms = msSince(t0);
      }
      counters.countCompile(r);
      Tracer::Scope span(&tracer, "probe");
      if (probe_ == nullptr) {
        probeDir_ = settings.runDir + "/probe-" + std::to_string(::getpid());
        removeTree(probeDir_);
        probe_ = std::make_unique<ColdTierProbe>(probeDir_);
        service_ = std::make_unique<ServiceProbe>(settings);
      }
      probe_->probe(tracer, counters, req.block, eff, r, family);
      probeCodec(tracer, counters, r);
      service_->probe(tracer, counters, req.block, req.options);
    }
    // Every round must reproduce the first round's output.
    auto it = first_.find(index);
    if (it == first_.end()) {
      first_.emplace(index, std::move(r));
    } else if (it->second.artifact != r.artifact || it->second.ok != r.ok) {
      ledger->fail(req.label, "output differs from the first round's");
    }
    return ms;
  }

  void finish(RunReport& report) override {
    if (service_ != nullptr) service_->finish(counters);
    i64 offchip = 0;
    double replyBytes = 0;
    for (const auto& [index, r] : first_) {
      const ColdRequest& req = requests_[index];
      replyBytes += static_cast<double>(svc::encodeCompileReply(r, 0.0).size() +
                                        svc::kFrameHeaderBytes);
      offchip += checkResult(req, r);
    }
    offchip += checkGroups();
    report.metrics["offchip_elems"] = {static_cast<double>(offchip), "elements"};
    report.metrics["reply_bytes"] = {replyBytes / static_cast<double>(first_.size()), "bytes"};
    report.knownFaults = knownFaults_;
    if (!probeDir_.empty()) removeTree(probeDir_);
  }

protected:
  /// Checks one request's first-round result; returns off-chip elements
  /// moved by the executions it made.
  virtual i64 checkResult(const ColdRequest& req, const CompileResult& r) = 0;
  /// Checks shared by a group of requests; returns off-chip elements.
  virtual i64 checkGroups() { return 0; }

  void failGroup(const std::string& group, const std::string& why) {
    for (const ColdRequest& req : requests_)
      if (req.group == group) ledger->fail(req.label, why);
  }

  void countInterp(const CheckOutcome& c) { counters.interp += c.trace; }

  void resetRun() {
    first_.clear();
    rounds_ = 0;
    if (settings.plantBug) bugPass_ = std::make_shared<testgen::PlantedTilerBugPass>();
  }

  std::vector<ColdRequest> requests_;
  /// Rounds cycle through this many groups of requests (ColdRequest::roundGroup).
  size_t roundGroups_ = 1;
  std::set<std::string> knownFaults_;
  std::shared_ptr<Pass> bugPass_;

private:
  std::vector<size_t> order_;
  size_t rounds_ = 0;
  std::map<size_t, CompileResult> first_;
  std::unique_ptr<ColdTierProbe> probe_;
  std::unique_ptr<ServiceProbe> service_;
  std::string probeDir_;
};

// ---- cold-kernels ----------------------------------------------------------

const std::vector<KernelConfig>& kernelConfigs() {
  static const std::vector<KernelConfig> configs = {
      {"me/cuda", "me", "cuda", false, 16 * 1024, {32, 32, 8}},
      {"matmul/cuda", "matmul", "cuda", false, 16 * 1024, {64, 32, 16}},
      {"jacobi/cell", "jacobi", "cell", true, 16 * 1024, {64, 8}},
      {"jacobi2d/cell", "jacobi2d", "cell", true, 256 * 1024, {16, 16, 4}},
      {"figure1/c", "figure1", "c", true, 16 * 1024, {}},
  };
  return configs;
}

class ColdKernels : public ColdWorkload {
public:
  void setup() override {
    resetRun();
    requests_.clear();
    const std::vector<KernelConfig>& k = kernelConfigs();
    auto add = [&](const KernelConfig& config, const std::vector<i64>& sizes) {
      ColdRequest req;
      req.kernel = makeKernelRequest(config, sizes);
      req.label = req.kernel->label;
      req.group = config.label;
      req.block = req.kernel->block;
      req.options = kernelOptions(*req.kernel);
      requests_.push_back(std::move(req));
    };
    // Figure 4: ME over 256K..64M frame points (nj = 1024, w = 16).
    for (i64 ni : {256, 1024, 2048, 4096, 9216, 16384, 65536}) add(k[0], {ni, 1024, 16});
    add(k[1], {128, 128, 128});
    add(k[1], {512, 512, 512});
    // Figure 5's compile sweep: n = 2K (the local-store bound), time steps.
    for (i64 t : {512, 4096, 32768}) add(k[2], {2048, t});
    add(k[3], {128, 128, 16});
    add(k[3], {64, 64, 16});
    add(k[4], {});
    // The oracles of the check sizes: the untransformed block, interpreted.
    checks_.clear();
    for (const KernelConfig& config : k) {
      KernelRequest check = makeKernelRequest(config, config.checkSizes);
      auto oracle = std::make_shared<ArrayStore>(referenceStore(check, kFillSeed));
      checks_.emplace_back(std::move(check), std::move(oracle));
    }
  }

protected:
  i64 checkResult(const ColdRequest& req, const CompileResult& r) override {
    if (!r.ok || r.unit() == nullptr) {
      ledger->fail(req.label, "compile failed: " + r.firstError());
      return 0;
    }
    const CheckOutcome fits = footprintFits(*req.kernel, r);
    if (!fits.ok) ledger->fail(req.label, fits.why);
    return 0;
  }

  /// Each configuration's generated code, compiled the same way at its
  /// check sizes, must equal the oracle element-exactly.
  i64 checkGroups() override {
    i64 offchip = 0;
    for (size_t g = 0; g < checks_.size(); ++g) {
      const KernelConfig& config = kernelConfigs()[g];
      const KernelRequest& check = checks_[g].first;
      Compiler c(check.block);
      c.options(kernelOptions(check));
      if (settings.plantBug) testgen::plantTilerBug(c);
      const CompileResult r = c.compile();
      const CheckOutcome out = executeAndCompare(check, r, *checks_[g].second, kFillSeed);
      countInterp(out);
      offchip += offchipElems(out.trace);
      if (!out.ok) failGroup(config.label, "at check size " + check.label + ": " + out.why);
      const CheckOutcome fits = r.unit() != nullptr ? footprintFits(check, r) : out;
      if (!fits.ok) failGroup(config.label, "at check size " + check.label + ": " + fits.why);
    }
    return offchip;
  }

private:
  /// Per configuration: the check-size request and its oracle store.
  std::vector<std::pair<KernelRequest, std::shared_ptr<ArrayStore>>> checks_;
};

// ---- cold-corpus -----------------------------------------------------------

/// The corpus: testgen seed 7 programs #0-#99 and seed 12345 programs
/// #100-#199, compiled on `c` with innerProcs 4 (the emmfuzz defaults).
struct CorpusSlice {
  u64 seed;
  u64 first, count;
};
constexpr CorpusSlice kCorpus[] = {{7, 0, 100}, {12345, 100, 100}};

class ColdCorpus : public ColdWorkload {
public:
  void setup() override {
    resetRun();
    requests_.clear();
    knownFaults_ = {"s7#17", "s12345#131"};
    // A round compiles one slice; each slice holds one known fault, so the
    // failed share is the same after any number of rounds.
    roundGroups_ = std::size(kCorpus);
    for (size_t s = 0; s < std::size(kCorpus); ++s) {
      const CorpusSlice& slice = kCorpus[s];
      testgen::GeneratorOptions gen;
      gen.seed = slice.seed;
      const testgen::ProgramGenerator generator(gen);
      for (u64 i = slice.first; i < slice.first + slice.count; ++i) {
        testgen::GeneratedProgram p = generator.generate(i);
        ColdRequest req;
        req.group = std::string("s").append(std::to_string(slice.seed));
        req.label = req.group + "#" + std::to_string(i);
        req.roundGroup = s;
        req.options.innerProcs = 4;
        req.options.paramValues = p.paramValues;
        req.params = p.paramValues;
        req.oracle = std::make_shared<ArrayStore>(p.block.arrays);
        req.oracle->fillAllPattern(kFillSeed);
        executeReference(p.block, p.paramValues, *req.oracle);
        req.block = std::move(p.block);
        requests_.push_back(std::move(req));
      }
    }
  }

protected:
  i64 checkResult(const ColdRequest& req, const CompileResult& r) override {
    if (!r.ok) {
      // A rejected program must explain itself; a silent failure is a bug.
      if (r.firstError().empty()) ledger->fail(req.label, "failed with no error diagnostic");
      return 0;
    }
    if (r.unit() == nullptr) return 0;  // clean fallback: nothing to run
    const CheckOutcome out = compareWithOracle(req.block, req.params, *req.oracle, r, kFillSeed);
    countInterp(out);
    if (!out.ok) ledger->fail(req.label, out.why);
    const i64 bytes =
        scratchpadFootprint(*r.unit(), unitParams(r, req.params)) * req.options.elementBytes;
    if (bytes > req.options.memLimitBytes)
      ledger->fail(req.label, "scratchpad footprint " + std::to_string(bytes) +
                                  " bytes exceeds the limit");
    return offchipElems(out.trace);
  }
};

}  // namespace

std::unique_ptr<InProcessWorkload> makeColdKernels() { return std::make_unique<ColdKernels>(); }
std::unique_ptr<InProcessWorkload> makeColdCorpus() { return std::make_unique<ColdCorpus>(); }

}  // namespace perfbench
