// Calls into each layer of the compiler, made from outside through the
// public headers. The traced run uses these to put a span around every
// layer a request passes through; the counters feed the per-layer metrics.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common.h"
#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/plan_cache.h"
#include "ir/interp.h"
#include "service/protocol.h"

namespace perfbench {

/// Counts gathered at the layer boundaries during a run.
struct Counters {
  i64 rounds = 0;
  i64 tilesearchEvals = 0;
  i64 tilesearchMemoHits = 0;
  i64 mapped = 0;      ///< compiles that produced an executable unit
  i64 fallbacks = 0;   ///< compiles that fell back cleanly (no unit)
  i64 artifactBytes = 0;
  i64 artifacts = 0;
  emm::MemTrace interp;  ///< summed over the run's check executions
  i64 cacheHits = 0, cacheMisses = 0, familyHits = 0, familyMisses = 0;
  i64 binds = 0, bindRejects = 0;
  i64 diskHits = 0, diskRejects = 0;
  i64 serializeBytes = 0, serializeRuns = 0;
  u64 emitCalls = 0;
  double serverMs = 0, wireMs = 0;
  i64 serverReplies = 0;
  i64 serverFastPath = 0, serverMemoryHits = 0, serverFamilyHits = 0, serverCompiles = 0;

  /// Records the pipeline outcome of one cold compile.
  void countCompile(const emm::CompileResult& r);
  /// Adds another thread's counts (everything but `rounds`).
  Counters& operator+=(const Counters& o);
};

/// The option set Compiler::compile() actually keys and runs with: the cell
/// backend forces every reference through the local store.
emm::CompileOptions effectiveOptions(emm::CompileOptions o);

/// Runs the standard passes on a CompileState, one span per pass, the way
/// Compiler runs them on a cache miss. `familyIn` serves the family products
/// (may be null); when `familyOut` is non-null and no family is served, the
/// run records a fresh FamilyPlan into it. `codegen` replaces the codegen
/// pass when non-null.
emm::CompileResult runPasses(Tracer& tracer, const emm::ProgramBlock& block,
                             const emm::CompileOptions& effective,
                             std::shared_ptr<const emm::FamilyPlan> familyIn,
                             std::shared_ptr<emm::FamilyPlan>* familyOut,
                             emm::Pass* codegen = nullptr);

/// The cache tiers a tiered request resolves through.
struct Tiers {
  emm::PlanCache* memory = nullptr;
  emm::DiskPlanCache* disk = nullptr;
};

/// One request through the library's resolution order — key digest, memory
/// tier, disk tier, family digest, family lookup, binder, and the passes on
/// a miss — with a span around each layer call.
emm::CompileResult tieredCompile(Tracer& tracer, Counters& counters, const Tiers& tiers,
                                 const emm::ProgramBlock& block,
                                 const emm::CompileOptions& effective);

/// Probes the layers a cold request does not pass through, on its own block
/// and result: both digests, a memory-tier hit, a disk read and decode, and a
/// bind of the request's size against the family the cold run recorded.
class ColdTierProbe {
public:
  explicit ColdTierProbe(const std::string& diskDir);
  void probe(Tracer& tracer, Counters& counters, const emm::ProgramBlock& block,
             const emm::CompileOptions& effective, const emm::CompileResult& result,
             const std::shared_ptr<emm::FamilyPlan>& family);

private:
  emm::PlanCache cache_;
  emm::DiskPlanCache disk_;
};

/// Codec and protocol cost of shipping a served result: serialize,
/// deserialize, and decode of the CompileReply frame payload.
void probeCodec(Tracer& tracer, Counters& counters, const emm::CompileResult& result);

/// Sum of MemTrace global reads and writes.
inline i64 offchipElems(const emm::MemTrace& t) { return t.globalReads + t.globalWrites; }

/// Adds the per-layer metrics derived from the span self times and the
/// counters. `tracedMeanMs` and `untracedMeanMs` are the mean request times
/// of the traced and the untraced phase of the same run.
void addLayerMetrics(Metrics& out, const std::map<std::string, std::pair<double, i64>>& self,
                     const Counters& c, double tracedMeanMs, double untracedMeanMs);

}  // namespace perfbench
