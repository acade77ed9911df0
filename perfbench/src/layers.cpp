#include "layers.h"

#include <algorithm>

#include "driver/family_plan.h"
#include "driver/pass.h"
#include "driver/runtime_binder.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace perfbench {

using namespace emm;

void Counters::countCompile(const CompileResult& r) {
  tilesearchEvals += r.search.evaluations;
  tilesearchMemoHits += r.search.memoHits;
  if (r.ok && r.unit() != nullptr) {
    ++mapped;
    artifactBytes += static_cast<i64>(r.artifact.size());
    ++artifacts;
  } else {
    ++fallbacks;
  }
}

Counters& Counters::operator+=(const Counters& o) {
  tilesearchEvals += o.tilesearchEvals;
  tilesearchMemoHits += o.tilesearchMemoHits;
  mapped += o.mapped;
  fallbacks += o.fallbacks;
  artifactBytes += o.artifactBytes;
  artifacts += o.artifacts;
  interp += o.interp;
  cacheHits += o.cacheHits;
  cacheMisses += o.cacheMisses;
  familyHits += o.familyHits;
  familyMisses += o.familyMisses;
  binds += o.binds;
  bindRejects += o.bindRejects;
  diskHits += o.diskHits;
  diskRejects += o.diskRejects;
  serializeBytes += o.serializeBytes;
  serializeRuns += o.serializeRuns;
  emitCalls += o.emitCalls;
  serverMs += o.serverMs;
  wireMs += o.wireMs;
  serverReplies += o.serverReplies;
  serverFastPath += o.serverFastPath;
  serverMemoryHits += o.serverMemoryHits;
  serverFamilyHits += o.serverFamilyHits;
  serverCompiles += o.serverCompiles;
  return *this;
}

CompileOptions effectiveOptions(CompileOptions o) {
  if (o.backendName == "cell") o.stageEverything = true;
  return o;
}

namespace {

/// Digest of no skipped passes, as Compiler keys a default pipeline.
u64 noSkippedPasses() {
  Hasher h;
  h.mix(std::vector<std::string>{});
  return h.digest();
}

PlanKey planKey(const ProgramBlock& block, const CompileOptions& effective) {
  PlanKey key;
  key.block = hashProgramBlock(block);
  key.options = hashCompileOptions(effective);
  key.passes = noSkippedPasses();
  return key;
}

struct FamilyDigests {
  FamilyKey key;
  u64 blockDigest = 0;
  u64 optionsDigest = 0;
  u64 combined = 0;
};

FamilyDigests familyDigests(const ProgramBlock& block, const CompileOptions& effective) {
  const ProgramBlock famBlock = familyCanonicalBlock(block);
  const CompileOptions famOptions = familyCanonicalOptions(effective);
  FamilyDigests d;
  d.key.block = hashProgramBlock(famBlock);
  d.key.options = hashCompileOptions(famOptions);
  d.key.passes = noSkippedPasses();
  d.blockDigest = digestBytes(serializeProgramBlock(famBlock));
  d.optionsDigest = digestBytes(serializeCompileOptions(famOptions));
  d.combined = hashCombine(d.blockDigest, d.optionsDigest);
  return d;
}

}  // namespace

CompileResult runPasses(Tracer& tracer, const ProgramBlock& block, const CompileOptions& effective,
                        std::shared_ptr<const FamilyPlan> familyIn,
                        std::shared_ptr<FamilyPlan>* familyOut, Pass* codegen) {
  const PassRegistry& registry = PassRegistry::standard();
  CompileState state;
  state.options = effective;
  state.familyIn = std::move(familyIn);
  if (state.familyIn == nullptr && familyOut != nullptr)
    state.familyOut = std::make_shared<FamilyPlan>();
  state.input = std::make_unique<ProgramBlock>(block);
  for (const std::string& name : registry.order()) {
    PassPtr owned;
    Pass* pass = nullptr;
    if (codegen != nullptr && name == "codegen") {
      pass = codegen;
    } else {
      owned = registry.create(name);
      pass = owned.get();
    }
    {
      Tracer::Scope span(&tracer, name.c_str());
      try {
        pass->run(state);
      } catch (const ApiError& e) {
        state.error(name, e.what());
      }
    }
    state.subTimings.clear();
    if (state.failed) break;
  }
  CompileResult result;
  result.ok = !state.failed;
  result.familyHit = state.familyUsed;
  if (familyOut != nullptr) *familyOut = std::move(state.familyOut);
  result.diagnostics = std::move(state.diagnostics);
  static_cast<PipelineProducts&>(result) = std::move(static_cast<PipelineProducts&>(state));
  return result;
}

CompileResult tieredCompile(Tracer& tracer, Counters& counters, const Tiers& tiers,
                            const ProgramBlock& block, const CompileOptions& effective) {
  PlanKey key;
  {
    Tracer::Scope span(&tracer, "fingerprint.key");
    key = planKey(block, effective);
  }
  if (tiers.memory != nullptr) {
    const auto t0 = Clock::now();
    std::optional<CompileResult> hit = tiers.memory->lookup(key);
    tracer.record(hit ? "plan_cache.hit" : "plan_cache.miss", msSince(t0));
    if (hit) {
      ++counters.cacheHits;
      hit->cacheHit = true;
      return std::move(*hit);
    }
    ++counters.cacheMisses;
  }
  if (tiers.disk != nullptr) {
    std::optional<CompileResult> hit;
    const i64 rejectsBefore = tiers.disk->stats().rejects;
    {
      Tracer::Scope span(&tracer, "disk.lookup");
      hit = tiers.disk->lookup(key, block, effective);
    }
    counters.diskRejects += tiers.disk->stats().rejects - rejectsBefore;
    if (hit) {
      ++counters.diskHits;
      if (tiers.memory != nullptr) tiers.memory->insert(key, *hit);
      return std::move(*hit);
    }
  }
  FamilyDigests fam;
  {
    Tracer::Scope span(&tracer, "fingerprint.family");
    fam = familyDigests(block, effective);
  }
  std::shared_ptr<const FamilyPlan> family;
  if (tiers.memory != nullptr) {
    Tracer::Scope span(&tracer, "plan_cache.family");
    family = tiers.memory->lookupFamily(fam.key, fam.combined);
  }
  if (family == nullptr && tiers.disk != nullptr) {
    Tracer::Scope span(&tracer, "disk.family");
    family = tiers.disk->lookupFamily(fam.key, fam.blockDigest, fam.optionsDigest);
    if (family != nullptr && tiers.memory != nullptr)
      tiers.memory->insertFamily(fam.key, fam.combined, family);
  }
  (family != nullptr ? counters.familyHits : counters.familyMisses) += 1;
  if (family != nullptr && family->haveRecord) {
    std::optional<CompileResult> bound;
    {
      Tracer::Scope span(&tracer, "binder");
      bound = bindFamilyArtifact(*family, block, effective, nullptr);
    }
    if (bound) {
      ++counters.binds;
      if (tiers.memory != nullptr) tiers.memory->insert(key, *bound);
      return std::move(*bound);
    }
    ++counters.bindRejects;
  }
  std::shared_ptr<FamilyPlan> produced;
  CompileResult result = runPasses(tracer, block, effective, family, &produced);
  counters.countCompile(result);
  if (result.ok) {
    if (produced != nullptr) {
      attachFamilyRecord(*produced, result, effective);
      if (tiers.memory != nullptr) tiers.memory->insertFamily(fam.key, fam.combined, produced);
      if (tiers.disk != nullptr)
        tiers.disk->insertFamily(fam.key, fam.blockDigest, fam.optionsDigest, produced);
    }
    if (tiers.disk != nullptr) tiers.disk->insert(key, effective, result);
    if (tiers.memory != nullptr) tiers.memory->insert(key, result);
  }
  return result;
}

ColdTierProbe::ColdTierProbe(const std::string& diskDir) : cache_(4096, 1), disk_(diskDir) {}

void ColdTierProbe::probe(Tracer& tracer, Counters& counters, const ProgramBlock& block,
                          const CompileOptions& effective, const CompileResult& result,
                          const std::shared_ptr<FamilyPlan>& family) {
  PlanKey key;
  {
    Tracer::Scope span(&tracer, "fingerprint.key");
    key = planKey(block, effective);
  }
  {
    Tracer::Scope span(&tracer, "fingerprint.family");
    (void)familyDigests(block, effective);
  }
  if (!result.ok) return;
  cache_.insert(key, result);
  {
    const auto t0 = Clock::now();
    std::optional<CompileResult> hit = cache_.lookup(key);
    tracer.record(hit ? "plan_cache.hit" : "plan_cache.miss", msSince(t0));
    (hit ? counters.cacheHits : counters.cacheMisses) += 1;
  }
  disk_.insert(key, effective, result);
  {
    const i64 rejectsBefore = disk_.stats().rejects;
    std::optional<CompileResult> hit;
    {
      Tracer::Scope span(&tracer, "disk.lookup");
      hit = disk_.lookup(key, block, effective);
    }
    counters.diskRejects += disk_.stats().rejects - rejectsBefore;
    if (hit) ++counters.diskHits;
  }
  if (family != nullptr && result.unit() != nullptr) {
    attachFamilyRecord(*family, result, effective);
    if (family->haveRecord) {
      std::optional<CompileResult> bound;
      {
        Tracer::Scope span(&tracer, "binder");
        bound = bindFamilyArtifact(*family, block, effective, nullptr);
      }
      (bound ? counters.binds : counters.bindRejects) += 1;
    }
  }
}

void probeCodec(Tracer& tracer, Counters& counters, const CompileResult& result) {
  std::string bytes;
  {
    Tracer::Scope span(&tracer, "serialize.encode");
    bytes = serializeCompileResult(result);
  }
  {
    Tracer::Scope span(&tracer, "serialize.decode");
    (void)deserializeCompileResult(bytes);
  }
  counters.serializeBytes += static_cast<i64>(bytes.size());
  ++counters.serializeRuns;
  const std::string reply = svc::encodeCompileReply(result, 0.0);
  Tracer::Scope span(&tracer, "protocol.decode");
  (void)svc::decodeCompileReply(reply);
}

namespace {

double meanSelf(const std::map<std::string, std::pair<double, i64>>& self,
                const std::vector<std::string>& names) {
  double ms = 0;
  i64 n = 0;
  for (const std::string& name : names) {
    auto it = self.find(name);
    if (it == self.end()) continue;
    ms += it->second.first;
    n += it->second.second;
  }
  return n > 0 ? ms / static_cast<double>(n) : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void addLayerMetrics(Metrics& out, const std::map<std::string, std::pair<double, i64>>& self,
                     const Counters& c, double tracedMeanMs, double untracedMeanMs) {
  const double rounds = static_cast<double>(std::max<i64>(1, c.rounds));
  auto perRound = [&](double v) { return v / rounds; };
  for (const char* pass : {"deps", "transform", "tilesearch", "tiling", "smem", "codegen"})
    out[std::string(pass) + ".ms"] = {meanSelf(self, {pass}), "ms"};
  out["tilesearch.evals"] = {perRound(static_cast<double>(c.tilesearchEvals)), "count"};
  out["tilesearch.memo_hits"] = {perRound(static_cast<double>(c.tilesearchMemoHits)), "count"};
  out["pipeline.mapped"] = {perRound(static_cast<double>(c.mapped)), "count"};
  out["pipeline.fallbacks"] = {perRound(static_cast<double>(c.fallbacks)), "count"};
  out["pipeline.mapped_ratio"] = {
      ratio(static_cast<double>(c.mapped), static_cast<double>(c.mapped + c.fallbacks)), "ratio"};
  out["codegen.artifact_bytes"] = {
      ratio(static_cast<double>(c.artifactBytes), static_cast<double>(c.artifacts)), "bytes"};
  out["interp.global_elems"] = {static_cast<double>(offchipElems(c.interp)), "elements"};
  out["interp.local_elems"] = {static_cast<double>(c.interp.localReads + c.interp.localWrites),
                               "elements"};
  out["interp.copy_elems"] = {static_cast<double>(c.interp.copyElements), "elements"};
  out["interp.syncs"] = {static_cast<double>(c.interp.syncs), "count"};
  out["fingerprint.key_us"] = {1e3 * meanSelf(self, {"fingerprint.key"}), "us"};
  out["fingerprint.family_us"] = {1e3 * meanSelf(self, {"fingerprint.family"}), "us"};
  out["plan_cache.hit_us"] = {1e3 * meanSelf(self, {"plan_cache.hit"}), "us"};
  out["plan_cache.hits"] = {perRound(static_cast<double>(c.cacheHits)), "count"};
  out["plan_cache.misses"] = {perRound(static_cast<double>(c.cacheMisses)), "count"};
  out["plan_cache.family_hits"] = {perRound(static_cast<double>(c.familyHits)), "count"};
  out["plan_cache.family_misses"] = {perRound(static_cast<double>(c.familyMisses)), "count"};
  out["binder.us"] = {1e3 * meanSelf(self, {"binder"}), "us"};
  out["binder.binds"] = {perRound(static_cast<double>(c.binds)), "count"};
  out["binder.rejects"] = {perRound(static_cast<double>(c.bindRejects)), "count"};
  out["binder.bind_ratio"] = {
      ratio(static_cast<double>(c.binds), static_cast<double>(c.binds + c.bindRejects)), "ratio"};
  out["disk.lookup_us"] = {1e3 * meanSelf(self, {"disk.lookup"}), "us"};
  out["disk.hits"] = {perRound(static_cast<double>(c.diskHits)), "count"};
  out["disk.rejects"] = {perRound(static_cast<double>(c.diskRejects)), "count"};
  out["serialize.encode_us"] = {1e3 * meanSelf(self, {"serialize.encode"}), "us"};
  out["serialize.decode_us"] = {1e3 * meanSelf(self, {"serialize.decode"}), "us"};
  out["serialize.bytes"] = {
      ratio(static_cast<double>(c.serializeBytes), static_cast<double>(c.serializeRuns)), "bytes"};
  out["emit.calls"] = {static_cast<double>(c.emitCalls), "count"};
  const double replies = static_cast<double>(c.serverReplies);
  const double serverMs = ratio(c.serverMs, replies);
  const double wireMs = ratio(c.wireMs, replies);
  out["client.roundtrip_ms"] = {serverMs + wireMs, "ms"};
  out["server.ms"] = {serverMs, "ms"};
  out["wire.overhead_ms"] = {wireMs, "ms"};
  out["protocol.decode_us"] = {1e3 * meanSelf(self, {"protocol.decode"}), "us"};
  out["server.fast_path"] = {perRound(static_cast<double>(c.serverFastPath)), "count"};
  out["server.memory_hits"] = {perRound(static_cast<double>(c.serverMemoryHits)), "count"};
  out["server.family_hits"] = {perRound(static_cast<double>(c.serverFamilyHits)), "count"};
  out["server.compiles"] = {perRound(static_cast<double>(c.serverCompiles)), "count"};
  out["trace.overhead_pct"] = {
      untracedMeanMs > 0 ? 100.0 * (tracedMeanMs / untracedMeanMs - 1.0) : 0.0, "%"};
}

}  // namespace perfbench
