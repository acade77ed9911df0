#include "families.h"

namespace perfbench {

using namespace emm;

const std::vector<Family>& families() {
  static const std::vector<Family> f = {
      {{"me/cuda", "me", "cuda", false, 16 * 1024, {16, 32, 16}},
       {1024, 1024, 16},
       [](i64 j, i64 pick) -> std::vector<i64> {
         return {1536 + 64 * j, 512 << (pick % 3), 16};
       }},
      {{"matmul/cuda", "matmul", "cuda", false, 16 * 1024, {64, 32, 16}},
       {256, 256, 256},
       [](i64 j, i64 pick) -> std::vector<i64> {
         return {256 + 64 * (j + 1), 256 + 64 * (pick % 5), 256};
       }},
      {{"jacobi/cell", "jacobi", "cell", true, 16 * 1024, {2048, 2}},
       {2048, 512},
       [](i64 j, i64) -> std::vector<i64> { return {2048, 512 + 8 * (j + 1)}; }},
      {{"jacobi2d/cell", "jacobi2d", "cell", true, 256 * 1024, {128, 128, 2}},
       {128, 128, 16},
       [](i64 j, i64) -> std::vector<i64> { return {128, 128, 16 + (j + 1)}; }},
  };
  return f;
}

FamilyCheck checkFamilyArtifact(const Family& family, PlanCache& cache,
                                const std::string& artifact, unsigned fillSeed) {
  FamilyCheck out;
  const KernelRequest check = makeKernelRequest(family.config, family.config.checkSizes);
  Compiler c(check.block);
  c.options(kernelOptions(check));
  c.cache(&cache);
  const CompileResult r = c.compile();
  if (!r.ok || !r.artifactBound) {
    out.ok = false;
    out.why = "check size " + check.label + " was not bound from the family record";
    return out;
  }
  if (r.artifact != artifact) {
    out.ok = false;
    out.why = "bound artifact differs from the family's served artifact";
    return out;
  }
  const CheckOutcome exec = executeAndCompare(check, r, referenceStore(check, fillSeed), fillSeed);
  out.trace = exec.trace;
  if (!exec.ok) {
    out.ok = false;
    out.why = "at check size " + check.label + ": " + exec.why;
    return out;
  }
  const CheckOutcome fits = footprintFits(check, r);
  if (!fits.ok) {
    out.ok = false;
    out.why = fits.why;
  }
  return out;
}

bool identicalToIsolated(const KernelRequest& request, const CompileResult& served,
                         std::string* why) {
  Compiler c(request.block);
  c.options(kernelOptions(request));
  const CompileResult cold = c.compile();
  if (!cold.ok || cold.artifact != served.artifact) {
    *why = "served artifact differs from an isolated cold compile of " + request.label;
    return false;
  }
  if (cold.search.subTile != served.search.subTile) {
    *why = "served tile differs from an isolated cold compile of " + request.label;
    return false;
  }
  return true;
}

}  // namespace perfbench
