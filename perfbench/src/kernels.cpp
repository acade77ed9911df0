#include "kernels.h"

#include <cmath>

#include "kernels/blocks.h"

namespace perfbench {

using namespace emm;

KernelRequest makeKernelRequest(const KernelConfig& config, const std::vector<i64>& sizes) {
  KernelRequest r;
  r.config = &config;
  r.block = buildKernelByName(config.kernel, sizes, r.params);
  r.label = config.label;
  for (i64 s : r.params) r.label.append(":").append(std::to_string(s));
  return r;
}

CompileOptions kernelOptions(const KernelRequest& request) {
  const KernelConfig& k = *request.config;
  Compiler c;
  c.parameters(request.params).memoryLimitBytes(k.memBytes).backend(k.backend);
  if (k.scratchpadOnly) c.scratchpadOnly(true);
  return c.opts();
}

IntVec unitParams(const CompileResult& r, const IntVec& params) {
  IntVec ext = params;
  if (r.kernel.has_value() && r.kernel->analysis.tileBlock != nullptr)
    ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);
  return ext;
}

namespace {

/// Runs the plain-loop reference kernel on `store` in place; false when the
/// kernel has none.
bool runPlainReference(const KernelRequest& request, ArrayStore& store) {
  const std::string& k = request.config->kernel;
  const IntVec& p = request.params;
  if (k == "me") {
    referenceMe(store.raw(0), store.raw(1), store.raw(2), p[0], p[1], p[2]);
  } else if (k == "jacobi") {
    referenceJacobi(store.raw(0), store.raw(1), p[0], p[1]);
  } else if (k == "jacobi2d") {
    referenceJacobi2d(store.raw(0), store.raw(1), p[0], p[1], p[2]);
  } else if (k == "matmul") {
    referenceMatmul(store.raw(0), store.raw(1), store.raw(2), p[0], p[1], p[2]);
  } else {
    return false;
  }
  return true;
}

CheckOutcome failure(const std::string& why) {
  CheckOutcome c;
  c.ok = false;
  c.why = why;
  return c;
}

}  // namespace

emm::ArrayStore referenceStore(const KernelRequest& request, unsigned fillSeed) {
  ArrayStore want(request.block.arrays);
  want.fillAllPattern(fillSeed);
  executeReference(request.block, request.params, want);
  return want;
}

CheckOutcome executeAndCompare(const KernelRequest& request, const CompileResult& result,
                               const ArrayStore& oracle, unsigned fillSeed) {
  if (!result.ok) return failure("compile failed: " + result.firstError());
  // The oracle itself must agree with the plain-loop kernel (up to the
  // rounding of a different summation order).
  ArrayStore plain(request.block.arrays);
  plain.fillAllPattern(fillSeed);
  if (runPlainReference(request, plain) && ArrayStore::maxAbsDiff(plain, oracle) > 1e-9)
    return failure("executeReference disagrees with the plain-loop reference");
  return compareWithOracle(request.block, request.params, oracle, result, fillSeed);
}

CheckOutcome footprintFits(const KernelRequest& request, const CompileResult& result) {
  const CodeUnit* unit = result.unit();
  if (unit == nullptr) return failure("no executable unit");
  const CompileOptions o = kernelOptions(request);
  // A tiled kernel's footprint is its tile's, as the search evaluated it;
  // otherwise the interpreter sizes the buffers, which allocates the global
  // arrays too, so that is kept to blocks with small arrays.
  const i64 elems = result.kernel.has_value()
                        ? result.search.eval.footprint
                        : scratchpadFootprint(*unit, unitParams(result, request.params));
  const i64 bytes = elems * o.elementBytes;
  if (bytes > o.memLimitBytes)
    return failure("scratchpad footprint " + std::to_string(bytes) + " bytes exceeds the " +
                   std::to_string(o.memLimitBytes) + "-byte limit");
  return {};
}

CheckOutcome compareWithOracle(const ProgramBlock& block, const IntVec& params,
                               const ArrayStore& oracle, const CompileResult& result,
                               unsigned fillSeed) {
  const CodeUnit* unit = result.unit();
  if (unit == nullptr) return failure("no executable unit");
  ArrayStore got(block.arrays);
  got.fillAllPattern(fillSeed);
  CheckOutcome out;
  try {
    out.trace = executeCodeUnit(*unit, unitParams(result, params), got);
  } catch (const std::exception& e) {
    return failure(std::string("generated code threw: ") + e.what());
  }
  const double diff = ArrayStore::maxAbsDiff(got, oracle);
  if (diff != 0.0) return failure("output differs from oracle, max diff " + std::to_string(diff));
  return out;
}

}  // namespace perfbench
