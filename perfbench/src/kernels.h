// The paper's kernels as benchmark requests, and the checks that run the
// generated code in the interpreter against computations made apart from
// the compiler.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "driver/compiler.h"
#include "ir/interp.h"

namespace perfbench {

/// One kernel configuration: which block, which backend and flow, and the
/// scratchpad it must fit.
struct KernelConfig {
  std::string label;    ///< e.g. "me/cuda"
  std::string kernel;   ///< buildKernelByName name
  std::string backend;  ///< "c", "cuda" or "cell"
  bool scratchpadOnly = false;
  i64 memBytes = 16 * 1024;
  std::vector<i64> checkSizes;  ///< small sizes the interpreter runs quickly
};

/// A compile request for a kernel configuration at one size.
struct KernelRequest {
  const KernelConfig* config = nullptr;
  emm::ProgramBlock block;
  emm::IntVec params;
  std::string label;  ///< config label plus sizes
};

KernelRequest makeKernelRequest(const KernelConfig& config, const std::vector<i64>& sizes);

/// The options a request is compiled with (as a caller sets them).
emm::CompileOptions kernelOptions(const KernelRequest& request);

/// Result of executing one generated unit against its reference.
struct CheckOutcome {
  bool ok = true;
  std::string why;
  emm::MemTrace trace;
};

/// Interpreter parameters of a compiled unit: the tiled kernel's block
/// appends tile-origin parameters bound by the tile loops, zero-filled here.
emm::IntVec unitParams(const emm::CompileResult& r, const emm::IntVec& params);

/// The expected store of a request: executeReference on the untransformed
/// block over a pattern-filled store.
emm::ArrayStore referenceStore(const KernelRequest& request, unsigned fillSeed);

/// Executes the result's unit on a pattern-filled store and compares every
/// array element-exactly with `oracle` (from referenceStore). The oracle is
/// first checked against the plain-loop reference kernel where one exists.
CheckOutcome executeAndCompare(const KernelRequest& request, const emm::CompileResult& result,
                               const emm::ArrayStore& oracle, unsigned fillSeed);

/// The scratchpad footprint of the result's unit at the request's sizes fits
/// the configuration's memory limit: the searched tile's footprint for a
/// tiled kernel, the interpreter's buffer sizes otherwise.
CheckOutcome footprintFits(const KernelRequest& request, const emm::CompileResult& result);

/// Executes a generated program's unit against executeReference on its
/// untransformed block. `oracle` holds the expected store (already run).
CheckOutcome compareWithOracle(const emm::ProgramBlock& block, const emm::IntVec& params,
                               const emm::ArrayStore& oracle, const emm::CompileResult& result,
                               unsigned fillSeed);

}  // namespace perfbench
