// The four kernel families the warm workloads warm, the sizes they request,
// and the checks of a family's one artifact.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "driver/plan_cache.h"
#include "kernels.h"

namespace perfbench {

struct Family {
  KernelConfig config;
  std::vector<i64> warmSizes;
  /// The j-th new size (j = 0, 1, ...): never the warm size, never a repeat,
  /// always inside the family record's guards. `pick` is a seeded draw.
  std::vector<i64> (*newSize)(i64 j, i64 pick);
};

/// ME (cuda, 16 KiB), matmul (cuda, 16 KiB), Jacobi 1-D (cell, 16 KiB,
/// scratchpad-only) and Jacobi 2-D (cell, 256 KiB, scratchpad-only).
const std::vector<Family>& families();

/// Outcome of checking one family's served artifact.
struct FamilyCheck {
  bool ok = true;
  std::string why;
  emm::MemTrace trace;
};

/// Binds the family at its check size through `cache` (warmed with the
/// family) and runs the bound unit against the plain-loop reference. The
/// bind must succeed and serve `artifact` verbatim.
FamilyCheck checkFamilyArtifact(const Family& family, emm::PlanCache& cache,
                                const std::string& artifact, unsigned fillSeed);

/// Compiles `request` in isolation (no cache) and compares it with a served
/// result: the artifacts must be byte-identical and the tiles equal.
bool identicalToIsolated(const KernelRequest& request, const emm::CompileResult& served,
                         std::string* why);

}  // namespace perfbench
