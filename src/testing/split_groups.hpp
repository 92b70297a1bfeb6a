// The unfused copy reference: the runtime flushes each codegen copy
// group (one remapping vertex) as ONE fused exchange superstep. Giving
// every Copy op its own group turns each flush into a single-member
// round, so the same runtime executes the one-superstep-per-copy
// schedule the fusion tests and bench_remap_hotpath compare against.
// Results and data-volume counters (elements, bytes, segments, local
// copies, checksums) must not move; messages, supersteps, fused_copies
// and sim_time do, and so may peak bytes and evictions (frees are held
// until each singleton round flushes).
#pragma once

#include "codegen/runtime_ops.hpp"

namespace hpfc::testing {

/// Reassigns a distinct copy group to every Copy op in `code` and updates
/// RuntimeProgram::copy_groups accordingly.
void split_copy_groups(codegen::RuntimeProgram& code);

}  // namespace hpfc::testing
