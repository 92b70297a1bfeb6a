// The sorted-list redistribution oracle: communication sets computed by
// explicitly intersecting every rank's materialized per-dimension
// ownership lists (O(P_s * P_d * N)). The runtime never builds plans this
// way — redist::build_runs and the symbolic plan layer do — but both must
// produce exactly these element sets in exactly this pack order, which
// the plan tests assert and bench_plan_build / bench_redist_kernels time.
#pragma once

#include "mapping/layout.hpp"
#include "redist/commsets.hpp"

namespace hpfc::testing {

/// Oracle communication sets via explicit sorted-list intersection.
redist::RedistPlan oracle_plan(const mapping::ConcreteLayout& from,
                               const mapping::ConcreteLayout& to);

}  // namespace hpfc::testing
