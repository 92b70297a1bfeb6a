// Communication sets for array redistribution: given two ConcreteLayouts of
// the same array, compute for every (source rank, destination rank) pair
// the exact element set to transfer. Because rank ownership is a cartesian
// product of per-array-dimension index sets under both layouts, each
// pairwise set is the product of per-dimension intersections.
//
// build_runs() computes them as closed-form interval-run intersections per
// dimension in O(runs) via lcm-window arithmetic (the efficient method of
// the paper's reference [19]), producing a RedistPlanV2 whose transfers
// stay symbolic; RedistPlanV2::materialize() expands it to explicit index
// lists. The sorted-list oracle lives in testing/plan_oracle.hpp, and the
// tests assert both produce identical element sets in identical pack
// order.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"

namespace hpfc::redist {

using mapping::ConcreteLayout;
using mapping::Extent;
using mapping::Index;
using mapping::IndexRuns;

/// One source->destination transfer manifest. Elements are the cartesian
/// product of `dim_indices`, enumerated in row-major product order (the
/// shared pack/unpack order of both end points).
struct Transfer {
  int src = 0;
  int dst = 0;
  std::vector<std::vector<Index>> dim_indices;

  [[nodiscard]] Extent count() const;
};

struct RedistPlan {
  std::vector<Transfer> transfers;

  [[nodiscard]] Extent total_elements() const;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(total_elements()) * sizeof(double);
  }
  /// Number of off-rank transfers (src != dst).
  [[nodiscard]] int remote_transfers() const;
  [[nodiscard]] std::string summary() const;
};

/// One source->destination transfer in closed form: the element set is the
/// cartesian product of per-dimension interval-run sets, enumerated in
/// row-major product order (each dimension ascending — the same pack order
/// as the materialized Transfer).
struct TransferV2 {
  int src = 0;
  int dst = 0;
  std::vector<IndexRuns> dim_runs;

  [[nodiscard]] Extent count() const;
  /// Restricts every dimension to its live-region slice; returns false
  /// when the restriction empties the transfer.
  bool restrict_to(const std::vector<std::pair<Index, Index>>& region);
  [[nodiscard]] Transfer materialize() const;
};

struct RedistPlanV2 {
  std::vector<TransferV2> transfers;

  [[nodiscard]] Extent total_elements() const;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(total_elements()) * sizeof(double);
  }
  [[nodiscard]] int remote_transfers() const;
  [[nodiscard]] RedistPlan materialize() const;
  [[nodiscard]] std::string summary() const;
};

/// Efficient communication sets: per-dimension interval-run intersection
/// of the two block-cyclic ownerships, O(runs) per (src, dst) pair via
/// lcm-window arithmetic — plan construction never scales with the array
/// extent for block/cyclic layouts.
RedistPlanV2 build_runs(const ConcreteLayout& from, const ConcreteLayout& to);

/// The pair-intersection core of build_runs, shared with the symbolic
/// plan layer (symbolic_plan.hpp): given the per-rank sending ownership
/// of the source layout and the per-rank ownership of the destination
/// layout (one IndexRuns per array dimension, `dims` of them), intersects
/// every (src, dst) pair into a transfer. Both builders produce
/// byte-identical plans because they run this exact loop.
RedistPlanV2 intersect_ownerships(
    const std::vector<std::vector<IndexRuns>>& src_runs,
    const std::vector<std::vector<IndexRuns>>& dst_runs, int dims);

}  // namespace hpfc::redist
