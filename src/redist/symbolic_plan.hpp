// Symbolic redistribution plans: a (from, to) pair of SymbolicLayouts
// compiled once, bound to concrete shapes on demand.
//
// A SymbolicPlan is level 1 of the runtime plan cache's two-level key:
// every copy site whose layout pair abstracts to the same family shares
// one SymbolicPlan (codegen assigns the family ids — see
// RuntimeProgram::plan_families). Level 2 is the bound (N, P) instance:
// instantiate() evaluates the symbolic ownership run sets at the given
// shapes — O(runs), never O(N) — and intersects them with the exact
// pair loop of redist::build_runs (intersect_ownerships), so the
// produced RedistPlanV2 is byte-identical to building concretely; the
// concrete builder remains the differential oracle
// (tests/test_symbolic.cpp). Instances are
// cached by shape key and shared by shared_ptr: a warm binding is one
// map lookup, which is the "compile once, instantiate anywhere" story
// bench_plan_build measures across the (N, P) sweep.
//
// Accounting contract (the plan-slot eviction fix): the symbolic plan
// descriptor is charged once per machine and never dropped; each distinct
// (N, P) instance is charged once however many plan slots share it, and
// is released — and dropped from this cache — only when the last
// referencing slot is evicted. See runtime/machine.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapping/symbolic.hpp"
#include "redist/commsets.hpp"

namespace hpfc::redist {

/// One bound (N, P) instance: the concrete plan plus its accounted heap
/// footprint. Immutable once built — the runtime copies transfers before
/// region restriction because instances are shared across plan slots.
struct PlanInstance {
  RedistPlanV2 plan;
  std::uint64_t bytes = 0;  ///< heap footprint of the transfer run sets
};

class SymbolicPlan {
 public:
  SymbolicPlan(mapping::SymbolicLayout from, mapping::SymbolicLayout to);

  [[nodiscard]] const mapping::SymbolicLayout& from() const { return from_; }
  [[nodiscard]] const mapping::SymbolicLayout& to() const { return to_; }
  /// Family key: two plans with equal signatures bind identically at every
  /// shape. Matches the codegen family interning.
  [[nodiscard]] const std::string& signature() const { return signature_; }

  /// Level-2 cache key: the bound shape extents, flattened.
  using InstanceKey = std::vector<mapping::Extent>;
  static InstanceKey key(const mapping::Shape& array_shape,
                         const mapping::Shape& from_procs,
                         const mapping::Shape& to_procs);

  /// The cached instance for `key`, or nullptr (a cache probe; the hit /
  /// miss counters are maintained by the caller at the producing site).
  [[nodiscard]] std::shared_ptr<const PlanInstance> find(
      const InstanceKey& key) const;

  /// Binds the family at the given shapes: evaluates both layouts'
  /// ownership run sets (symbolically when the binding keeps every
  /// dimension canonical, through the concrete closed form otherwise) and
  /// intersects them pairwise. Returns the cached instance when one
  /// exists; otherwise builds, caches and returns it.
  std::shared_ptr<const PlanInstance> instantiate(
      const mapping::Shape& array_shape, const mapping::Shape& from_procs,
      const mapping::Shape& to_procs);

  /// Drops one cached instance (memory-pressure eviction); a later
  /// instantiate() at the same shapes rebuilds it. The symbolic plan
  /// itself is unaffected — other instances stay valid.
  void drop(const InstanceKey& key);

  [[nodiscard]] std::size_t instances() const { return instances_.size(); }

  /// Heap footprint of the symbolic descriptor itself (not its cached
  /// instances) — charged once per machine.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

 private:
  mapping::SymbolicLayout from_;
  mapping::SymbolicLayout to_;
  std::string signature_;
  std::map<InstanceKey, std::shared_ptr<const PlanInstance>> instances_;
};

/// Accounted heap footprint of a concrete plan's run sets (the bytes a
/// cached PlanInstance charges against the runtime memory limit).
[[nodiscard]] std::uint64_t plan_footprint_bytes(const RedistPlanV2& plan);

}  // namespace hpfc::redist
