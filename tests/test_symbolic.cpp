// Symbolic redistribution plans (mapping/symbolic.hpp,
// redist/symbolic_plan.hpp): one compilation parametric in (N, P), O(runs)
// instantiation. These tests pin (1) the affine expression evaluation and
// the abstraction roundtrip over random layouts, (2) the symbolic
// ownership run sets against ConcreteLayout::owned_index_runs, (3)
// SymbolicPlan::instantiate against both concrete builders — build_runs
// (byte-identical plans) and the sorted-list testing::oracle_plan (element
// sets in pack order) — at the abstraction shapes and across an (N, P)
// rebind grid, and (4) the plan-slot eviction accounting fix: shared
// (N, P) instances are charged once, survive other slots' evictions, and
// re-instantiate deterministically after the last referencing slot is
// dropped.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "mapping/symbolic.hpp"
#include "redist/commsets.hpp"
#include "redist/symbolic_plan.hpp"
#include "testing/plan_oracle.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::AlignTarget;
using mapping::Alignment;
using mapping::ConcreteLayout;
using mapping::DimOwner;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;
using mapping::SymbolicExpr;
using mapping::SymbolicLayout;

TEST(SymbolicExprTest, EvaluatesTheAffineBasis) {
  EXPECT_EQ(SymbolicExpr::lit(7).eval(3, 100, 4), 7);
  EXPECT_TRUE(SymbolicExpr::lit(7).is_literal());
  // c0 + cr*r + cN*N + cP*P + cB*ceil(N/P) + crB*r*ceil(N/P)
  const SymbolicExpr e{.c0 = 1, .cr = 2, .cN = 3, .cP = 5, .cB = 7, .crB = 11};
  EXPECT_FALSE(e.is_literal());
  // N=10, P=4 -> B=3; r=2: 1 + 4 + 30 + 20 + 21 + 66 = 142.
  EXPECT_EQ(e.eval(2, 10, 4), 142);
  // The default BLOCK base r*B.
  const SymbolicExpr base{.crB = 1};
  EXPECT_EQ(base.eval(3, 100, 8), 3 * 13);
  EXPECT_EQ(base.to_string(), "rB");
}

// Property: abstraction is a faithful lift — re-binding the descriptor at
// the shapes it was abstracted from reproduces the layout exactly
// (canonicalization is idempotent, so ConcreteLayout::make round-trips).
TEST(SymbolicLayoutTest, AbstractionRoundTripsOverRandomLayouts) {
  std::mt19937 rng(2026);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}, Shape{8, 8}};
  int abstracted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout layout = testing::random_layout(rng, shape);
    const auto sym = SymbolicLayout::abstract(layout);
    ASSERT_TRUE(sym.has_value()) << layout.to_string();
    EXPECT_EQ(sym->instantiate(layout.array_shape(), layout.proc_shape()),
              layout)
        << layout.to_string() << " via " << sym->to_string();
    ++abstracted;
  }
  EXPECT_EQ(abstracted, 200);
}

// Property: where the binding keeps every dimension canonical, the
// symbolic run sets evaluate to exactly what the concrete closed form
// derives — structurally (base, period, runs, span), not just as sets.
TEST(SymbolicLayoutTest, OwnedRunsMatchConcreteClosedForm) {
  std::mt19937 rng(777);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}, Shape{8, 8}};
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout layout = testing::random_layout(rng, shape);
    const auto sym = SymbolicLayout::abstract(layout);
    ASSERT_TRUE(sym.has_value());
    if (!sym->canonical_at(layout.array_shape(), layout.proc_shape()))
      continue;
    for (int r = 0; r < layout.ranks(); ++r) {
      for (const bool sending : {false, true}) {
        EXPECT_EQ(sym->owned_runs(layout.array_shape(), layout.proc_shape(),
                                  r, sending),
                  layout.owned_index_runs(r, sending))
            << layout.to_string() << " rank " << r << " sending " << sending;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100);
}

/// A 1-D layout built straight from owner rules (default parameters
/// resolved, as ConcreteLayout::make requires).
ConcreteLayout layout_1d(Extent n, Extent procs, DistFormat format) {
  const DimOwner owner{AlignTarget::axis(0),
                       {format.kind, format.resolved_param(n, procs)}, n};
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

TEST(SymbolicLayoutTest, SignatureIdentifiesTheFamilyAcrossShapes) {
  const auto block_at = [](Extent n, Extent procs) {
    return *SymbolicLayout::abstract(
        layout_1d(n, procs, DistFormat::block()));
  };
  // One family regardless of the binding it was abstracted at...
  EXPECT_EQ(block_at(64, 4).signature(), block_at(4096, 16).signature());
  EXPECT_EQ(block_at(64, 4), block_at(4096, 16));
  // ...distinct from other formats.
  const auto cyclic =
      *SymbolicLayout::abstract(layout_1d(64, 4, DistFormat::cyclic(3)));
  EXPECT_NE(cyclic.signature(), block_at(64, 4).signature());
  EXPECT_TRUE(cyclic.parametric());
}

/// Byte-level plan equality: same transfer list, same (src, dst), same
/// per-dimension run sets (which fixes the pack order too).
void expect_plans_equal(const redist::RedistPlanV2& got,
                        const redist::RedistPlanV2& want,
                        const std::string& label) {
  ASSERT_EQ(got.transfers.size(), want.transfers.size()) << label;
  for (std::size_t i = 0; i < got.transfers.size(); ++i) {
    const auto& g = got.transfers[i];
    const auto& w = want.transfers[i];
    EXPECT_EQ(g.src, w.src) << label << " transfer " << i;
    EXPECT_EQ(g.dst, w.dst) << label << " transfer " << i;
    ASSERT_EQ(g.dim_runs.size(), w.dim_runs.size()) << label;
    for (std::size_t d = 0; d < g.dim_runs.size(); ++d)
      EXPECT_EQ(g.dim_runs[d], w.dim_runs[d])
          << label << " transfer " << i << " dim " << d;
  }
}

// Property: at the abstraction shapes, a SymbolicPlan instance is
// byte-identical to build_runs and enumerates the sorted-list oracle's
// element sets in the same pack order.
TEST(SymbolicPlanTest, MatchesBothConcreteBuildersOnRandomLayouts) {
  std::mt19937 rng(31337);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}, Shape{8, 8}};
  for (int trial = 0; trial < 60; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const auto sym_from = SymbolicLayout::abstract(from);
    const auto sym_to = SymbolicLayout::abstract(to);
    ASSERT_TRUE(sym_from.has_value() && sym_to.has_value());

    redist::SymbolicPlan plan(*sym_from, *sym_to);
    const auto instance =
        plan.instantiate(shape, from.proc_shape(), to.proc_shape());
    ASSERT_NE(instance, nullptr);
    const std::string label = from.to_string() + " -> " + to.to_string();
    expect_plans_equal(instance->plan, redist::build_runs(from, to), label);

    // Pack order against the oracle: materialized per-dimension lists.
    const redist::RedistPlan oracle = testing::oracle_plan(from, to);
    const redist::RedistPlan materialized = instance->plan.materialize();
    ASSERT_EQ(materialized.transfers.size(), oracle.transfers.size()) << label;
    for (std::size_t i = 0; i < oracle.transfers.size(); ++i) {
      EXPECT_EQ(materialized.transfers[i].src, oracle.transfers[i].src);
      EXPECT_EQ(materialized.transfers[i].dst, oracle.transfers[i].dst);
      EXPECT_EQ(materialized.transfers[i].dim_indices,
                oracle.transfers[i].dim_indices)
          << label << " transfer " << i;
    }

    // Warm binding: one map lookup returning the cached instance.
    EXPECT_EQ(plan.find(redist::SymbolicPlan::key(shape, from.proc_shape(),
                                                  to.proc_shape())),
              instance);
    EXPECT_EQ(plan.instances(), 1u);
    EXPECT_GT(plan.footprint_bytes(), 0u);
  }
}

// The tentpole property: ONE symbolic compilation serves every (N, P)
// binding. Rebind a fixed family across an extent/procs grid and check
// each instance against a freshly built concrete plan — including
// bindings that fall outside the canonical fast path (degenerate shapes
// take the documented concrete fallback inside instantiate()).
TEST(SymbolicPlanTest, RebindsAcrossTheShapeGrid) {
  const std::pair<DistFormat, DistFormat> families[] = {
      {DistFormat::block(), DistFormat::cyclic()},
      {DistFormat::cyclic(3), DistFormat::block()},
      {DistFormat::cyclic(2), DistFormat::cyclic(5)},
      {DistFormat::block(7), DistFormat::cyclic(4)},
  };
  for (const auto& [from_format, to_format] : families) {
    // Abstract once, at one base binding...
    const auto sym_from =
        SymbolicLayout::abstract(layout_1d(24, 4, from_format));
    const auto sym_to = SymbolicLayout::abstract(layout_1d(24, 4, to_format));
    ASSERT_TRUE(sym_from.has_value() && sym_to.has_value());
    ASSERT_TRUE(sym_from->parametric() && sym_to->parametric());
    redist::SymbolicPlan plan(*sym_from, *sym_to);

    // ...then bind anywhere.
    std::size_t expected_instances = 0;
    for (const Extent n : {Extent{16}, Extent{40}, Extent{96}, Extent{130}}) {
      for (const Extent p : {Extent{2}, Extent{3}, Extent{4}, Extent{8}}) {
        const auto instance = plan.instantiate(Shape{n}, Shape{p}, Shape{p});
        ASSERT_NE(instance, nullptr);
        const ConcreteLayout from = layout_1d(n, p, from_format);
        const ConcreteLayout to = layout_1d(n, p, to_format);
        const redist::RedistPlanV2 want = redist::build_runs(from, to);
        expect_plans_equal(instance->plan, want,
                           plan.signature() + " at N=" + std::to_string(n) +
                               " P=" + std::to_string(p));
        // Identical data volume (for BLOCK(b) with b*P < N both builders
        // agree the uncovered tail moves nothing).
        EXPECT_EQ(instance->plan.total_elements(), want.total_elements());
        EXPECT_EQ(plan.instances(), ++expected_instances);
        // The warm path returns the same cached object.
        EXPECT_EQ(plan.instantiate(Shape{n}, Shape{p}, Shape{p}), instance);
        EXPECT_EQ(plan.instances(), expected_instances);
      }
    }
    // Dropping an instance makes room; re-binding rebuilds it.
    const auto key =
        redist::SymbolicPlan::key(Shape{96}, Shape{4}, Shape{4});
    plan.drop(key);
    EXPECT_EQ(plan.instances(), expected_instances - 1);
    EXPECT_EQ(plan.find(key), nullptr);
    const auto rebuilt = plan.instantiate(Shape{96}, Shape{4}, Shape{4});
    expect_plans_equal(
        rebuilt->plan,
        redist::build_runs(layout_1d(96, 4, from_format),
                           layout_1d(96, 4, to_format)),
        plan.signature() + " rebuilt");
  }
}

/// Two same-extent arrays (shared instances) plus one different-extent
/// array (second instance of the same families) behind one remapping loop:
/// the eviction-accounting workload.
Compiled compile_shared_instances(Extent trips) {
  hpf::ProgramBuilder b("shared");
  b.procs("P", Shape{4});
  b.tmpl("T", Shape{96});
  b.tmpl("U", Shape{64});
  b.distribute_template("T", {DistFormat::block()}, "P");
  b.distribute_template("U", {DistFormat::block()}, "P");
  b.array("A", Shape{96});
  b.align("A", "T", Alignment::identity(1));
  b.array("B", Shape{96});
  b.align("B", "T", Alignment::identity(1));
  b.array("C", Shape{64});
  b.align("C", "U", Alignment::identity(1));
  b.use({"A", "B", "C"});
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.redistribute("U", {DistFormat::cyclic()}, "", "2");
  b.use({"A", "B", "C"});
  b.redistribute("T", {DistFormat::block()}, "", "3");
  b.redistribute("U", {DistFormat::block()}, "", "4");
  b.end_loop();
  b.use({"A", "B", "C"});
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O0;
  Compiled compiled = driver::compile(b.finish(diags), options, diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

// The eviction-accounting fix: an (N, P) instance shared by several plan
// slots is charged once; evicting one slot must not invalidate the others
// (they keep the instance alive), and only dropping the LAST referencing
// slot releases it — after which recompiles re-instantiate. Observable
// contract: squeezed runs stay exact and deterministic, and
// symbolic_instantiations rises past the unlimited run's count once
// instances are actually dropped and re-bound.
TEST(PlanEviction, SharedInstancesSurviveUntilTheLastSlotDrops) {
  const Compiled compiled = compile_shared_instances(3);
  runtime::RunOptions options;
  options.seed = 11;
  const runtime::RunReport oracle = driver::run_oracle(compiled, options);
  const runtime::RunReport unlimited = driver::run(compiled, options);
  EXPECT_EQ(unlimited.signature, oracle.signature);
  EXPECT_EQ(unlimited.plan_evictions, 0);
  // A and B share template, extent and procs: their slots share family AND
  // instance, so the cache sees warm hits; C's extent differs, so the same
  // families carry a second instance (a miss, not a hit).
  EXPECT_GT(unlimited.net.plan_cache_hits, 0u);
  EXPECT_GT(unlimited.net.plan_cache_misses, 0u);
  EXPECT_EQ(unlimited.net.symbolic_instantiations,
            unlimited.net.plan_cache_misses);

  // Squeeze the limit until plan slots are evicted AND dropped instances
  // get re-bound (deterministic: a pure function of the limit).
  runtime::RunReport squeezed;
  bool found = false;
  for (std::uint64_t limit = unlimited.peak_bytes; limit > 0 && !found;
       limit -= limit / 8 + 1) {
    options.memory_limit = limit;
    squeezed = driver::run(compiled, options);
    found = squeezed.plan_evictions > 0 &&
            squeezed.net.symbolic_instantiations >
                unlimited.net.symbolic_instantiations;
  }
  ASSERT_TRUE(found) << "no memory limit forced an instance re-bind";
  // Accounting moved; results did not.
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);
  // Every recompile still performs exactly one lookup.
  EXPECT_EQ(squeezed.net.symbolic_instantiations,
            squeezed.net.plan_cache_misses);
  EXPECT_GT(squeezed.net.plan_cache_hits + squeezed.net.plan_cache_misses,
            unlimited.net.plan_cache_hits + unlimited.net.plan_cache_misses);

  // Determinism under the same limit: identical counters, identical stats.
  const runtime::RunReport again = driver::run(compiled, options);
  EXPECT_EQ(again.signature, oracle.signature);
  EXPECT_EQ(again.plan_evictions, squeezed.plan_evictions);
  EXPECT_EQ(again.net, squeezed.net);
}

}  // namespace
}  // namespace hpfc
