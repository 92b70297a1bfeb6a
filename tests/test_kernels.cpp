// Plan-slot eviction under memory pressure: compiled plan slots (the
// segment programs of every copy site) are evictable like array copies,
// recompile lazily on their next use, and invalidate the cached fused
// rounds that borrow their programs. The runs must stay oracle-exact and
// deterministic through every eviction.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "hpf/builder.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Extent;
using mapping::Shape;

/// `arrays` aligned arrays remapped together per loop trip: exercises the
/// fused copy-group path, the local fast path, and steady-state plan
/// reuse in one workload (same shape as the fusion tests).
ir::Program multi_array_loop(Extent n, int procs, int arrays, Extent trips) {
  hpf::ProgramBuilder b("multi");
  b.procs("P", Shape{procs});
  b.tmpl("T", Shape{n});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{n});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  b.use(names);
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(names);
  b.redistribute("T", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use(names);
  DiagnosticEngine diags;
  return b.finish(diags);
}

Compiled compile_multi(Extent n, int procs, int arrays, Extent trips) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O0;
  Compiled compiled =
      driver::compile(multi_array_loop(n, procs, arrays, trips), options,
                      diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

// Under memory pressure the runtime falls back to evicting compiled plan
// slots; the evicted slots recompile on their next use — each recompile
// is one more plan-cache lookup, and a recompile whose shared instance
// was dropped with its last slot re-instantiates (a miss) — while the
// results stay exact.
TEST(PlanEviction, EvictedSlotsReSpecializeLazily) {
  const Compiled compiled = compile_multi(96, 4, 3, 3);
  runtime::RunOptions options;
  options.seed = 11;
  const runtime::RunReport oracle = driver::run_oracle(compiled, options);
  const runtime::RunReport unlimited = driver::run(compiled, options);
  EXPECT_EQ(unlimited.signature, oracle.signature);
  EXPECT_EQ(unlimited.plan_evictions, 0);
  ASSERT_GT(unlimited.net.plan_cache_misses, 0u);

  // Squeeze the limit down until plan slots get evicted AND recompiled
  // (deterministic: the run sequence is a pure function of the limit).
  runtime::RunReport squeezed;
  bool found = false;
  for (std::uint64_t limit = unlimited.peak_bytes; limit > 0 && !found;
       limit -= limit / 8 + 1) {
    options.memory_limit = limit;
    squeezed = driver::run(compiled, options);
    found = squeezed.plan_evictions > 0 &&
            squeezed.net.plan_cache_misses > unlimited.net.plan_cache_misses;
  }
  ASSERT_TRUE(found) << "no memory limit forced a plan-slot recompile";
  // Recompilation changed no result: the squeezed run still matches the
  // oracle exactly.
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);

  // The fused path survives member-plan eviction (cached fused rounds are
  // invalidated, not left dangling): re-running the same squeezed limit
  // must reproduce the run exactly.
  const runtime::RunReport squeezed_again = driver::run(compiled, options);
  EXPECT_EQ(squeezed_again.signature, oracle.signature);
  EXPECT_EQ(squeezed_again.plan_evictions, squeezed.plan_evictions);
  EXPECT_EQ(squeezed_again.net, squeezed.net);
}

}  // namespace
}  // namespace hpfc
