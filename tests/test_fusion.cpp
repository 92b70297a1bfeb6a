// Fused remap supersteps (cross-array message aggregation): all Copy ops
// codegen emits for one remapping vertex share a codegen copy group, and
// the runtime flushes each group as ONE exchange superstep with combined
// per-(src, dst) messages. These tests pin the equivalence contract:
// across {fused, unfused} x {seq, thread} the results and every
// data-volume counter (elements, bytes, segments,
// local copies, checksums) are byte-identical; only messages, supersteps,
// fused_copies and sim_time may move — and supersteps must drop by the
// vertex fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "codegen/runtime_ops.hpp"
#include "driver/compiler.hpp"
#include "hpf/builder.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::Alignment;
using mapping::DistFormat;
using mapping::Shape;

/// `arrays` aligned arrays remapped together by `trips` template
/// redistributions: every remap vertex copies all the arrays at once, so
/// fusion should collapse its fan-out into one superstep per vertex.
ir::Program multi_array_loop(mapping::Extent n, int procs, int arrays,
                             mapping::Extent trips) {
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

Compiled compile_multi(mapping::Extent n, int procs, int arrays,
                       mapping::Extent trips, OptLevel level) {
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = level;
  Compiled compiled =
      driver::compile(multi_array_loop(n, procs, arrays, trips), options,
                      diags);
  EXPECT_TRUE(compiled.ok) << diags.to_string();
  return compiled;
}

/// The counters that must not move whichever way the communication is
/// physically organized (fusion on/off, fast path on/off, any backend).
struct InvariantCounters {
  std::uint64_t signature = 0;
  int copies_performed = 0;
  std::uint64_t elements_copied = 0;
  std::uint64_t bytes = 0;
  std::uint64_t local_copies = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t segments = 0;
  int skipped_already_mapped = 0;
  int skipped_live_copy = 0;

  friend bool operator==(const InvariantCounters&,
                         const InvariantCounters&) = default;
};

InvariantCounters invariants(const runtime::RunReport& r) {
  InvariantCounters c;
  c.signature = r.signature;
  c.copies_performed = r.copies_performed;
  c.elements_copied = r.elements_copied;
  c.bytes = r.net.bytes;
  c.local_copies = r.net.local_copies;
  c.local_bytes = r.net.local_bytes;
  c.segments = r.net.segments;
  c.skipped_already_mapped = r.skipped_already_mapped;
  c.skipped_live_copy = r.skipped_live_copy;
  return c;
}

runtime::RunReport run_with(const Compiled& compiled, bool unfuse,
                            exec::BackendKind backend, unsigned seed = 11) {
  runtime::RunOptions options;
  options.seed = seed;
  options.backend = backend;
  options.threads = 3;
  options.unfuse_copy_groups = unfuse;
  return driver::run(compiled, options);
}

// Every Copy emitted for one vertex carries that vertex's group id;
// distinct vertices get distinct groups.
TEST(CopyGroups, CodegenAssignsOneGroupPerVertex) {
  const Compiled c = compile_multi(64, 4, 3, 1, OptLevel::O0);
  EXPECT_GT(c.code.copy_groups, 0);
  std::vector<std::vector<int>> groups_per_node;
  for (const auto& ops : c.code.at_node) {
    std::vector<int> groups;
    const auto collect = [&](const auto& self,
                             const codegen::OpList& list) -> void {
      for (const auto& op : list) {
        if (op.kind == codegen::OpKind::Copy) {
          ASSERT_GE(op.copy_group, 0) << "Copy without a group";
          ASSERT_LT(op.copy_group, c.code.copy_groups);
          groups.push_back(op.copy_group);
        }
        self(self, op.body);
      }
    };
    collect(collect, ops);
    if (!groups.empty()) groups_per_node.push_back(groups);
  }
  ASSERT_FALSE(groups_per_node.empty());
  std::vector<int> seen;
  for (const auto& groups : groups_per_node) {
    // One shared group per node (= per vertex)...
    for (const int g : groups) EXPECT_EQ(g, groups.front());
    // ...never reused by another vertex.
    EXPECT_EQ(std::count(seen.begin(), seen.end(), groups.front()), 0);
    seen.push_back(groups.front());
  }
}

// A vertex moving k arrays costs one superstep fused, k unfused, with all
// data-volume counters byte-identical across the 2x2 matrix.
TEST(CopyGroups, MultiArrayVertexFusesKIntoOneSuperstep) {
  const int arrays = 4;
  const mapping::Extent trips = 3;
  const Compiled c = compile_multi(64, 4, arrays, trips, OptLevel::O0);

  runtime::RunOptions oracle_options;
  oracle_options.seed = 11;
  const auto oracle = driver::run_oracle(c, oracle_options);

  const auto fused = run_with(c, /*unfuse=*/false, exec::BackendKind::Seq);
  const auto unfused = run_with(c, /*unfuse=*/true, exec::BackendKind::Seq);
  EXPECT_EQ(fused.signature, oracle.signature);
  EXPECT_EQ(invariants(fused), invariants(unfused));

  // Every flush collapses its members into one superstep: the unfused run
  // pays one superstep per copy, the fused one per remap vertex visit.
  ASSERT_GT(fused.copies_performed, 0);
  EXPECT_EQ(unfused.net.supersteps,
            static_cast<std::uint64_t>(unfused.copies_performed));
  EXPECT_EQ(fused.net.supersteps,
            static_cast<std::uint64_t>(fused.copies_performed / arrays));
  EXPECT_EQ(fused.net.fused_copies,
            static_cast<std::uint64_t>(fused.copies_performed));
  EXPECT_EQ(unfused.net.fused_copies, 0u);
  // Off-rank messages merge per (src, dst) pair: k-fold fewer.
  EXPECT_EQ(unfused.net.messages,
            fused.net.messages * static_cast<std::uint64_t>(arrays));
  // Fewer message latencies -> the alpha term shrinks.
  EXPECT_LT(fused.net.sim_time, unfused.net.sim_time);

  for (const bool unfuse : {false, true}) {
    for (const auto backend :
         {exec::BackendKind::Seq, exec::BackendKind::Thread}) {
      const auto report = run_with(c, unfuse, backend);
      EXPECT_EQ(invariants(report), invariants(fused))
          << (unfuse ? "unfused " : "fused ") << exec::to_string(backend);
      EXPECT_TRUE(report.exported_values_ok);
      EXPECT_EQ(report.net.supersteps,
                unfuse ? unfused.net.supersteps : fused.net.supersteps);
    }
  }
}

// Randomized programs: fusion must preserve results and data volumes at
// every level and backend, and never add supersteps.
TEST(CopyGroups, RandomProgramsFuseWithoutChangingResults) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    testing::GenConfig config;
    config.seed = seed;
    auto accepted = testing::generate_compilable(config);
    ASSERT_TRUE(accepted.has_value());
    for (const OptLevel level : {OptLevel::O0, OptLevel::O2}) {
      DiagnosticEngine diags;
      CompileOptions options;
      options.level = level;
      testing::GenConfig clone_config = config;
      clone_config.seed = accepted->second;
      Compiled compiled = driver::compile(testing::generate(clone_config),
                                          options, diags);
      ASSERT_TRUE(compiled.ok) << diags.to_string();

      const auto fused =
          run_with(compiled, false, exec::BackendKind::Seq, 100 + seed);
      const auto unfused =
          run_with(compiled, true, exec::BackendKind::Seq, 100 + seed);
      EXPECT_EQ(invariants(fused), invariants(unfused)) << "seed " << seed;
      EXPECT_LE(fused.net.supersteps, unfused.net.supersteps);
      EXPECT_EQ(unfused.net.fused_copies, 0u);

      const auto threaded =
          run_with(compiled, false, exec::BackendKind::Thread, 100 + seed);
      EXPECT_EQ(threaded.net, fused.net) << "seed " << seed;
      EXPECT_EQ(threaded.signature, fused.signature);
    }
  }
}

// Fusion composes with the eviction machinery: pinned pending members
// survive memory pressure and the squeezed run stays correct.
TEST(CopyGroups, MemoryPressureWithFusedGroups) {
  const Compiled c = compile_multi(128, 4, 4, 2, OptLevel::O0);
  runtime::RunOptions options;
  options.seed = 5;
  const auto unlimited = driver::run(c, options);
  const auto oracle = driver::run_oracle(c, options);
  ASSERT_EQ(unlimited.signature, oracle.signature);

  runtime::RunOptions tight = options;
  tight.memory_limit = unlimited.peak_bytes / 2 + 1024;
  const auto squeezed = driver::run(c, tight);
  EXPECT_EQ(squeezed.signature, oracle.signature);
  EXPECT_TRUE(squeezed.exported_values_ok);
  EXPECT_LE(squeezed.peak_bytes, unlimited.peak_bytes);
}

}  // namespace
}  // namespace hpfc
