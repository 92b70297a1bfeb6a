// Redistribution communication sets: the interval-run builder must agree
// with the sorted-list oracle; transfers must partition the array (every
// element sent exactly once per destination requirement).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "testing/plan_oracle.hpp"
#include "testing/program_gen.hpp"

namespace hpfc::redist {
namespace {

using mapping::AlignTarget;
using mapping::ConcreteLayout;
using mapping::DimOwner;
using mapping::DistFormat;
using mapping::Shape;

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt,
                       Extent stride = 1, Extent offset = 0) {
  const Extent span = stride >= 0 ? stride * (n - 1) + offset : offset;
  DimOwner owner;
  owner.source = AlignTarget::axis(0, stride, offset);
  owner.template_extent = span + 1;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(span + 1, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

TEST(OwnedRuns, CyclicPatternMembers) {
  // cyclic(2) over 3 ranks: rank 1 owns (i/2)%3 == 1 -> i in {2,3, 8,9}.
  const auto lay = one_dim(12, 3, DistFormat::cyclic(2));
  const auto runs = lay.owned_index_runs(1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].materialize(), (std::vector<Index>{2, 3, 8, 9}));
  EXPECT_EQ(runs[0].count(), 4);
  EXPECT_TRUE(runs[0].contains(8));
  EXPECT_FALSE(runs[0].contains(4));
}

TEST(OwnedRuns, IntersectMatchesExplicit) {
  // (i/2)%2 == 1 on the sender meets (i/3)%4 == 2 on the receiver.
  const auto pa = one_dim(24, 2, DistFormat::cyclic(2)).owned_index_runs(1);
  const auto pb = one_dim(24, 4, DistFormat::cyclic(3)).owned_index_runs(2);
  const auto both = mapping::IndexRuns::intersect(pa[0], pb[0]);

  std::vector<Index> expected;
  for (Index i = 0; i < 24; ++i)
    if ((i / 2) % 2 == 1 && (i / 3) % 4 == 2) expected.push_back(i);
  EXPECT_EQ(both.materialize(), expected);
  EXPECT_EQ(both.count(), static_cast<Extent>(expected.size()));
}

TEST(OwnedRuns, StridedNegativeAlignment) {
  // i aligned to template 20 - 2i under cyclic(3) on 2 ranks; rank 0
  // owns ((20 - 2i)/3) % 2 == 0.
  DimOwner owner;
  owner.source = AlignTarget::axis(0, -2, 20);
  owner.template_extent = 21;
  owner.format = DistFormat::cyclic(3);
  owner.format.param = 3;
  const auto lay = ConcreteLayout::make(Shape{10}, Shape{2}, {owner});
  std::vector<Index> expected;
  for (Index i = 0; i < 10; ++i)
    if (((20 - 2 * i) / 3) % 2 == 0) expected.push_back(i);
  EXPECT_EQ(lay.owned_index_runs(0)[0].materialize(), expected);
  EXPECT_EQ(lay.owned_index_lists(0)[0], expected);
}

// ---- plan-level properties -------------------------------------------

void expect_partition(const RedistPlan& plan, const ConcreteLayout& to) {
  // Every destination element is delivered exactly once.
  std::map<std::pair<int, Index>, int> delivered;
  for (const auto& t : plan.transfers) {
    std::vector<std::size_t> pos(t.dim_indices.size(), 0);
    const Extent count = t.count();
    mapping::IndexVec global(t.dim_indices.size(), 0);
    for (Extent e = 0; e < count; ++e) {
      for (std::size_t d = 0; d < t.dim_indices.size(); ++d)
        global[d] = t.dim_indices[d][pos[d]];
      delivered[{t.dst, to.array_shape().linearize(global)}]++;
      for (int d = static_cast<int>(t.dim_indices.size()) - 1; d >= 0; --d) {
        auto& p = pos[static_cast<std::size_t>(d)];
        if (++p < t.dim_indices[static_cast<std::size_t>(d)].size()) break;
        p = 0;
      }
    }
  }
  for (const auto& [key, times] : delivered) EXPECT_EQ(times, 1);

  Extent expected_total = 0;
  for (int r = 0; r < to.ranks(); ++r) expected_total += to.local_count(r);
  EXPECT_EQ(plan.total_elements(), expected_total);
}

struct PairParam {
  DistFormat from;
  DistFormat to;
  Extent n;
  Extent p_from;
  Extent p_to;
};

class RedistSweep : public ::testing::TestWithParam<PairParam> {};

TEST_P(RedistSweep, OracleAndPeriodicAgree) {
  const auto& p = GetParam();
  const auto from = one_dim(p.n, p.p_from, p.from);
  const auto to = one_dim(p.n, p.p_to, p.to);
  const RedistPlan oracle = testing::oracle_plan(from, to);
  const RedistPlan fast = build_runs(from, to).materialize();
  ASSERT_EQ(oracle.transfers.size(), fast.transfers.size());
  for (std::size_t i = 0; i < oracle.transfers.size(); ++i) {
    EXPECT_EQ(oracle.transfers[i].src, fast.transfers[i].src);
    EXPECT_EQ(oracle.transfers[i].dst, fast.transfers[i].dst);
    EXPECT_EQ(oracle.transfers[i].dim_indices, fast.transfers[i].dim_indices);
  }
}

TEST_P(RedistSweep, TransfersPartitionTheArray) {
  const auto& p = GetParam();
  const auto from = one_dim(p.n, p.p_from, p.from);
  const auto to = one_dim(p.n, p.p_to, p.to);
  expect_partition(testing::oracle_plan(from, to), to);
  expect_partition(build_runs(from, to).materialize(), to);
}

INSTANTIATE_TEST_SUITE_P(
    FormatPairs, RedistSweep,
    ::testing::Values(
        PairParam{DistFormat::block(), DistFormat::cyclic(), 16, 4, 4},
        PairParam{DistFormat::cyclic(), DistFormat::block(), 17, 4, 4},
        PairParam{DistFormat::cyclic(2), DistFormat::cyclic(3), 24, 4, 4},
        PairParam{DistFormat::block(), DistFormat::block(), 16, 4, 2},
        PairParam{DistFormat::cyclic(), DistFormat::cyclic(), 16, 4, 8},
        PairParam{DistFormat::block(9), DistFormat::cyclic(7), 33, 4, 3},
        PairParam{DistFormat::cyclic(3), DistFormat::block(), 64, 8, 4},
        PairParam{DistFormat::block(), DistFormat::cyclic(2), 100, 4, 4}));

TEST(Redist, IdentityPlanIsAllLocal) {
  const auto lay = one_dim(16, 4, DistFormat::block());
  const RedistPlan plan = testing::oracle_plan(lay, lay);
  EXPECT_EQ(plan.remote_transfers(), 0);
  EXPECT_EQ(plan.total_elements(), 16);
}

TEST(Redist, BlockToCyclicMovesMostElements) {
  const auto from = one_dim(64, 4, DistFormat::block());
  const auto to = one_dim(64, 4, DistFormat::cyclic());
  const RedistPlan plan = testing::oracle_plan(from, to);
  // Each source rank keeps exactly a quarter of its block.
  Extent local = 0;
  for (const auto& t : plan.transfers)
    if (t.src == t.dst) local += t.count();
  EXPECT_EQ(local, 16);
  EXPECT_EQ(plan.total_elements(), 64);
}

TEST(Redist2D, TransposeRedistribution) {
  // (block, *) -> (*, block): the classic FFT transpose pattern.
  DimOwner rows;
  rows.source = AlignTarget::axis(0);
  rows.template_extent = 8;
  rows.format = DistFormat::block(2);
  const auto from = ConcreteLayout::make(Shape{8, 8}, Shape{4}, {rows});
  DimOwner cols;
  cols.source = AlignTarget::axis(1);
  cols.template_extent = 8;
  cols.format = DistFormat::block(2);
  const auto to = ConcreteLayout::make(Shape{8, 8}, Shape{4}, {cols});

  const RedistPlan oracle = testing::oracle_plan(from, to);
  const RedistPlan fast = build_runs(from, to).materialize();
  expect_partition(oracle, to);
  ASSERT_EQ(oracle.transfers.size(), fast.transfers.size());
  // All-to-all: 4x4 = 16 transfers of a 2x2 tile each.
  EXPECT_EQ(oracle.transfers.size(), 16u);
  for (const auto& t : oracle.transfers) EXPECT_EQ(t.count(), 4);
}

// ---- segment coalescing and the local fast path -----------------------

/// Pack the program's payload from identity-valued source storage: the
/// payload *is* the sequence of source local positions, i.e. the pack
/// order. Coalescing must not change it.
std::vector<double> pack_order(const SegmentProgram& program,
                               Extent src_count) {
  std::vector<double> src_local(static_cast<std::size_t>(src_count));
  for (std::size_t i = 0; i < src_local.size(); ++i)
    src_local[i] = static_cast<double>(i);
  std::vector<double> payload;
  pack(program, src_local, payload);
  return payload;
}

TEST(SegmentCoalescing, MergesContiguousRowsIntoOneSegment) {
  // 8x8, rows block(2) on 4 ranks -> rows block(4) on 2 ranks: the
  // transfer rank0 -> rank0 covers rows 0..1 full-width; per-row emission
  // would be two len-8 segments that continue each other contiguously in
  // both local spaces, so they must coalesce into one len-16 segment.
  DimOwner fine;
  fine.source = AlignTarget::axis(0);
  fine.template_extent = 8;
  fine.format = DistFormat::block(2);
  const auto from = ConcreteLayout::make(Shape{8, 8}, Shape{4}, {fine});
  DimOwner coarse;
  coarse.source = AlignTarget::axis(0);
  coarse.template_extent = 8;
  coarse.format = DistFormat::block(4);
  const auto to = ConcreteLayout::make(Shape{8, 8}, Shape{2}, {coarse});

  const RedistPlanV2 plan = build_runs(from, to);
  bool checked = false;
  for (const auto& t : plan.transfers) {
    if (t.src != 0 || t.dst != 0) continue;
    const auto program = compile_transfer(t, from.owned_index_runs(t.src),
                                          to.owned_index_runs(t.dst));
    EXPECT_EQ(program.elements, 16);
    EXPECT_EQ(program.segments.size(), 1u);
    EXPECT_EQ(program.contiguous_segments(), 1u);
    checked = true;
  }
  EXPECT_TRUE(checked);
}

TEST(SegmentCoalescing, PreservesPackOrderAndCoverage) {
  // Every coalesced program must cover exactly its element count and pack
  // in exactly the ascending product order of the materialized transfer.
  std::mt19937 rng(2024);
  const Shape shapes[] = {Shape{16}, Shape{24}, Shape{9, 14}, Shape{8, 8}};
  for (int trial = 0; trial < 60; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const RedistPlanV2 plan = build_runs(from, to);
    for (const auto& t : plan.transfers) {
      const auto program = compile_transfer(t, from.owned_index_runs(t.src),
                                            to.owned_index_runs(t.dst));
      Extent covered = 0;
      for (const auto& seg : program.segments) {
        EXPECT_GE(seg.len, 1);
        covered += seg.len;
      }
      EXPECT_EQ(covered, program.elements);

      // The oracle pack order: enumerate the materialized transfer in
      // row-major product order and resolve source local positions.
      const Transfer oracle = t.materialize();
      const auto src_lists = from.owned_index_lists(t.src);
      std::vector<double> expected;
      std::vector<std::size_t> pos(oracle.dim_indices.size(), 0);
      mapping::IndexVec global(oracle.dim_indices.size(), 0);
      for (Extent e = 0; e < oracle.count(); ++e) {
        for (std::size_t d = 0; d < oracle.dim_indices.size(); ++d)
          global[d] = oracle.dim_indices[d][pos[d]];
        expected.push_back(static_cast<double>(
            ConcreteLayout::position_in_lists(src_lists, global)));
        for (int d = static_cast<int>(oracle.dim_indices.size()) - 1; d >= 0;
             --d) {
          auto& p = pos[static_cast<std::size_t>(d)];
          if (++p < oracle.dim_indices[static_cast<std::size_t>(d)].size())
            break;
          p = 0;
        }
      }
      EXPECT_EQ(pack_order(program, from.local_count(t.src)), expected)
          << from.to_string() << " -> " << to.to_string();
    }
  }
}

TEST(CopyLocal, MatchesPackUnpackOnRandomLayoutRedistributions) {
  // The local fast path must write exactly what a pack -> payload ->
  // unpack round trip writes, for every transfer of random_layout
  // redistribution plans.
  std::mt19937 rng(77);
  const Shape shapes[] = {Shape{32}, Shape{21}, Shape{10, 12}};
  for (int trial = 0; trial < 40; ++trial) {
    const Shape& shape = shapes[trial % 3];
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const RedistPlanV2 plan = build_runs(from, to);
    for (const auto& t : plan.transfers) {
      const auto program = compile_transfer(t, from.owned_index_runs(t.src),
                                            to.owned_index_runs(t.dst));
      std::vector<double> src_local(
          static_cast<std::size_t>(from.local_count(t.src)));
      for (std::size_t i = 0; i < src_local.size(); ++i)
        src_local[i] = static_cast<double>(1000 * trial + i);

      std::vector<double> via_payload(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      std::vector<double> payload;
      pack(program, src_local, payload);
      unpack(program, payload, via_payload);

      std::vector<double> via_local(
          static_cast<std::size_t>(to.local_count(t.dst)), -1.0);
      copy_local(program, src_local, via_local);

      EXPECT_EQ(via_local, via_payload)
          << from.to_string() << " -> " << to.to_string();
    }
  }
}

TEST(Redist, ReplicatedDestinationReceivesEverywhere) {
  const auto from = one_dim(8, 4, DistFormat::block());
  DimOwner owner;
  owner.source = AlignTarget::replicated();
  owner.template_extent = 4;
  owner.format = DistFormat::block(1);
  const auto to = ConcreteLayout::make(Shape{8}, Shape{4}, {owner});
  const RedistPlan plan = testing::oracle_plan(from, to);
  // Each of 4 destinations receives all 8 elements.
  EXPECT_EQ(plan.total_elements(), 32);
  expect_partition(plan, to);
}

}  // namespace
}  // namespace hpfc::redist
