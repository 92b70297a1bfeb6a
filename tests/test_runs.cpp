// Interval runs: the closed-form ownership/communication representation
// must agree exactly — same element sets, same pack order — with the
// materialized oracles at every layer: IndexRuns vs brute-force sets,
// owned_index_runs vs owned_index_lists, build_runs vs the sorted-list
// testing::oracle_plan, and the compiled segment programs vs a
// per-element position walk.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "mapping/runs.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "testing/plan_oracle.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using mapping::ConcreteLayout;
using mapping::Extent;
using mapping::Index;
using mapping::IndexRun;
using mapping::IndexRuns;
using mapping::Shape;
using testing::random_layout;

TEST(IndexRuns, IntervalBasics) {
  const auto r = IndexRuns::interval(3, 9);
  EXPECT_EQ(r.count(), 6);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.materialize(), (std::vector<Index>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r.position_of(5), 2);
  EXPECT_EQ(r.position_of(9), -1);
  EXPECT_TRUE(IndexRuns::interval(4, 4).empty());
}

TEST(IndexRuns, PeriodicClosedForms) {
  // {2,3} mod 6 within [0, 20): members 2,3,8,9,14,15.
  const IndexRuns r(0, 6, {IndexRun{2, 1, 2}}, 20);
  EXPECT_EQ(r.count(), 6);
  EXPECT_EQ(r.materialize(), (std::vector<Index>{2, 3, 8, 9, 14, 15}));
  EXPECT_EQ(r.count_in_period(), 2);
  EXPECT_FALSE(r.full());
  for (Index i = 0; i < 20; ++i) {
    const auto members = r.materialize();
    const auto it = std::find(members.begin(), members.end(), i);
    if (it == members.end()) {
      EXPECT_EQ(r.position_of(i), -1) << i;
    } else {
      EXPECT_EQ(r.position_of(i), it - members.begin()) << i;
    }
    EXPECT_EQ(r.count_below(i),
              static_cast<Extent>(
                  std::count_if(members.begin(), members.end(),
                                [&](Index m) { return m < i; })))
        << i;
  }
}

TEST(IndexRuns, StridedRunEnumeration) {
  // A strided run {1, +3 x 3} mod 10 anchored at base 5, span 25.
  const IndexRuns r(5, 10, {IndexRun{1, 3, 3}}, 25);
  EXPECT_EQ(r.materialize(),
            (std::vector<Index>{6, 9, 12, 16, 19, 22, 26, 29}));
  EXPECT_EQ(r.count(), 8);
  EXPECT_EQ(r.position_of(16), 3);
}

IndexRuns random_pattern(std::mt19937& rng, Extent span) {
  const auto pick = [&rng](int n) {
    return static_cast<Extent>(rng() % static_cast<unsigned>(n));
  };
  const Extent period = 1 + pick(12);
  std::vector<Index> offsets;
  for (Index o = 0; o < period; ++o)
    if (rng() % 3 == 0) offsets.push_back(o);
  if (offsets.empty()) offsets.push_back(pick(static_cast<int>(period)));
  const IndexRuns in_period =
      IndexRuns::from_sorted(0, offsets, period);
  const Index base = pick(5);
  return IndexRuns(base, period, in_period.runs(), span - base);
}

TEST(IndexRuns, IntersectMatchesBruteForce) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    const Extent span = 30 + static_cast<Extent>(rng() % 40);
    const IndexRuns a = random_pattern(rng, span);
    const IndexRuns b = random_pattern(rng, span);
    const IndexRuns both = IndexRuns::intersect(a, b);

    const auto ma = a.materialize();
    const auto mb = b.materialize();
    std::vector<Index> expected;
    std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(both.materialize(), expected)
        << "a=" << a.to_string() << " b=" << b.to_string();
    EXPECT_EQ(both.count(), static_cast<Extent>(expected.size()));
  }
}

TEST(IndexRuns, RestrictMatchesBruteForce) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Extent span = 30 + static_cast<Extent>(rng() % 40);
    const IndexRuns a = random_pattern(rng, span);
    const Index lo = static_cast<Index>(rng() % 30);
    const Index hi = lo + static_cast<Index>(rng() % 40);
    const IndexRuns cut = a.restrict_to(lo, hi);
    std::vector<Index> expected;
    for (const Index i : a.materialize())
      if (i >= lo && i < hi) expected.push_back(i);
    EXPECT_EQ(cut.materialize(), expected) << a.to_string();
  }
}

// ---- layout-level equivalence -----------------------------------------

void expect_layout_runs_match(const ConcreteLayout& lay) {
  for (int r = 0; r < lay.ranks(); ++r) {
    for (const bool sending : {false, true}) {
      const auto lists = lay.owned_index_lists(r, sending);
      const auto runs = lay.owned_index_runs(r, sending);
      ASSERT_EQ(lists.size(), runs.size());
      for (std::size_t d = 0; d < lists.size(); ++d)
        EXPECT_EQ(runs[d].materialize(), lists[d])
            << lay.to_string() << " rank " << r << " dim " << d
            << " sending=" << sending << " runs=" << runs[d].to_string();
    }
    Extent product = 1;
    for (const auto& runs : lay.owned_index_runs(r)) product *= runs.count();
    if (lay.array_shape().rank() > 0) {
      EXPECT_EQ(lay.local_count(r), product);
    }
  }
}

TEST(LayoutRuns, RandomLayoutsMatchListsAcrossMachineSizes) {
  std::mt19937 rng(1);
  const Shape shapes[] = {Shape{17}, Shape{24}, Shape{33}, Shape{12, 10}};
  for (int trial = 0; trial < 150; ++trial) {
    const Shape& shape = shapes[trial % 4];
    // random_layout draws grid sizes in [1, 8]: the sweep covers P=1..8.
    expect_layout_runs_match(random_layout(rng, shape));
  }
}

TEST(LayoutRuns, ForEachOwnedRunTilesForEachOwnedExactly) {
  // The runs-cursor API must visit the identical (local, global linear)
  // pairs as the per-element visitor, in the identical order, with
  // stretches tiling the local index space exactly.
  std::mt19937 rng(31);
  const Shape shapes[] = {Shape{17}, Shape{24}, Shape{12, 10}, Shape{7, 9}};
  for (int trial = 0; trial < 120; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout lay = random_layout(rng, shape);
    for (int r = 0; r < lay.ranks(); ++r) {
      std::vector<std::pair<Index, Index>> expected;
      lay.for_each_owned(r, [&](std::span<const Index> global, Index pos) {
        expected.emplace_back(pos, shape.linearize(global));
      });
      std::vector<std::pair<Index, Index>> got;
      Index next_local = 0;
      lay.for_each_owned_run(r, [&](const mapping::OwnedRun& run) {
        EXPECT_EQ(run.local_base, next_local) << lay.to_string();
        EXPECT_GE(run.len, 1);
        next_local += run.len;
        for (Extent j = 0; j < run.len; ++j)
          got.emplace_back(run.local_base + j,
                           run.global_base + j * run.global_stride);
      });
      EXPECT_EQ(got, expected) << lay.to_string() << " rank " << r;
      EXPECT_EQ(next_local, lay.local_count(r)) << lay.to_string();
    }
  }
}

// ---- plan-level equivalence -------------------------------------------

void expect_plans_identical(const redist::RedistPlan& oracle,
                            const redist::RedistPlan& fast,
                            const std::string& what) {
  ASSERT_EQ(oracle.transfers.size(), fast.transfers.size()) << what;
  for (std::size_t i = 0; i < oracle.transfers.size(); ++i) {
    EXPECT_EQ(oracle.transfers[i].src, fast.transfers[i].src) << what;
    EXPECT_EQ(oracle.transfers[i].dst, fast.transfers[i].dst) << what;
    // Identical per-dimension index lists == identical element sets in
    // identical row-major pack order.
    EXPECT_EQ(oracle.transfers[i].dim_indices, fast.transfers[i].dim_indices)
        << what << " transfer " << i;
  }
}

/// Per-element oracle for one compiled transfer: enumerate the product of
/// dim_indices in pack order and resolve local positions through the
/// sorted-list API.
std::vector<std::pair<Index, Index>> oracle_locals(
    const redist::Transfer& t, const ConcreteLayout& from,
    const ConcreteLayout& to) {
  const auto src_lists = from.owned_index_lists(t.src);
  const auto dst_lists = to.owned_index_lists(t.dst);
  std::vector<std::pair<Index, Index>> locals;
  const int dims = static_cast<int>(t.dim_indices.size());
  std::vector<std::size_t> pos(static_cast<std::size_t>(dims), 0);
  mapping::IndexVec global(static_cast<std::size_t>(dims), 0);
  const Extent count = t.count();
  for (Extent e = 0; e < count; ++e) {
    for (int d = 0; d < dims; ++d)
      global[static_cast<std::size_t>(d)] =
          t.dim_indices[static_cast<std::size_t>(d)]
                       [pos[static_cast<std::size_t>(d)]];
    locals.emplace_back(
        ConcreteLayout::position_in_lists(src_lists, global),
        ConcreteLayout::position_in_lists(dst_lists, global));
    for (int d = dims - 1; d >= 0; --d) {
      auto& p = pos[static_cast<std::size_t>(d)];
      if (++p < t.dim_indices[static_cast<std::size_t>(d)].size()) break;
      p = 0;
    }
  }
  return locals;
}

std::vector<std::pair<Index, Index>> segment_locals(
    const redist::SegmentProgram& program) {
  std::vector<std::pair<Index, Index>> locals;
  for (const auto& seg : program.segments)
    for (Extent j = 0; j < seg.len; ++j)
      locals.emplace_back(seg.src_base + j * seg.src_stride,
                          seg.dst_base + j * seg.dst_stride);
  return locals;
}

TEST(PlanRuns, RandomLayoutPairsAgreeWithOracleIncludingSegments) {
  std::mt19937 rng(99);
  const Shape shapes[] = {Shape{16}, Shape{23}, Shape{40}, Shape{9, 14}};
  for (int trial = 0; trial < 80; ++trial) {
    const Shape& shape = shapes[trial % 4];
    const ConcreteLayout from = random_layout(rng, shape);
    const ConcreteLayout to = random_layout(rng, shape);
    const std::string what = from.to_string() + " -> " + to.to_string();

    const redist::RedistPlan oracle = testing::oracle_plan(from, to);
    const redist::RedistPlanV2 v2 = redist::build_runs(from, to);
    expect_plans_identical(oracle, v2.materialize(), what + " [runs]");

    // Segment programs replay the oracle's exact (src, dst) local pairs in
    // the exact payload order.
    for (std::size_t i = 0; i < v2.transfers.size(); ++i) {
      const auto& t = v2.transfers[i];
      const auto program = redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
      EXPECT_EQ(segment_locals(program),
                oracle_locals(oracle.transfers[i], from, to))
          << what << " transfer " << i;
      EXPECT_EQ(program.elements, t.count());
    }
  }
}

TEST(PlanRuns, RegionRestrictionMatchesFilteredOracle) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    const Shape shape{30};
    const ConcreteLayout from = random_layout(rng, shape);
    const ConcreteLayout to = random_layout(rng, shape);
    const Index lo = static_cast<Index>(rng() % 20);
    const Index hi = lo + 1 + static_cast<Index>(rng() % 10);
    const std::vector<std::pair<Index, Index>> region = {{lo, hi}};

    redist::RedistPlanV2 v2 = redist::build_runs(from, to);
    std::vector<redist::TransferV2> kept;
    for (auto& t : v2.transfers)
      if (t.restrict_to(region)) kept.push_back(std::move(t));

    // Filter the oracle the way the runtime used to: erase out-of-region
    // indices, drop empty transfers.
    redist::RedistPlan oracle = testing::oracle_plan(from, to);
    std::vector<redist::Transfer> expected;
    for (auto& t : oracle.transfers) {
      std::erase_if(t.dim_indices[0],
                    [&](Index i) { return i < lo || i >= hi; });
      if (!t.dim_indices[0].empty()) expected.push_back(std::move(t));
    }
    ASSERT_EQ(kept.size(), expected.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].src, expected[i].src);
      EXPECT_EQ(kept[i].dst, expected[i].dst);
      EXPECT_EQ(kept[i].materialize().dim_indices, expected[i].dim_indices);
      const auto program = redist::compile_transfer(
          kept[i], from.owned_index_runs(kept[i].src),
          to.owned_index_runs(kept[i].dst));
      EXPECT_EQ(segment_locals(program),
                oracle_locals(expected[i], from, to));
    }
  }
}

TEST(PlanRuns, PackUnpackRoundTripsThroughPayload) {
  std::mt19937 rng(5);
  const Shape shape{48};
  const ConcreteLayout from = random_layout(rng, shape);
  const ConcreteLayout to = random_layout(rng, shape);
  const redist::RedistPlanV2 v2 = redist::build_runs(from, to);
  for (const auto& t : v2.transfers) {
    const auto program = redist::compile_transfer(
        t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst));
    std::vector<double> src_local(
        static_cast<std::size_t>(from.local_count(t.src)));
    for (std::size_t i = 0; i < src_local.size(); ++i)
      src_local[i] = static_cast<double>(i + 1);
    std::vector<double> payload;
    redist::pack(program, src_local, payload);
    ASSERT_EQ(payload.size(), static_cast<std::size_t>(program.elements));
    std::vector<double> dst_local(
        static_cast<std::size_t>(to.local_count(t.dst)), 0.0);
    redist::unpack(program, payload, dst_local);
    // Every packed element must land where the oracle says it lands.
    const auto pairs = segment_locals(program);
    for (const auto& [src_pos, dst_pos] : pairs)
      EXPECT_EQ(dst_local[static_cast<std::size_t>(dst_pos)],
                src_local[static_cast<std::size_t>(src_pos)]);
  }
}

}  // namespace
}  // namespace hpfc
