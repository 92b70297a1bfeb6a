// Plan construction and pack throughput at large N: the list-based
// oracle (testing::oracle_plan) materializes every per-dimension index,
// so its cost scales with the array extent; the run-based build_runs()
// works on closed-form interval runs, so for fixed P its cost is
// independent of N. The pack stage measures segment-program compilation
// plus bulk pack/unpack throughput on a real redistribution. The
// symbolic sweep compiles each layout pair ONCE into a SymbolicPlan and
// then binds it across an (N, P) grid: the cold binding is O(runs), and
// the warm binding is one cache lookup, flat in N — "compile once,
// instantiate anywhere".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mapping/layout.hpp"
#include "mapping/symbolic.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "redist/symbolic_plan.hpp"
#include "testing/plan_oracle.hpp"

namespace {

using hpfc::mapping::AlignTarget;
using hpfc::mapping::ConcreteLayout;
using hpfc::mapping::DimOwner;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::Shape;

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt) {
  DimOwner owner;
  owner.source = AlignTarget::axis(0);
  owner.template_extent = n;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(n, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct LayoutPair {
  std::string name;
  DistFormat from;
  DistFormat to;
};

void measure_plan_build(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  const Extent procs = 8;
  const LayoutPair pairs[] = {
      {"block-cyclic", DistFormat::block(), DistFormat::cyclic()},
      {"cyclic3-block", DistFormat::cyclic(3), DistFormat::block()},
      {"cyclic2-cyclic5", DistFormat::cyclic(2), DistFormat::cyclic(5)},
  };
  for (const Extent n : {Extent{1} << 16, Extent{1} << 18, Extent{1} << 20,
                         Extent{1} << 21}) {
    for (const LayoutPair& pair : pairs) {
      const auto from = one_dim(n, procs, pair.from);
      const auto to = one_dim(n, procs, pair.to);
      const std::string config =
          pair.name + " N=" + std::to_string(n) + " P=" +
          std::to_string(procs);

      hpfc::redist::RedistPlan list_plan;
      const double list_ms = median_ms(
          reps, [&] { list_plan = hpfc::testing::oracle_plan(from, to); });
      hpfc::redist::RedistPlanV2 runs_plan;
      const double runs_ms = median_ms(
          reps, [&] { runs_plan = hpfc::redist::build_runs(from, to); });
      if (runs_plan.total_elements() != list_plan.total_elements()) {
        std::fprintf(stderr,
                     "bench_plan_build: element mismatch on %s (%lld vs "
                     "%lld)\n",
                     config.c_str(),
                     static_cast<long long>(runs_plan.total_elements()),
                     static_cast<long long>(list_plan.total_elements()));
        std::exit(1);
      }
      harness.record_timing("plan_build", config, "list", list_ms);
      harness.record_timing("plan_build", config, "runs", runs_ms);
      bench_common::note(config + ": list " + std::to_string(list_ms) +
                         " ms, runs " + std::to_string(runs_ms) + " ms (" +
                         runs_plan.summary() + ")");
    }
  }
}

// One SymbolicPlan per layout pair, bound across the whole (N, P) grid:
// `build_runs` rebuilds the plan concretely at every shape (the oracle
// cost), `instantiate_cold` binds the symbolic family at a new shape key
// (O(runs), flat in N), and `instantiate` is the warm path — the cache
// hit every later plan slot of the same family and shape pays.
void measure_symbolic_sweep(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  constexpr int kWarmCalls = 4096;  // inner average; one call is ~a map find
  const LayoutPair pairs[] = {
      {"block-cyclic", DistFormat::block(), DistFormat::cyclic()},
      {"cyclic3-block", DistFormat::cyclic(3), DistFormat::block()},
      {"cyclic2-cyclic5", DistFormat::cyclic(2), DistFormat::cyclic(5)},
  };
  for (const LayoutPair& pair : pairs) {
    // Compile the family once, from a small reference shape; every grid
    // point below reuses this one symbolic plan.
    const auto sym_from =
        hpfc::mapping::SymbolicLayout::abstract(one_dim(1024, 4, pair.from));
    const auto sym_to =
        hpfc::mapping::SymbolicLayout::abstract(one_dim(1024, 4, pair.to));
    if (!sym_from.has_value() || !sym_to.has_value()) {
      std::fprintf(stderr, "bench_plan_build: %s is not abstractable\n",
                   pair.name.c_str());
      std::exit(1);
    }
    hpfc::redist::SymbolicPlan plan(*sym_from, *sym_to);

    double warm_min_ms = 1e9;
    double warm_max_ms = 0.0;
    for (const Extent n : {Extent{1} << 16, Extent{1} << 18, Extent{1} << 20,
                           Extent{1} << 21, Extent{1} << 22}) {
      for (const Extent procs : {Extent{2}, Extent{4}, Extent{8},
                                 Extent{16}}) {
        const auto from = one_dim(n, procs, pair.from);
        const auto to = one_dim(n, procs, pair.to);
        const std::string config = pair.name + " N=" + std::to_string(n) +
                                   " P=" + std::to_string(procs);

        hpfc::redist::RedistPlanV2 concrete;
        const double concrete_ms = median_ms(
            reps, [&] { concrete = hpfc::redist::build_runs(from, to); });

        const auto key = hpfc::redist::SymbolicPlan::key(
            from.array_shape(), from.proc_shape(), to.proc_shape());
        std::shared_ptr<const hpfc::redist::PlanInstance> instance;
        const double cold_ms = median_ms(reps, [&] {
          plan.drop(key);
          instance = plan.instantiate(from.array_shape(), from.proc_shape(),
                                      to.proc_shape());
        });
        if (instance->plan.total_elements() != concrete.total_elements()) {
          std::fprintf(
              stderr,
              "bench_plan_build: symbolic/concrete mismatch on %s (%lld vs "
              "%lld)\n",
              config.c_str(),
              static_cast<long long>(instance->plan.total_elements()),
              static_cast<long long>(concrete.total_elements()));
          std::exit(1);
        }

        const double warm_ms =
            median_ms(reps,
                      [&] {
                        for (int i = 0; i < kWarmCalls; ++i)
                          instance = plan.instantiate(from.array_shape(),
                                                      from.proc_shape(),
                                                      to.proc_shape());
                      }) /
            kWarmCalls;
        warm_min_ms = std::min(warm_min_ms, warm_ms);
        warm_max_ms = std::max(warm_max_ms, warm_ms);

        harness.record_timing("symbolic_sweep", config, "build_runs",
                              concrete_ms);
        harness.record_timing("symbolic_sweep", config, "instantiate_cold",
                              cold_ms);
        harness.record_timing("symbolic_sweep", config, "instantiate",
                              warm_ms);
      }
    }
    bench_common::note(pair.name + ": one symbolic compile, " +
                       std::to_string(plan.instances()) +
                       " live instances; warm bind " +
                       std::to_string(warm_min_ms * 1e6) + "-" +
                       std::to_string(warm_max_ms * 1e6) +
                       " ns across the (N, P) grid");
  }
}

void measure_pack_throughput(bench_common::Harness& harness) {
  const int reps = std::max(1, harness.options().reps);
  const Extent procs = 8;
  const Extent n = Extent{1} << 21;  // 2M elements, 16 MiB of doubles
  const auto from = one_dim(n, procs, DistFormat::block());
  const auto to = one_dim(n, procs, DistFormat::cyclic(4));
  const std::string config =
      "block-cyclic4 N=" + std::to_string(n) + " P=" + std::to_string(procs);

  std::vector<hpfc::redist::SegmentProgram> programs;
  const double compile_ms = median_ms(reps, [&] {
    programs.clear();
    const auto plan = hpfc::redist::build_runs(from, to);
    for (const auto& t : plan.transfers)
      programs.push_back(hpfc::redist::compile_transfer(
          t, from.owned_index_runs(t.src), to.owned_index_runs(t.dst)));
  });
  harness.record_timing("pack", config, "compile", compile_ms);

  std::vector<std::vector<double>> src_locals(
      static_cast<std::size_t>(from.ranks()));
  std::vector<std::vector<double>> dst_locals(
      static_cast<std::size_t>(to.ranks()));
  for (int r = 0; r < from.ranks(); ++r)
    src_locals[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(from.local_count(r)), 1.0);
  for (int r = 0; r < to.ranks(); ++r)
    dst_locals[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(to.local_count(r)), 0.0);

  std::vector<double> payload;
  std::uint64_t moved = 0;
  std::uint64_t segments = 0;
  const double xfer_ms = median_ms(reps, [&] {
    moved = 0;
    segments = 0;
    for (const auto& p : programs) {
      hpfc::redist::pack(p, src_locals[static_cast<std::size_t>(p.src)],
                         payload);
      hpfc::redist::unpack(p, payload,
                           dst_locals[static_cast<std::size_t>(p.dst)]);
      moved += static_cast<std::uint64_t>(p.elements);
      segments += p.segments.size();
    }
  });
  harness.record_timing("pack", config, "pack-unpack", xfer_ms);
  const double gbps =
      static_cast<double>(moved) * sizeof(double) / (xfer_ms * 1e6);
  bench_common::note(config + ": compile " + std::to_string(compile_ms) +
                     " ms, pack+unpack " + std::to_string(xfer_ms) + " ms (" +
                     std::to_string(gbps) + " GB/s, " +
                     std::to_string(segments) + " segments for " +
                     std::to_string(moved) + " elements)");
}

}  // namespace

int main(int argc, char** argv) {
  return bench_common::bench_main(
      argc, argv, "plan_build", [](bench_common::Harness& harness) {
        bench_common::banner(
            "plan_build",
            "run-based plan construction is O(runs), not O(N), for fixed P");
        measure_plan_build(harness);
        measure_symbolic_sweep(harness);
        measure_pack_throughput(harness);
      });
}
