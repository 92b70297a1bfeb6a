// Steady-state remapping hot path: fig16's block <-> cyclic loop at P=8,
// n=1M, driven through every execution backend with host allocation
// counting. This is the workload the run-compiled execution paths target:
// cached ownership programs, the src == dst local-copy fast path, and
// pooled payload/mailbox buffers must make repeated remappings both
// faster (exec_ms) and allocation-free in steady state (host_allocs).
// The per-backend configs are recorded under backend-tagged names so the
// CI seq-vs-thread compare sees the identical counter sets from either
// matrix leg.
//
// A second, multi-array configuration (fig16_multi: k arrays aligned to
// one template, remapped together per loop trip) measures the fused remap
// supersteps: with cross-array aggregation on (the default) each remap
// vertex costs ONE exchange superstep; the `unfused` rows re-run with
// RunOptions::unfuse_copy_groups to show `supersteps` k-fold higher at
// byte-identical elements/segments/bytes.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "common.hpp"
#include "driver/compiler.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};

unsigned long long alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace

// Executable-local operator new/delete: counts every heap allocation made
// while the measured runs execute (workers included via the atomic).
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

int main(int argc, char** argv) {
  using namespace bench_common;
  return bench_main(argc, argv, "remap_hotpath", [](Harness& harness) {
    banner("remap_hotpath: steady-state remapping loop (fig16, O0)",
           "remapping cost is dominated by how fast array copies move; the "
           "compiled hot paths keep steady-state loops allocation-free");
    const hpfc::mapping::Extent n = 1 << 20;
    const int procs = 8;
    const hpfc::mapping::Extent trips = 6;
    const Compiled compiled = compile(fig16(n, procs, trips), OptLevel::O0);

    // The best repetition's whole report is recorded, so the pack /
    // exchange / unpack split describes the run the exec_ms came from.
    for (const auto backend :
         {hpfc::exec::BackendKind::Seq, hpfc::exec::BackendKind::Thread,
          hpfc::exec::BackendKind::Proc}) {
      hpfc::runtime::RunOptions options;
      options.seed = harness.options().run.seed;
      options.backend = backend;
      options.threads = 8;
      // Warm-up run outside the measured window; the oracle signature is
      // the cross-check reference for every timed repetition.
      const auto oracle = hpfc::driver::run_oracle(compiled, options);
      (void)hpfc::driver::run(compiled, options);

      RunReport best;
      unsigned long long best_allocs = 0;
      const int reps = harness.options().reps;
      for (int rep = 0; rep < reps; ++rep) {
        const unsigned long long before = alloc_count();
        const RunReport report = hpfc::driver::run(compiled, options);
        const unsigned long long allocs = alloc_count() - before;
        if (report.signature != oracle.signature ||
            !report.exported_values_ok) {
          std::fprintf(stderr, "remap_hotpath diverged from the oracle\n");
          std::abort();
        }
        if (rep == 0 || report.exec_ms < best.exec_ms) best = report;
        if (rep == 0 || allocs < best_allocs) best_allocs = allocs;
      }

      LevelMetrics metrics = metrics_from("O0", best);
      metrics.host_allocs = best_allocs;
      const std::string config = std::string("P=8 n=1048576 trips=6 ") +
                                 hpfc::exec::to_string(backend);
      row(config, metrics);
      note(config + ": exec_ms=" + std::to_string(metrics.exec_ms) +
           " pack_ms=" + std::to_string(metrics.pack_ms) +
           " exchange_ms=" + std::to_string(metrics.exchange_ms) +
           " unpack_ms=" + std::to_string(metrics.unpack_ms) +
           " host_allocs=" + std::to_string(best_allocs) +
           " local_fastpath_copies=" +
           std::to_string(best.local_fastpath_copies));
      harness.record_metrics("remap_hotpath", config, std::move(metrics));
    }

    // Cross-array aggregation: one remap vertex moving 4 arrays at once.
    banner("remap_hotpath: fused remap supersteps (fig16_multi, O0)",
           "k copies emitted for one remapping vertex share one "
           "communication round instead of k (the alpha term drops "
           "k-fold; data-volume counters are unchanged)");
    const int arrays = 4;
    const hpfc::mapping::Extent multi_n = 1 << 18;
    const Compiled multi =
        compile(fig16_multi(multi_n, procs, arrays, trips), OptLevel::O0);
    // One oracle run covers every leg: the oracle always executes
    // sequentially, independent of backend and fusion toggles.
    hpfc::runtime::RunOptions multi_options;
    multi_options.seed = harness.options().run.seed;
    const auto oracle = hpfc::driver::run_oracle(multi, multi_options);
    for (const auto backend :
         {hpfc::exec::BackendKind::Seq, hpfc::exec::BackendKind::Thread}) {
      for (const bool unfuse : {false, true}) {
        hpfc::runtime::RunOptions options = multi_options;
        options.backend = backend;
        options.threads = 8;
        options.unfuse_copy_groups = unfuse;
        // Warm-up outside the timed window, like the fig16 configs: the
        // first run pays plan/fused-slot compilation.
        (void)hpfc::driver::run(multi, options);
        RunReport report = hpfc::driver::run(multi, options);
        double best_exec_ms = report.exec_ms;
        for (int rep = 1; rep < harness.options().reps; ++rep) {
          report = hpfc::driver::run(multi, options);
          if (report.exec_ms < best_exec_ms) best_exec_ms = report.exec_ms;
        }
        if (report.signature != oracle.signature ||
            !report.exported_values_ok) {
          std::fprintf(stderr, "remap_hotpath multi diverged from oracle\n");
          std::abort();
        }
        LevelMetrics metrics = metrics_from("O0", report);
        metrics.exec_ms = best_exec_ms;
        const std::string config =
            std::string("P=8 n=262144 arrays=4 trips=6 ") +
            (unfuse ? "unfused " : "fused ") + hpfc::exec::to_string(backend);
        row(config, metrics);
        note(config + ": supersteps=" + std::to_string(metrics.supersteps) +
             " fused_copies=" + std::to_string(metrics.fused_copies) +
             " messages=" + std::to_string(metrics.remote_messages) +
             " sim_time_ms=" + std::to_string(metrics.sim_time_ms));
        harness.record_metrics("remap_hotpath", config, std::move(metrics));
      }
    }
  });
}
