// Shared helpers for the per-figure benchmark harness: program factories
// for the paper's examples (parameterized by problem size / machine size),
// compile-and-run wrappers, the paper-vs-measured row printer used by
// EXPERIMENTS.md, and the JSON-emitting measurement harness every
// bench_*.cpp executable routes through (bench_main).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "hpf/builder.hpp"

namespace bench_common {

using hpfc::driver::Compiled;
using hpfc::driver::OptLevel;
using hpfc::runtime::RunReport;

/// Compiles a built program at the given level; aborts on any diagnostic.
Compiled compile(hpfc::hpf::ProgramBuilder& builder, OptLevel level);
Compiled compile(hpfc::ir::Program program, OptLevel level);

/// Runs on the simulated machine (auto rank count) with a fixed seed, and
/// cross-checks the result signature against the sequential oracle.
RunReport run_checked(const Compiled& compiled, unsigned seed = 7);
/// Same, with full control over the run (backend, threads, ranks...).
RunReport run_checked(const Compiled& compiled,
                      const hpfc::runtime::RunOptions& run_options);

/// Experiment banner / rows (stable text format consumed by EXPERIMENTS.md).
void banner(const std::string& experiment, const std::string& paper_claim);
void row(const std::string& label, const RunReport& report);
void note(const std::string& text);

// ---- measurement harness ------------------------------------------------

/// Per-optimization-level metrics for one figure configuration: the
/// communication counters from the simulated run plus host wall times for
/// the compile and the run (medians over the timed repetitions).
struct LevelMetrics {
  std::string level;                     ///< "O0" | "O1" | "O2"
  int copies_performed = 0;              ///< remapping copies that happened
  std::uint64_t elements_copied = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t remote_bytes = 0;
  /// Bulk-copy segments across all payloads: pack granularity
  /// (elements_copied / pack_segments is the mean copy length).
  std::uint64_t pack_segments = 0;
  /// Payload bytes materialized into message buffers (remote transfers
  /// only when the local fast path is active).
  std::uint64_t packed_bytes = 0;
  /// src == dst transfers executed as direct local copies, bypassing
  /// message materialization.
  std::uint64_t local_fastpath_copies = 0;
  /// Exchange supersteps the run performed (one per fused copy group
  /// flush, one per unfused copy) — the alpha-term unit of the cost model.
  std::uint64_t supersteps = 0;
  /// Copies whose communication shared a superstep with at least one
  /// other copy (cross-array message aggregation); 0 when every remap
  /// vertex moves a single array or fusion is disabled.
  std::uint64_t fused_copies = 0;
  /// Warm lookups the symbolic plan cache served without instantiating
  /// (the (N, P) instance already existed).
  std::uint64_t plan_cache_hits = 0;
  /// Cold lookups that had to instantiate a symbolic plan for a new
  /// (N, P) key; always equal to symbolic_instantiations.
  std::uint64_t plan_cache_misses = 0;
  /// Symbolic-plan instantiations performed (O(runs), not O(N)); counted
  /// at the producing site, so invariant across backends and the fusion
  /// toggle.
  std::uint64_t symbolic_instantiations = 0;
  /// Host heap allocations during the measured run (0 when the bench does
  /// not count them; only bespoke benches overriding operator new fill it).
  std::uint64_t host_allocs = 0;
  int skipped_status_guard = 0;          ///< guard found array well-mapped
  int skipped_live_copy = 0;             ///< guard reused a live copy
  /// Real-socket traffic (proc backend only; zero otherwise). Outside
  /// the `--identical` comparison set: NetStats are byte-identical
  /// across backends, wire traffic exists only when payloads physically
  /// cross a process boundary.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t proc_spawns = 0;
  /// Crash-consistent snapshot work (zero unless the bench sets
  /// RunOptions::snapshot_dir). Bytes and runs count the journal deltas
  /// and are byte-identical across execution backends — they ARE in the
  /// `--identical` comparison set; the two timings are host wall-clock.
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_runs_written = 0;
  double snapshot_ms = 0.0;
  /// Host time of persist::restore() rebuilding the sealed store; filled
  /// by benches that time a restore against the run (bench_fig18_restore).
  double restore_ms = 0.0;
  double sim_time_ms = 0.0;              ///< simulated machine time
  /// Host wall-clock time of the machine execution itself, as measured
  /// inside the runtime (median over repetitions): the number that drops
  /// when --backend=thread spreads rank work over real cores.
  double exec_ms = 0.0;
  /// Superstep phase timers (medians over repetitions): wall-clock spent
  /// inside every exchange superstep's pack / exchange / unpack window.
  /// They sum to less than exec_ms (guard evaluation, plan compilation
  /// and local fast-path copies run outside the windows).
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;
  double compile_wall_ms = 0.0;          ///< median host compile time
  /// Median host time of the simulated run alone (the sequential oracle
  /// used for cross-checking is executed outside the timed region).
  double run_wall_ms = 0.0;
};

/// Converts a simulated-run report into per-level metrics.
LevelMetrics metrics_from(const std::string& level, const RunReport& report,
                          double compile_wall_ms = 0.0,
                          double run_wall_ms = 0.0);
/// The classic text row, from already-converted metrics.
void row(const std::string& label, const LevelMetrics& metrics);

/// One measured configuration of a paper figure ("fig02", "P=4 n=64").
struct FigureRecord {
  std::string figure;
  std::string config;
  std::vector<LevelMetrics> levels;
};

/// RunOptions with the bench harness defaults (seed 7, the historical
/// CLI default — RunOptions itself defaults to 1).
hpfc::runtime::RunOptions default_run_options();

/// Harness options parsed from the command line.  Recognized flags are
/// removed from argv so the remainder can still go to Google Benchmark.
///
/// The machine flags (--backend=seq|thread|proc, --threads, --ranks,
/// --seed, --proc-timeout-ms) and every registered A/B toggle
/// (--unfuse-copy-groups, --paranoid, --proc-tcp) come from the shared
/// support::cli surface and land in `run`; `--list-toggles` prints the
/// registry table and exits.  Harness-specific flags:
///
///   --json=PATH   write the collected metrics as JSON to PATH
///   --reps=N      timed repetitions per measurement (default 3)
///   --warmup=N    untimed warm-up repetitions per measurement (default 1)
///   --calibrate   fit the cost model's alpha/beta from measured
///                 proc-backend round-trips before any measurement, and
///                 record the constants in the JSON output
///   --no-gbench   skip the Google Benchmark micro-benchmarks
struct HarnessOptions {
  int reps = 3;
  int warmup = 1;
  /// The simulated-run configuration every measurement uses (seed,
  /// backend, threads, ranks, and all registered toggles).
  hpfc::runtime::RunOptions run = default_run_options();
  bool calibrate = false;
  /// Fitted constants when --calibrate ran (samples > 0 marks validity).
  hpfc::exec::Calibration calibration;
  std::string json_path;
  bool run_google_benchmarks = true;

  static HarnessOptions parse(int& argc, char** argv);
};

/// Collects per-figure measurements and serializes them to JSON.  The
/// classic text rows keep printing so EXPERIMENTS.md stays reproducible.
class Harness {
 public:
  using Factory = std::function<hpfc::ir::Program()>;

  Harness(std::string bench_name, HarnessOptions options);

  /// Compiles the factory's program at each level (wall-timed with
  /// warm-up and repetitions), runs it checked against the oracle,
  /// prints the classic row, and records a FigureRecord level entry.
  /// `seed` of 0 means "use the harness-wide seed".
  void measure(const std::string& figure, const std::string& config,
               const Factory& factory,
               std::vector<OptLevel> levels = {OptLevel::O0, OptLevel::O1,
                                               OptLevel::O2},
               unsigned seed = 0);

  /// Records an externally produced run (for benches with bespoke
  /// measurement loops, e.g. per-seed live-copy paths).
  void record(const std::string& figure, const std::string& config,
              const std::string& level, const RunReport& report,
              double compile_wall_ms = 0.0, double run_wall_ms = 0.0);

  /// Records fully pre-built metrics (benches that fill fields the
  /// harness cannot measure itself, e.g. host_allocs).
  void record_metrics(const std::string& figure, const std::string& config,
                      LevelMetrics metrics);

  /// Records a timing-only entry (analysis/optimization scaling rows
  /// that have no simulated run attached).
  void record_timing(const std::string& figure, const std::string& config,
                     const std::string& level, double wall_ms);

  /// RunOptions matching the harness flags (backend, threads, seed; a
  /// `seed` of 0 means "use the harness-wide seed") — what measure() uses,
  /// for benches with bespoke measurement loops.
  [[nodiscard]] hpfc::runtime::RunOptions run_options(unsigned seed = 0) const;

  [[nodiscard]] const HarnessOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<FigureRecord>& records() const {
    return records_;
  }

  /// Writes the collected records to options().json_path (no-op and true
  /// when no path was requested; false on I/O failure).
  [[nodiscard]] bool write_json() const;

 private:
  LevelMetrics measure_level(const Factory& factory, OptLevel level,
                             unsigned seed);
  FigureRecord& entry(const std::string& figure, const std::string& config);

  std::string bench_name_;
  HarnessOptions options_;
  std::vector<FigureRecord> records_;
};

/// Shared main for every bench executable: parses harness flags, runs
/// `body` to collect measurements, writes JSON when requested, then runs
/// the executable's Google Benchmark suite (unless --no-gbench).
int bench_main(int argc, char** argv, const std::string& bench_name,
               const std::function<void(Harness&)>& body);

// ---- program factories (paper figures at scalable sizes) ---------------

/// Figure 1: realign + redistribute of A (direct-remapping motivation).
hpfc::ir::Program fig1(hpfc::mapping::Extent n, int procs, bool use_between);
/// Figure 2: restored mapping makes both C remappings useless.
hpfc::ir::Program fig2(hpfc::mapping::Extent n, int procs);
/// Figure 3: `arrays` aligned arrays, `used_after` of them used afterwards.
hpfc::ir::Program fig3(hpfc::mapping::Extent n, int procs, int arrays,
                       int used_after);
/// Figure 4: foo;foo;bla call chain on Y.
hpfc::ir::Program fig4(hpfc::mapping::Extent n, int procs);
/// Figure 10: the ADI-like routine with `sweeps` loop iterations.
hpfc::ir::Program fig10(hpfc::mapping::Extent n, int procs,
                        hpfc::mapping::Extent sweeps);
/// Figure 13: flow-dependent live copy.  With `useless_tail` a trailing
/// remapping no use reaches is appended, so the same workload also
/// exercises O1's useless-remapping removal.
hpfc::ir::Program fig13(hpfc::mapping::Extent n, int procs,
                        bool useless_tail = false);
/// Figure 16: loop-invariant remappings over `trips` iterations.
hpfc::ir::Program fig16(hpfc::mapping::Extent n, int procs,
                        hpfc::mapping::Extent trips);
/// Figure 16 with a fan-out: `arrays` template-aligned arrays remapped
/// together by each loop redistribution, so every remap vertex copies k
/// arrays at once (the fused-superstep workload).
hpfc::ir::Program fig16_multi(hpfc::mapping::Extent n, int procs, int arrays,
                              hpfc::mapping::Extent trips);
/// Figure 18: ambiguous reaching mapping around a call.
hpfc::ir::Program fig18(hpfc::mapping::Extent n, int procs);

/// A synthetic routine with `remaps` remapping statements, `arrays`
/// arrays and a CFG of roughly `cfg_nodes` nodes (Appendix B scaling).
hpfc::ir::Program scaling_program(int arrays, int remaps, int filler_refs);

}  // namespace bench_common
