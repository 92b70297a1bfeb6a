// The runtime of §5: executes a compiled routine on the simulated
// distributed-memory machine. Arrays are stored as statically mapped
// versions (one block-cyclic local piece per rank); the generated guard
// code (codegen::RuntimeProgram) manages the per-array status descriptor
// and per-copy live flags; Copy ops run real redistribution communication
// through an exec::Backend (the sequential BSP loop or the thread-per-rank
// engine — both yield identical results, inbox order, and NetStats).
// Copies sharing a codegen copy group (one remapping vertex) are deferred
// and flushed as ONE fused exchange superstep with per-(src,dst) combined
// messages (see redist/fused.hpp), unless RunOptions::unfuse_copy_groups
// restores the historical one-superstep-per-copy behaviour.
//
// Execution is differential-testable: a sequential oracle executes the
// same control-flow path against one canonical value array per abstract
// array; read checksums (exact integer arithmetic, order-independent) must
// be identical. Writes stamp deterministic values derived from a write
// counter shared by construction between the two executions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "codegen/runtime_ops.hpp"
#include "exec/backend.hpp"
#include "net/network.hpp"
#include "remap/build.hpp"

namespace hpfc::runtime {

struct RunOptions {
  /// Machine size; 0 = max processor-arrangement size used by the program.
  int ranks = 0;
  net::CostModel cost{};
  /// Seed for branch decisions (if conditions). The same seed makes the
  /// oracle and the parallel run follow the same path.
  unsigned seed = 1;
  /// Total distributed-memory budget in bytes; 0 = unlimited. When an
  /// allocation would exceed it, the runtime evicts live non-current
  /// copies (they are regenerated later with communication, §5.2).
  std::uint64_t memory_limit = 0;
  /// Validate, after every step, that every live non-current copy holds
  /// the canonical values (the liveness invariant). Slow; for tests.
  bool paranoid = false;
  /// How rank work executes on the host: the sequential BSP loop or the
  /// thread-per-rank engine. Both produce identical results and NetStats;
  /// only exec_ms differs. The oracle always runs sequentially.
  exec::BackendKind backend = exec::BackendKind::Seq;
  /// Worker threads for the thread backend (clamped to [1, ranks];
  /// 0 = min(ranks, CPUs in the affinity mask)). Ignored by the seq
  /// backend.
  int threads = 0;
  /// Disable cross-array message aggregation and run every Copy op as its
  /// own exchange superstep, as the runtime did historically. Results and
  /// the data-volume counters (elements, bytes, segments, checksums) are
  /// identical either way; messages, supersteps, fused_copies and
  /// sim_time move, and so may the memory accounting (peak_bytes,
  /// evictions): a fused vertex holds — and pins against eviction — all
  /// its members' endpoints until the shared flush. For tests and A/B
  /// measurements.
  bool unfuse_copy_groups = false;
  /// Proc backend only: route the socket mesh over TCP loopback
  /// connections instead of AF_UNIX socketpairs (same frames, real
  /// network stack). An environment A/B knob.
  bool proc_tcp = false;
  /// Proc backend only: deadline for every socket operation in
  /// milliseconds. Bounds how long a dead or wedged worker can stall an
  /// exchange before the run fails with a diagnostic instead of hanging.
  int proc_timeout_ms = 10000;
  /// Directory for crash-consistent snapshots of the versioned array
  /// store (persist::SnapshotWriter). Empty = snapshots disabled. The
  /// run starts a fresh journal, truncating the directory's previous
  /// one. The oracle never snapshots.
  std::string snapshot_dir;
  /// Snapshot every Nth remap boundary (a CFG node whose guard code
  /// ran). The final store is always sealed at exit regardless.
  /// Ignored without snapshot_dir.
  int snapshot_every = 1;

  /// Sets a boolean toggle by registry name ("unfuse-copy-groups" /
  /// "unfuse_copy_groups" — both spellings resolve; see
  /// runtime/toggles.hpp). Returns false when no such toggle exists.
  bool set(std::string_view toggle, bool value = true);
};

struct RunReport {
  std::uint64_t signature = 0;  ///< order-independent read checksum
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Remapping copies actually performed (communication happened).
  int copies_performed = 0;
  std::uint64_t elements_copied = 0;
  /// Remap guards that found the array already mapped as required
  /// (the paper's "inexpensive check of its status").
  int skipped_already_mapped = 0;
  /// Remap guards that found a live copy and reused it without
  /// communication (the live-copy optimization paying off).
  int skipped_live_copy = 0;
  int allocations = 0;
  int frees = 0;
  int evictions = 0;
  /// Compiled plan slots (segment programs) dropped under memory pressure
  /// after storage eviction alone could not satisfy the limit; each one
  /// is re-compiled on its next use.
  int plan_evictions = 0;
  std::uint64_t peak_bytes = 0;
  /// Payload bytes actually materialized into message buffers while
  /// packing (remote transfers only: src == dst transfers take the local
  /// fast path).
  std::uint64_t packed_bytes = 0;
  /// src == dst transfers executed as direct strided local copies,
  /// bypassing message materialization entirely.
  std::uint64_t local_fastpath_copies = 0;
  /// Exported dummy arguments held the canonical values at exit.
  bool exported_values_ok = true;
  net::NetStats net;

  // Machine configuration and host timing, filled by every run: the
  // resolved rank count, the execution backend that ran the rank work,
  // the host worker threads it used, and the wall-clock time of the run
  // itself. Program compilation happens before the timed window, but the
  // lazy per-plan-slot transfer compilation on each site's first Copy is
  // part of the run and is included.
  int ranks = 0;
  std::string backend;
  int threads = 0;
  double exec_ms = 0.0;

  // Superstep phase timers: wall-clock accumulated over every exchange
  // superstep's pack / exchange / unpack window (run_benches' timeout
  // diagnostics read them). They sum to less than
  // exec_ms — guard evaluation, plan compilation, and local fast-path
  // copies run outside the three windows.
  double pack_ms = 0.0;
  double exchange_ms = 0.0;
  double unpack_ms = 0.0;

  // Real-socket traffic (exec::WireStats): zero unless the proc backend
  // ran. Deliberately outside NetStats — NetStats stay byte-identical
  // across backends, while wire traffic only exists when payloads
  // physically cross a process boundary.
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t proc_spawns = 0;

  // Crash-consistent snapshot work (persist::SnapshotWriter; all zero
  // unless RunOptions::snapshot_dir is set). Bytes and runs count the
  // journal deltas and are byte-identical across execution backends —
  // snapshot boundaries are program-structural and the store contents
  // are deterministic — while snapshot_ms is host wall-clock. The
  // runtime never restores mid-run: restore_ms is filled by embedders
  // (benches, tools) that time persist::restore against this run.
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_runs_written = 0;
  double snapshot_ms = 0.0;
  double restore_ms = 0.0;

  [[nodiscard]] std::string summary() const;
};

/// Runs the compiled routine on the simulated machine.
RunReport run_parallel(const ir::Program& program,
                       const remap::Analysis& analysis,
                       const codegen::RuntimeProgram& code,
                       const RunOptions& options = {});

/// Runs the sequential reference semantics (no distribution, no copies).
RunReport run_oracle(const ir::Program& program,
                     const remap::Analysis& analysis,
                     const RunOptions& options = {});

}  // namespace hpfc::runtime
