// Execution backends: how the P ranks of the simulated machine actually
// run on the host.
//
// The runtime's compiled programs are rank-independent: every superstep is
// "each rank does its local guard/copy/compute work, then the machine
// exchanges messages".  A Backend supplies exactly those two primitives —
// `step()` dispatches a per-rank closure into each rank's execution
// context and waits for all ranks (a BSP barrier), and `exchange()`
// performs one superstep of all-to-all personalized communication with
// deterministic (src, emission-order) inbox ordering.
//
// Three implementations exist:
//   SeqBackend    the original sequential BSP loop (rank 0..P-1 in turn).
//   ThreadBackend one persistent worker per rank (a pool of
//                 min(threads, ranks) workers when P exceeds the host),
//                 rank-owned mailboxes, and a fork-join barrier protocol.
//   ProcBackend   one forked worker process per rank; exchange() ships
//                 the framed payloads through a real socket mesh
//                 (exec/proc_backend.hpp).
//
// All produce byte-identical NetStats and identical inbox ordering, so
// the differential oracle and the bench regression checks hold across
// backends; only wall-clock time (and, for proc, the wire counters)
// differs.
#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/cost_model.hpp"
#include "net/message.hpp"
#include "net/network.hpp"

namespace hpfc::exec {

enum class BackendKind {
  Seq,     ///< sequential BSP loop, zero threading overhead
  Thread,  ///< thread-per-rank SPMD (pooled when ranks > workers)
  Proc,    ///< process-per-rank with a real socket mesh for exchanges
};

[[nodiscard]] const char* to_string(BackendKind kind);
/// Parses "seq" / "thread" / "proc"; nullopt on anything else.
[[nodiscard]] std::optional<BackendKind> parse_backend_kind(
    std::string_view name);

/// Configuration for BackendKind::Proc; ignored by the other backends.
struct ProcConfig {
  /// Use TCP loopback connections instead of AF_UNIX socketpairs (the
  /// same frames flow either way; an environment A/B knob).
  bool tcp = false;
  /// Deadline for every socket operation, in milliseconds: bounds how
  /// long a dead or wedged worker can stall an exchange before the run
  /// fails with a diagnostic instead of hanging.
  int timeout_ms = 10000;
};

/// Real-socket traffic counters, filled by ProcBackend and zero for the
/// in-process backends. Deliberately NOT part of net::NetStats: NetStats
/// is byte-identical across backends (the determinism contract asserted
/// by tests and `check_bench_regression --identical`), while wire traffic
/// only exists when payloads physically cross a process boundary.
struct WireStats {
  /// Framed bytes written to real sockets (headers + bodies, every hop:
  /// controller->worker, worker->worker, worker->controller).
  std::uint64_t wire_bytes = 0;
  /// net::Messages serialized onto a real socket, counted once per hop
  /// (a remote message travels three hops, a self-message two).
  std::uint64_t wire_msgs = 0;
  /// Worker processes forked over the backend's lifetime.
  std::uint64_t proc_spawns = 0;

  friend bool operator==(const WireStats&, const WireStats&) = default;
};

/// Rank-local work executed inside a backend's rank context.  The closure
/// must touch only rank-owned state (the rank's local memory, its slot of
/// a per-rank scratch vector) plus immutable shared data.
///
/// A non-owning callable reference (two pointers, no allocation): rank
/// closures are short-lived lambdas on the controlling thread's stack and
/// every step() call would otherwise heap-allocate a std::function for
/// its capture state.  The referenced callable must outlive the step()
/// call — passing a lambda directly at the call site is always safe.
class RankFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RankFn> &&
             std::is_invocable_v<const F&, int>)
  RankFn(const F& fn)  // NOLINT(google-explicit-constructor)
      : object_(&fn), call_([](const void* object, int rank) {
          (*static_cast<const F*>(object))(rank);
        }) {}

  void operator()(int rank) const { call_(object_, rank); }

 private:
  const void* object_;
  void (*call_)(const void*, int);
};

/// CPUs this process may run on: the size of its scheduler affinity mask
/// (so a process pinned to one CPU counts one), falling back to
/// std::thread::hardware_concurrency() when the mask cannot be read.
[[nodiscard]] int usable_cpus();

/// A reusable fork-join rank pool: min(threads, ranks) persistent workers
/// execute a published RankFn under a generation-counter protocol, with
/// worker w owning ranks w, w+T, w+2T, ... (static striping — no work
/// queue, no per-rank locking). The mutex/condition hand-off around each
/// run() provides the happens-before edges between consecutive runs that
/// make rank-owned data safely visible across workers.
///
/// Extracted from ThreadBackend so ProcBackend can drive its per-rank
/// wire phases (gather-sends, scatter-receives) through the same engine
/// that runs pack/unpack rank work.
class StepPool {
 public:
  /// `threads <= 0` picks min(ranks, usable_cpus()).
  StepPool(int ranks, int threads);
  ~StepPool();
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(r) for every rank r across the pool and returns once all
  /// ranks finished (a barrier). If rank work throws, the lowest-indexed
  /// failing worker's exception is rethrown here.
  void run(const RankFn& fn);

 private:
  void worker_loop(int worker);

  int ranks_;
  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::vector<std::exception_ptr> errors_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable step_done_;
  const RankFn* fn_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

class Backend {
 public:
  Backend(int ranks, net::CostModel cost);
  virtual ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] const char* name() const { return to_string(kind()); }
  [[nodiscard]] int ranks() const { return ranks_; }
  /// Host threads executing rank work (1 for SeqBackend).
  [[nodiscard]] virtual int workers() const = 0;
  [[nodiscard]] const net::NetStats& stats() const { return stats_; }
  /// Real-socket traffic (zero for every backend but Proc).
  [[nodiscard]] const WireStats& wire() const { return wire_; }
  [[nodiscard]] const net::CostModel& cost_model() const { return cost_; }
  void reset_stats() { stats_ = {}; }

  /// Runs fn(r) for every rank r inside the backend's rank execution
  /// context and returns once all ranks finished (a superstep barrier).
  /// If rank work throws, one of the exceptions is rethrown here.
  /// A step is pure computation: it never advances the superstep clock.
  virtual void step(const RankFn& fn) = 0;

  /// One BSP superstep of all-to-all personalized communication:
  /// outboxes[r] holds the messages rank r sends (each message's src must
  /// equal r).  Returns inboxes[r] = messages received by rank r in
  /// deterministic (src, emission) order, and advances the simulated
  /// clock by the busiest rank's alpha-beta cost.
  virtual std::vector<std::vector<net::Message>> exchange(
      std::vector<std::vector<net::Message>> outboxes) = 0;

  /// A synchronization-only superstep (advances the step counter and
  /// charges one latency).
  void barrier();

  /// Accounts rank-local bulk copies that bypassed message materialization
  /// (the runtime's src == dst fast path). Byte-identical to routing the
  /// same data through exchange() as self-messages: self-deliveries count
  /// local_copies/local_bytes/segments but never contribute to the
  /// superstep clock. Shared by every backend; call from the controlling
  /// thread between steps.
  void account_local(std::uint64_t copies, std::uint64_t bytes,
                     std::uint64_t segments) {
    stats_.local_copies += copies;
    stats_.local_bytes += bytes;
    stats_.segments += segments;
  }

  /// Accounts copies whose communication was aggregated into a shared
  /// exchange superstep (a CopyGroup flush with two or more members).
  /// Purely a counter: the superstep itself was already charged by the
  /// exchange that carried the fused messages.
  void account_fused(std::uint64_t copies) { stats_.fused_copies += copies; }

  /// Accounts symbolic plan-cache traffic from the runtime's plan slots:
  /// one two-level lookup per plan-slot compile (symbolic family id →
  /// bound (N, P) instance), counted at the producing site on the
  /// controlling thread between steps, so the counters are invariant
  /// across unfuse_copy_groups and the execution backends.
  /// `instantiations` counts the concrete plans built on misses (rising
  /// again when an evicted instance is re-bound).
  void account_plan_cache(std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t instantiations) {
    stats_.plan_cache_hits += hits;
    stats_.plan_cache_misses += misses;
    stats_.symbolic_instantiations += instantiations;
  }

 protected:
  int ranks_;
  net::CostModel cost_;
  net::NetStats stats_;
  WireStats wire_;
};

/// Creates a backend. `threads` applies to BackendKind::Thread only:
/// the worker count, clamped to [1, ranks]; 0 picks
/// min(ranks, usable_cpus()). `proc` applies to BackendKind::Proc
/// only (socket flavour and operation deadline).
std::unique_ptr<Backend> make_backend(BackendKind kind, int ranks,
                                      net::CostModel cost = {},
                                      int threads = 0, ProcConfig proc = {});

}  // namespace hpfc::exec
