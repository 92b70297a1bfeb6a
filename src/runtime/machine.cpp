#include "runtime/machine.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>

#include "exec/backend.hpp"
#include "mapping/symbolic.hpp"
#include "persist/snapshot.hpp"
#include "redist/commsets.hpp"
#include "redist/fused.hpp"
#include "redist/segments.hpp"
#include "redist/symbolic_plan.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::runtime {

namespace {

using ir::ArrayId;
using ir::CfgKind;
using mapping::ConcreteLayout;
using mapping::Index;

/// Deterministic, order-independent read-checksum weight.
constexpr std::uint64_t weight(std::int64_t linear) {
  return (static_cast<std::uint64_t>(linear) * 2654435761ULL) % 1000003ULL + 1;
}

/// Value stamped by the `counter`-th write event at element `linear`.
constexpr double stamped(std::uint64_t counter, std::int64_t linear) {
  return static_cast<double>(counter * 1009ULL +
                             static_cast<std::uint64_t>(linear % 997));
}

/// One statically mapped version of one array: a local piece per rank.
struct VersionStorage {
  bool allocated = false;
  bool live = false;
  /// May have been written since the last snapshot: the snapshot writer
  /// re-hashes dirty versions' owned runs (and only those) to find the
  /// changed leaves. Conservative — a no-op write leaves clean leaves
  /// and costs a re-hash, never a journal record.
  bool dirty = false;
  std::vector<std::vector<double>> locals;  ///< per layout rank
  std::uint64_t bytes = 0;
};

/// The compiled ownership of one rank under one layout: the rank's owned
/// product set as bulk strided stretches over (local position, global
/// row-major linear) space, plus whether the rank is a sending owner
/// (under replication only coordinate-0 replicas send, so elements are
/// read/packed exactly once; the sending set is full-or-empty per rank).
struct RankOwnership {
  std::vector<mapping::OwnedRun> runs;
  bool sends = true;
};

/// Per-(array, version) ownership program, cached like plan slots: every
/// per-element runtime loop (checksums, write stamping, live-region
/// clears, copy verification) executes these precompiled stretches
/// instead of re-deriving ownership per element.
struct OwnershipProgram {
  std::vector<RankOwnership> per_rank;  ///< indexed by layout rank
};

/// Per copy-site compiled transfer programs plus pooled buffers: the
/// segment programs are compiled once per codegen plan slot; payload and
/// mailbox buffers are recycled across executions so steady-state
/// remapping loops re-run with no per-copy payload allocation.
struct PlanSlot {
  bool compiled = false;
  std::vector<redist::SegmentProgram> programs;
  /// Payload buffer per program (tag); moved into the message on pack and
  /// reclaimed from the inbox after unpack.
  std::vector<std::vector<double>> payload_pool;
  /// Recycled outbox/inbox skeleton (outer and inner vector capacities).
  std::vector<std::vector<net::Message>> mailbox_pool;
  /// The symbolic plan instance this slot compiled from (nullptr for
  /// unabstractable pairs). Instances
  /// are shared across slots; the machine refcounts their footprint so a
  /// shared instance is charged once and survives until its last slot is
  /// evicted.
  std::shared_ptr<const redist::PlanInstance> instance;
  /// Heap footprint of the compiled programs, charged against
  /// the memory limit (plan slots are evictable like array copies). The
  /// shared instance's bytes are accounted separately (refcounted).
  std::uint64_t plan_bytes = 0;
};

/// One Copy op recorded while its vertex's guard code runs: the data
/// movement is deferred so every copy the vertex fires can share a single
/// fused exchange superstep. (array, versions) are fixed by the plan slot,
/// but are kept for direct storage addressing at flush time.
struct PendingCopy {
  ArrayId array = -1;
  int src = -1;
  int dst = -1;
  int plan_slot = -1;
};

/// One cached fused communication round (per distinct fired-member set):
/// combined-message framing over the member plan slots' SegmentPrograms,
/// plus pooled per-message payloads and a recycled mailbox skeleton —
/// the group-level analogue of PlanSlot.
struct FusedSlot {
  std::vector<PendingCopy> members;
  /// members[m]'s compiled programs (borrowed from its PlanSlot). Cached
  /// fused slots are invalidated whenever a member plan slot is evicted,
  /// so these pointers never dangle.
  std::vector<const std::vector<redist::SegmentProgram>*> programs;
  /// members[m]'s (source, destination) version storage. VersionStorage
  /// objects are allocated once at machine construction, so the pointers
  /// are stable for the whole run.
  std::vector<std::pair<VersionStorage*, VersionStorage*>> endpoints;
  redist::FusedExchange exchange;
  std::vector<std::vector<double>> payload_pool;  ///< per message table entry
  std::vector<std::vector<net::Message>> mailbox_pool;
};

/// Per-rank counters written inside a copy superstep (each rank owns its
/// slot) and reduced on the controlling thread after the barrier.
struct CopyTally {
  std::uint64_t local_copies = 0;
  std::uint64_t local_bytes = 0;
  std::uint64_t local_segments = 0;
  std::uint64_t local_elements = 0;
  std::uint64_t packed_bytes = 0;
  std::uint64_t unpacked = 0;

  friend bool operator==(const CopyTally&, const CopyTally&) = default;
};

class Machine {
 public:
  Machine(const ir::Program& program, const remap::Analysis& analysis,
          const codegen::RuntimeProgram* code, const RunOptions& options)
      : program_(program),
        analysis_(analysis),
        code_(code),
        options_(options),
        rng_(options.seed),
        // The oracle has no per-rank work worth threading; it always runs
        // on the sequential backend regardless of the requested one.
        backend_(exec::make_backend(
            code != nullptr ? options.backend : exec::BackendKind::Seq,
            machine_ranks(program, options), options.cost, options.threads,
            exec::ProcConfig{options.proc_tcp, options.proc_timeout_ms})) {
    const std::size_t num_arrays = program_.arrays.size();
    status_.assign(num_arrays, 0);
    storage_.resize(num_arrays);
    ownership_.resize(num_arrays);
    canonical_.resize(num_arrays);
    for (std::size_t a = 0; a < num_arrays; ++a) {
      if (!program_.arrays[a].has_mapping) continue;
      canonical_[a].assign(
          static_cast<std::size_t>(program_.arrays[a].shape.total()), 0.0);
      const auto versions = static_cast<std::size_t>(
          analysis_.version_count(static_cast<ArrayId>(a)));
      storage_[a].resize(versions);
      ownership_[a].resize(versions);
    }
    saved_.assign(code_ != nullptr ? static_cast<std::size_t>(code_->save_slots)
                                   : 0,
                  -1);
    plan_slots_.resize(
        code_ != nullptr ? static_cast<std::size_t>(code_->plan_slots) : 0);
    families_.resize(code_ != nullptr
                         ? static_cast<std::size_t>(code_->plan_family_count)
                         : 0);
    partials_.assign(static_cast<std::size_t>(backend_->ranks()), 0);
    copy_tallies_.assign(static_cast<std::size_t>(backend_->ranks()),
                         CopyTally{});
    if (parallel() && !options_.snapshot_dir.empty())
      snapshot_writer_ =
          std::make_unique<persist::SnapshotWriter>(options_.snapshot_dir);
    if (parallel()) {
      // Dummy arguments arrive allocated by the caller with the imported
      // values (zeros initially, like the canonical array).
      for (const ArrayId a : program_.mapped_arrays())
        if (program_.array(a).is_dummy) allocate(a, 0);
    }
  }

  RunReport run() {
    const auto start = std::chrono::steady_clock::now();
    run_program();
    if (snapshot_writer_ != nullptr) {
      const persist::SnapshotStats& snap = snapshot_writer_->stats();
      report_.snapshot_bytes = snap.bytes;
      report_.snapshot_runs_written = snap.runs_written;
      report_.snapshot_ms = snap.ms;
    }
    report_.net = backend_->stats();
    report_.ranks = backend_->ranks();
    report_.backend = backend_->name();
    report_.threads = backend_->workers();
    report_.wire_bytes = backend_->wire().wire_bytes;
    report_.wire_msgs = backend_->wire().wire_msgs;
    report_.proc_spawns = backend_->wire().proc_spawns;
    report_.exec_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return report_;
  }

 private:
  void run_program() {
    if (parallel())
      for (const auto& op : code_->at_entry) execute(op);

    int node = analysis_.cfg.entry();
    std::map<int, mapping::Extent> loop_trips;
    while (true) {
      const ir::CfgNode& n = analysis_.cfg.node(node);
      if (n.kind != CfgKind::CallPost && parallel()) {
        for (const auto& op : code_->at_node[static_cast<std::size_t>(node)])
          execute(op);
        // The node's guard code is done: run its vertex's fused
        // communication round before the node semantics read anything.
        flush_pending();
        // The store is quiescent between the vertex's communication and
        // the node semantics: a crash-consistent snapshot boundary.
        if (!code_->at_node[static_cast<std::size_t>(node)].empty())
          maybe_snapshot();
      }

      bool done = false;
      int next = n.succs.empty() ? -1 : n.succs[0];
      switch (n.kind) {
        case CfgKind::Exit: {
          if (parallel()) {
            check_exported(n);
            // Seal the final store before the exit cleanup frees it, so
            // the last sealed epoch always captures the program's result.
            take_snapshot();
            for (const auto& op : code_->at_exit) execute(op);
          }
          done = true;
          break;
        }
        case CfgKind::Plain:
          if (n.stmt != nullptr) {
            if (const auto* ref = std::get_if<ir::RefStmt>(&n.stmt->node))
              execute_ref(node, *ref);
            else if (const auto* live =
                         std::get_if<ir::LiveRegionStmt>(&n.stmt->node))
              execute_live_region(*live);
            else if (const auto* kill =
                         std::get_if<ir::KillStmt>(&n.stmt->node))
              execute_kill(*kill);
          }
          break;
        case CfgKind::Branch: {
          const auto& ifs = std::get<ir::IfStmt>(n.stmt->node);
          for (const ArrayId a : ifs.cond_reads) touch_read(node, a);
          const bool take_then = (rng_() & 1u) != 0;
          next = take_then ? n.succs[0] : n.succs[1];
          break;
        }
        case CfgKind::LoopHead: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          if (loop.may_zero_trip) {
            auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
            if (it->second > 0) {
              --it->second;
              next = n.succs[0];  // enter the body
            } else {
              loop_trips.erase(it);
              next = n.succs.size() > 1 ? n.succs[1] : n.succs[0];
            }
          } else {
            next = n.succs[0];
          }
          break;
        }
        case CfgKind::LoopLatch: {
          const auto& loop = std::get<ir::LoopStmt>(n.stmt->node);
          auto [it, inserted] = loop_trips.try_emplace(node, loop.trip_count);
          if (inserted) --it->second;  // the first trip just completed
          if (it->second > 0) {
            --it->second;
            next = n.succs[0];  // back edge
          } else {
            loop_trips.erase(it);
            next = n.succs[1];
          }
          break;
        }
        case CfgKind::Call: {
          const auto& call = std::get<ir::CallStmt>(n.stmt->node);
          const auto& itf = program_.interface(call.interface_id);
          for (std::size_t i = 0; i < call.args.size(); ++i) {
            const ArrayId a = call.args[i];
            if (!program_.array(a).has_mapping) continue;
            switch (itf.dummies[i].intent) {
              case ir::Intent::In:
                touch_read(node, a);
                break;
              case ir::Intent::Out:
                touch_write(node, a);
                break;
              case ir::Intent::InOut:
                touch_read(node, a);
                touch_write(node, a);
                break;
            }
          }
          break;
        }
        default:
          break;
      }
      if (n.kind == CfgKind::CallPost && parallel()) {
        for (const auto& op : code_->at_node[static_cast<std::size_t>(node)])
          execute(op);
        flush_pending();
        if (!code_->at_node[static_cast<std::size_t>(node)].empty())
          maybe_snapshot();
      }
      if (done) break;
      HPFC_ASSERT_MSG(next >= 0, "control fell off the CFG");
      node = next;
      if (options_.paranoid && parallel()) check_liveness_invariant();
    }
  }

  [[nodiscard]] bool parallel() const { return code_ != nullptr; }

  static int machine_ranks(const ir::Program& program,
                           const RunOptions& options) {
    if (options.ranks > 0) return options.ranks;
    mapping::Extent max_ranks = 1;
    for (const auto& p : program.procs)
      max_ranks = std::max(max_ranks, p.shape.total());
    return static_cast<int>(max_ranks);
  }

  const ConcreteLayout& layout(ArrayId a, int version) const {
    return analysis_.versions[static_cast<std::size_t>(a)].layout(version);
  }

  // ---- storage management ------------------------------------------------

  void allocate(ArrayId a, int version) {
    auto& vs = storage_[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(version)];
    if (vs.allocated) return;
    const ConcreteLayout& lay = layout(a, version);
    vs.locals.resize(static_cast<std::size_t>(lay.ranks()));
    vs.bytes = 0;
    std::vector<mapping::Extent> counts(static_cast<std::size_t>(lay.ranks()));
    for (int r = 0; r < lay.ranks(); ++r) {
      const mapping::Extent count = lay.local_count(r);
      counts[static_cast<std::size_t>(r)] = count;
      vs.bytes += static_cast<std::uint64_t>(count) * sizeof(double);
    }
    // Each rank zero-fills its own local piece in its execution context.
    backend_->step([&](int r) {
      if (r >= lay.ranks()) return;
      vs.locals[static_cast<std::size_t>(r)].assign(
          static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]), 0.0);
    });
    vs.allocated = true;
    vs.dirty = true;
    ++report_.allocations;
    bytes_in_use_ += vs.bytes;
    if (options_.memory_limit != 0 && bytes_in_use_ > options_.memory_limit)
      evict_until_fits(a, version);
    report_.peak_bytes = std::max(report_.peak_bytes, bytes_in_use_);
  }

  void deallocate(ArrayId a, int version) {
    auto& vs = storage_[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(version)];
    if (!vs.allocated) return;
    bytes_in_use_ -= vs.bytes;
    vs.locals.clear();
    vs.allocated = false;
    vs.live = false;
    ++report_.frees;
  }

  /// §5.2: under memory pressure the runtime frees live non-current copies
  /// and clears their liveness; they are regenerated with communication if
  /// needed again. Largest victims go first: every eviction is a future
  /// regeneration copy, so freeing one big copy beats squeezing out many
  /// small ones.
  void evict_until_fits(ArrayId keep_array, int keep_version) {
    std::vector<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>>
        victims;
    for (std::size_t a = 0; a < storage_.size(); ++a) {
      for (std::size_t v = 0; v < storage_[a].size(); ++v) {
        const auto& vs = storage_[a][v];
        if (!vs.allocated) continue;
        const bool is_current = static_cast<int>(v) == status_[a];
        const bool is_keep = static_cast<int>(a) == keep_array &&
                             static_cast<int>(v) == keep_version;
        const bool is_dummy_origin = program_.arrays[a].is_dummy && v == 0;
        if (is_current || is_keep || is_dummy_origin) continue;
        // Versions referenced by a pending fused round are pinned: their
        // data has not moved yet (a deferred source may no longer be the
        // current status once its vertex's SetStatus has run).
        if (pinned(static_cast<ArrayId>(a), static_cast<int>(v))) continue;
        victims.push_back({vs.bytes, {a, v}});
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;  // deterministic tie-break
              });
    for (const auto& [bytes, id] : victims) {
      if (bytes_in_use_ <= options_.memory_limit) break;
      deallocate(static_cast<ArrayId>(id.first), static_cast<int>(id.second));
      ++report_.evictions;
    }
    // Storage eviction alone may not reach the budget (everything left is
    // current, pinned, or a dummy origin): fall back to dropping compiled
    // plan slots, which recompile lazily on their next Copy.
    if (bytes_in_use_ > options_.memory_limit) evict_plan_slots(-1);
  }

  [[nodiscard]] bool pinned(ArrayId a, int v) const {
    for (const PendingCopy& m : pending_)
      if (m.array == a && (m.src == v || m.dst == v)) return true;
    return false;
  }

  /// Second-phase eviction (the plan-cache analogue of §5.2): drops
  /// compiled plan slots — segment programs and pooled buffers — largest
  /// first until the budget fits. An evicted slot is recompiled on its
  /// next use, so the plan-cache lookups rise while every data-volume
  /// counter stays put.
  void evict_plan_slots(int keep_slot) {
    std::vector<std::pair<std::uint64_t, std::size_t>> victims;
    for (std::size_t s = 0; s < plan_slots_.size(); ++s) {
      const PlanSlot& slot = plan_slots_[s];
      if (!slot.compiled || slot.plan_bytes == 0) continue;
      if (static_cast<int>(s) == keep_slot) continue;
      if (plan_pinned(static_cast<int>(s))) continue;
      victims.push_back({slot.plan_bytes, s});
    }
    std::sort(victims.begin(), victims.end(),
              [](const auto& x, const auto& y) {
                if (x.first != y.first) return x.first > y.first;
                return x.second < y.second;  // deterministic tie-break
              });
    for (const auto& [bytes, s] : victims) {
      if (bytes_in_use_ <= options_.memory_limit) break;
      drop_plan_slot(s);
    }
  }

  /// A plan slot referenced by the open fused round must survive until its
  /// flush: pending_ members' compiled programs are already borrowed by
  /// the round being assembled.
  [[nodiscard]] bool plan_pinned(int slot) const {
    for (const PendingCopy& m : pending_)
      if (m.plan_slot == slot) return true;
    return false;
  }

  void drop_plan_slot(std::size_t s) {
    bytes_in_use_ -= plan_slots_[s].plan_bytes;
    // The slot's reference on its shared symbolic instance goes with it;
    // the instance itself is only un-charged when the last slot using it
    // is dropped (release_instance refcounts).
    release_instance(plan_slots_[s].instance);
    plan_slots_[s] = PlanSlot{};
    // Cached fused rounds borrow pointers into their member plan slots'
    // programs; invalidate every round that references this
    // slot so the pointers can never dangle.
    std::erase_if(fused_slots_, [&](const auto& kv) {
      return std::find(kv.first.begin(), kv.first.end(),
                       static_cast<int>(s)) != kv.first.end();
    });
    ++report_.plan_evictions;
  }

  /// Heap footprint of a compiled slot's segment tables.
  static std::uint64_t plan_slot_bytes(const PlanSlot& slot) {
    std::uint64_t bytes = 0;
    for (const auto& tp : slot.programs)
      bytes += tp.segments.capacity() * sizeof(redist::CopySegment);
    return bytes;
  }

  // ---- generated code execution -----------------------------------------

  void execute(const codegen::Op& op) {
    using codegen::OpKind;
    auto& versions = storage_[static_cast<std::size_t>(op.array)];
    switch (op.kind) {
      case OpKind::IfStatusNe:
        if (status_[static_cast<std::size_t>(op.array)] != op.version) {
          for (const auto& child : op.body) execute(child);
        } else {
          ++report_.skipped_already_mapped;
        }
        break;
      case OpKind::IfStatusEq:
        if (status_[static_cast<std::size_t>(op.array)] == op.version)
          for (const auto& child : op.body) execute(child);
        break;
      case OpKind::IfNotLive:
        if (!versions[static_cast<std::size_t>(op.version)].live) {
          for (const auto& child : op.body) execute(child);
        } else {
          ++report_.skipped_live_copy;
        }
        break;
      case OpKind::IfLive:
        if (versions[static_cast<std::size_t>(op.version)].live)
          for (const auto& child : op.body) execute(child);
        break;
      case OpKind::Allocate:
        allocate(op.array, op.version);
        break;
      case OpKind::Copy:
        if (op.copy_group >= 0 && !options_.unfuse_copy_groups)
          defer_copy(op);
        else
          copy(op.array, op.src_version, op.version, op.region, op.plan_slot);
        break;
      case OpKind::SetLive:
        versions[static_cast<std::size_t>(op.version)].live = op.flag;
        break;
      case OpKind::SetStatus:
        status_[static_cast<std::size_t>(op.array)] = op.version;
        break;
      case OpKind::Free:
        // While a fused round is pending, frees hold until after the
        // flush (a member's source may be scheduled for cleanup by the
        // very ops that follow its Copy); order is preserved.
        if (pending_group_ >= 0)
          deferred_frees_.push_back({op.array, op.version});
        else
          deallocate(op.array, op.version);
        break;
      case OpKind::SaveStatus:
        saved_[static_cast<std::size_t>(op.slot)] =
            status_[static_cast<std::size_t>(op.array)];
        break;
      case OpKind::IfSavedEq:
        if (saved_[static_cast<std::size_t>(op.slot)] == op.version)
          for (const auto& child : op.body) execute(child);
        break;
    }
  }

  /// §4.3 live-region semantics: elements outside the region are dead and
  /// read as zero from here on — in the canonical values and in every
  /// live copy (a purely local operation).
  void execute_live_region(const ir::LiveRegionStmt& live) {
    if (!program_.array(live.array).has_mapping) return;
    const auto& shape = program_.array(live.array).shape;
    const int dims = shape.rank();
    if (dims == 0) return;  // a scalar has no region to clip
    auto& canonical = canonical_[static_cast<std::size_t>(live.array)];
    // Canonical values: one incremental row-major coordinate walk.
    {
      mapping::IndexVec coord(static_cast<std::size_t>(dims), 0);
      const mapping::Extent total = shape.total();
      for (Index lin = 0; lin < total; ++lin) {
        for (int d = 0; d < dims; ++d) {
          const Index c = coord[static_cast<std::size_t>(d)];
          if (c < live.region[static_cast<std::size_t>(d)].first ||
              c >= live.region[static_cast<std::size_t>(d)].second) {
            canonical[static_cast<std::size_t>(lin)] = 0.0;
            break;
          }
        }
        for (int d = dims - 1; d >= 0; --d) {
          if (++coord[static_cast<std::size_t>(d)] < shape.extent(d)) break;
          coord[static_cast<std::size_t>(d)] = 0;
        }
      }
    }
    if (!parallel()) return;
    const auto [inner_lo, inner_hi] =
        live.region[static_cast<std::size_t>(dims - 1)];
    auto& versions = storage_[static_cast<std::size_t>(live.array)];
    for (std::size_t v = 0; v < versions.size(); ++v) {
      auto& vs = versions[v];
      if (!vs.allocated) continue;
      const ConcreteLayout& lay = layout(live.array, static_cast<int>(v));
      const OwnershipProgram& own = ownership(live.array, static_cast<int>(v));
      backend_->step([&](int r) {
        if (r >= lay.ranks()) return;
        auto& local = vs.locals[static_cast<std::size_t>(r)];
        for (const mapping::OwnedRun& run :
             own.per_rank[static_cast<std::size_t>(r)].runs) {
          double* vals = local.data() + run.local_base;
          // A stretch varies only the innermost dimension: one outer
          // bounds check, then closed-form inner clipping.
          const mapping::IndexVec coord = shape.delinearize(run.global_base);
          bool outer_inside = true;
          for (int d = 0; d + 1 < dims; ++d) {
            const Index c = coord[static_cast<std::size_t>(d)];
            if (c < live.region[static_cast<std::size_t>(d)].first ||
                c >= live.region[static_cast<std::size_t>(d)].second) {
              outer_inside = false;
              break;
            }
          }
          if (!outer_inside) {
            std::fill_n(vals, run.len, 0.0);
            continue;
          }
          const Index c0 = coord[static_cast<std::size_t>(dims - 1)];
          const mapping::Extent st = run.global_stride;
          // First member inside and first member past the inner window.
          const mapping::Extent j_lo = std::clamp<mapping::Extent>(
              inner_lo <= c0 ? 0 : (inner_lo - c0 + st - 1) / st, 0, run.len);
          const mapping::Extent j_hi = std::clamp<mapping::Extent>(
              inner_hi <= c0 ? 0 : (inner_hi - c0 + st - 1) / st, 0, run.len);
          std::fill_n(vals, j_lo, 0.0);
          if (j_hi < run.len) std::fill_n(vals + j_hi, run.len - j_hi, 0.0);
        }
      });
      vs.dirty = true;
    }
  }

  /// §4.3 kill semantics: the whole array is dead and reads as zero from
  /// here on — the full-array case of execute_live_region. The dead value
  /// must be deterministic: O0 still moves killed data at the next remap
  /// while O1/O2 skip the transfer (fresh allocations are zero-filled), so
  /// a program that reads an array after killing it only stays
  /// oracle-identical across levels if every dead element reads as zero.
  void execute_kill(const ir::KillStmt& kill) {
    if (!program_.array(kill.array).has_mapping) return;
    auto& canonical = canonical_[static_cast<std::size_t>(kill.array)];
    std::fill(canonical.begin(), canonical.end(), 0.0);
    if (!parallel()) return;
    auto& versions = storage_[static_cast<std::size_t>(kill.array)];
    for (auto& vs : versions) {
      if (!vs.allocated) continue;
      backend_->step([&](int r) {
        if (r >= static_cast<int>(vs.locals.size())) return;
        auto& local = vs.locals[static_cast<std::size_t>(r)];
        std::fill(local.begin(), local.end(), 0.0);
      });
      vs.dirty = true;
    }
  }

  /// The shared superstep skeleton of all remap communication (per-copy
  /// and fused): recycled mailboxes and per-rank tallies around ONE
  /// exchange. `pack_rank(r, outbox, tally)` emits rank r's messages
  /// (payloads drawn from `payload_pool` by tag) and runs its local
  /// fast-path copies; `unpack_msg(r, msg)` scatters one routed message.
  /// Everything else — tally reduction, account_local, unpacked-element
  /// accounting, payload reclamation by tag, mailbox-skeleton recycling —
  /// lives here exactly once so the fused and unfused paths cannot drift
  /// apart in their NetStats arithmetic.
  /// Runs one phase's rank loop through the backend (per-rank concurrency
  /// on thread/proc) and returns the phase's wall-clock in milliseconds.
  template <typename Fn>
  double phase_step(const Fn& fn) {
    const auto start = std::chrono::steady_clock::now();
    backend_->step(fn);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  template <typename PackRank, typename UnpackMsg>
  void copy_superstep(std::vector<std::vector<double>>& payload_pool,
                      std::vector<std::vector<net::Message>>& mailbox_pool,
                      const PackRank& pack_rank, const UnpackMsg& unpack_msg) {
    auto outboxes = std::move(mailbox_pool);
    outboxes.resize(static_cast<std::size_t>(backend_->ranks()));
    for (auto& box : outboxes) box.clear();
    std::fill(copy_tallies_.begin(), copy_tallies_.end(), CopyTally{});
    report_.pack_ms += phase_step([&](int r) {
      pack_rank(r, outboxes[static_cast<std::size_t>(r)],
                copy_tallies_[static_cast<std::size_t>(r)]);
    });
    std::uint64_t local_copies = 0;
    std::uint64_t local_bytes = 0;
    std::uint64_t local_segments = 0;
    for (const CopyTally& tally : copy_tallies_) {
      local_copies += tally.local_copies;
      local_bytes += tally.local_bytes;
      local_segments += tally.local_segments;
      report_.elements_copied += tally.local_elements;
      report_.packed_bytes += tally.packed_bytes;
    }
    backend_->account_local(local_copies, local_bytes, local_segments);
    report_.local_fastpath_copies += local_copies;

    const auto exchange_start = std::chrono::steady_clock::now();
    auto inboxes = backend_->exchange(std::move(outboxes));
    report_.exchange_ms += std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               exchange_start)
                               .count();
    std::fill(copy_tallies_.begin(), copy_tallies_.end(), CopyTally{});
    report_.unpack_ms += phase_step([&](int r) {
      CopyTally& tally = copy_tallies_[static_cast<std::size_t>(r)];
      for (const auto& msg : inboxes[static_cast<std::size_t>(r)]) {
        unpack_msg(r, msg);
        tally.unpacked += msg.payload.size();
      }
    });
    for (const CopyTally& tally : copy_tallies_)
      report_.elements_copied += tally.unpacked;
    // Recycle: payload buffers go back to their tag's pool slot, and the
    // routed mailbox skeleton (outer + inner vector capacities) becomes
    // the next execution's outboxes.
    for (auto& inbox : inboxes)
      for (auto& msg : inbox)
        payload_pool[static_cast<std::size_t>(msg.tag)] =
            std::move(msg.payload);
    for (auto& inbox : inboxes) inbox.clear();
    mailbox_pool = std::move(inboxes);
  }

  /// Books one executed local fast-path program into a rank's tally.
  static void tally_local(CopyTally& tally,
                          const redist::SegmentProgram& tp) {
    tally.local_copies += 1;
    tally.local_bytes +=
        static_cast<std::uint64_t>(tp.elements) * sizeof(double);
    tally.local_segments += tp.segments.size();
    tally.local_elements += static_cast<std::uint64_t>(tp.elements);
  }

  /// The remapping communication: redistribute src version into dst,
  /// optionally restricted to a live region. Remote transfers pack into
  /// pooled payload buffers and go through the exchange; src == dst
  /// transfers run as direct strided local copies (no message is ever
  /// materialized), accounted through Backend::account_local with the
  /// exact counters a self-message would have produced.
  void copy(ArrayId a, int src, int dst, const ir::Region& region,
            int plan_slot) {
    allocate(a, src);  // an untouched source is all zeros, like canonical
    allocate(a, dst);
    PlanSlot& slot = transfer_plan(a, src, dst, region, plan_slot);
    const auto& programs = slot.programs;

    auto& from = storage_[static_cast<std::size_t>(a)]
                         [static_cast<std::size_t>(src)];
    auto& to =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(dst)];
    // Each source rank packs its own transfers, in program (tag) order so
    // emission order — and with it the inbox order — is backend-invariant.
    copy_superstep(
        slot.payload_pool, slot.mailbox_pool,
        [&](int r, std::vector<net::Message>& outbox, CopyTally& tally) {
          for (std::size_t t = 0; t < programs.size(); ++t) {
            const redist::SegmentProgram& tp = programs[t];
            if (tp.src != r) continue;
            if (tp.dst == r) {
              redist::copy_local(tp, from.locals[static_cast<std::size_t>(r)],
                                 to.locals[static_cast<std::size_t>(r)]);
              tally_local(tally, tp);
              continue;
            }
            net::Message msg;
            msg.src = tp.src;
            msg.dst = tp.dst;
            msg.tag = static_cast<int>(t);
            msg.segments = static_cast<int>(tp.segments.size());
            msg.payload = std::move(slot.payload_pool[t]);
            redist::pack(tp, from.locals[static_cast<std::size_t>(tp.src)],
                         msg.payload);
            tally.packed_bytes += msg.bytes();
            outbox.push_back(std::move(msg));
          }
        },
        [&](int, const net::Message& msg) {
          const redist::SegmentProgram& tp =
              programs[static_cast<std::size_t>(msg.tag)];
          redist::unpack(tp, msg.payload,
                         to.locals[static_cast<std::size_t>(tp.dst)]);
        });
    to.dirty = true;
    ++report_.copies_performed;
  }

  PlanSlot& transfer_plan(ArrayId a, int src, int dst,
                          const ir::Region& region, int plan_slot) {
    HPFC_ASSERT_MSG(plan_slot >= 0 &&
                        plan_slot < static_cast<int>(plan_slots_.size()),
                    "Copy op without an assigned plan slot");
    PlanSlot& slot = plan_slots_[static_cast<std::size_t>(plan_slot)];
    if (slot.compiled) return slot;

    const ConcreteLayout& from = layout(a, src);
    const ConcreteLayout& to = layout(a, dst);
    // Two-level plan cache: serve the slot from its symbolic family's
    // bound (N, P) instance when codegen assigned one, falling back to
    // the concrete builder for unabstractable pairs. Both paths intersect
    // the same ownership run sets, so the plan is byte-identical.
    const int family = family_of_slot(plan_slot);
    redist::RedistPlanV2 local_plan;
    if (family >= 0)
      slot.instance = acquire_instance(family, from, to);
    else
      local_plan = redist::build_runs(from, to);
    const redist::RedistPlanV2& plan =
        slot.instance != nullptr ? slot.instance->plan : local_plan;
    slot.programs.reserve(plan.transfers.size());
    // Owned run sets are shared across a rank's transfers: one per
    // endpoint rank, never per element.
    std::map<int, std::vector<mapping::IndexRuns>> src_owned;
    std::map<int, std::vector<mapping::IndexRuns>> dst_owned;
    for (const auto& transfer : plan.transfers) {
      // Cached instances are shared across plan slots, so live-region
      // refinement restricts a copy rather than the cached transfer.
      redist::TransferV2 restricted;
      const redist::TransferV2* t = &transfer;
      if (!region.empty()) {
        restricted = transfer;
        if (!restricted.restrict_to(region)) continue;
        t = &restricted;
      }
      const auto sit =
          src_owned.try_emplace(t->src, from.owned_index_runs(t->src)).first;
      const auto dit =
          dst_owned.try_emplace(t->dst, to.owned_index_runs(t->dst)).first;
      slot.programs.push_back(
          redist::compile_transfer(*t, sit->second, dit->second));
    }
    slot.payload_pool.resize(slot.programs.size());
    slot.compiled = true;
    // The compiled tables are memory like any copy: charge them against
    // the budget and fall back to evicting *other* plan slots when the
    // arrays alone no longer leave room.
    slot.plan_bytes = plan_slot_bytes(slot);
    bytes_in_use_ += slot.plan_bytes;
    if (options_.memory_limit != 0 && bytes_in_use_ > options_.memory_limit)
      evict_plan_slots(plan_slot);
    report_.peak_bytes = std::max(report_.peak_bytes, bytes_in_use_);
    return slot;
  }

  /// The symbolic plan family serving a plan slot (codegen-assigned; -1
  /// when the slot's layout pair does not abstract).
  [[nodiscard]] int family_of_slot(int plan_slot) const {
    if (code_ == nullptr ||
        plan_slot >= static_cast<int>(code_->plan_families.size()))
      return -1;
    return code_->plan_families[static_cast<std::size_t>(plan_slot)];
  }

  /// Two-level plan-cache lookup for a compiling plan slot: the family's
  /// SymbolicPlan (compiled lazily on first use; its descriptor is charged
  /// once per machine and never dropped), then the bound (N, P) instance
  /// for the slot's shapes. One hit-or-miss is accounted per call — the
  /// producing site — so the counters are backend- and toggle-invariant.
  /// The instance's run sets are charged against the memory limit once
  /// however many slots share them (refcounted; see release_instance).
  std::shared_ptr<const redist::PlanInstance> acquire_instance(
      int family, const ConcreteLayout& from, const ConcreteLayout& to) {
    auto& sym = families_[static_cast<std::size_t>(family)];
    if (sym == nullptr) {
      auto sym_from = mapping::SymbolicLayout::abstract(from);
      auto sym_to = mapping::SymbolicLayout::abstract(to);
      HPFC_ASSERT_MSG(sym_from.has_value() && sym_to.has_value(),
                      "codegen assigned a family to an unabstractable pair");
      sym = std::make_unique<redist::SymbolicPlan>(std::move(*sym_from),
                                                   std::move(*sym_to));
      bytes_in_use_ += sym->footprint_bytes();
    }
    const auto key = redist::SymbolicPlan::key(
        from.array_shape(), from.proc_shape(), to.proc_shape());
    auto instance = sym->find(key);
    const bool hit = instance != nullptr;
    if (!hit)
      instance =
          sym->instantiate(from.array_shape(), from.proc_shape(),
                           to.proc_shape());
    backend_->account_plan_cache(hit ? 1 : 0, hit ? 0 : 1, hit ? 0 : 1);
    InstanceCharge& charge = instance_charges_[instance.get()];
    if (charge.refs++ == 0) {
      charge.family = family;
      charge.key = key;
      bytes_in_use_ += instance->bytes;
    }
    return instance;
  }

  /// Releases one plan slot's reference on a shared instance. The last
  /// release un-charges the instance and drops it from its family's cache
  /// so its memory is actually reclaimable; a later compile at the same
  /// shapes re-instantiates (and re-counts a miss). Slots evicted while
  /// other referencing slots live leave the instance bound — their
  /// recompile is a cache hit.
  void release_instance(
      const std::shared_ptr<const redist::PlanInstance>& instance) {
    if (instance == nullptr) return;
    const auto it = instance_charges_.find(instance.get());
    HPFC_ASSERT_MSG(it != instance_charges_.end(),
                    "released an instance that was never charged");
    if (--it->second.refs == 0) {
      bytes_in_use_ -= instance->bytes;
      families_[static_cast<std::size_t>(it->second.family)]->drop(
          it->second.key);
      instance_charges_.erase(it);
    }
  }

  // ---- fused copy groups -------------------------------------------------

  /// Records a group-member Copy while its vertex's guard code runs: the
  /// endpoint storage is allocated (and pinned against eviction) and the
  /// transfer program compiled, but the data movement is deferred so all
  /// the copies the vertex fires share one exchange superstep.
  void defer_copy(const codegen::Op& op) {
    // Defensive: groups never interleave (one vertex per CFG node), but a
    // group change mid-list must still flush the previous round first.
    if (pending_group_ >= 0 && pending_group_ != op.copy_group)
      flush_pending();
    pending_group_ = op.copy_group;
    pending_.push_back({op.array, op.src_version, op.version, op.plan_slot});
    allocate(op.array, op.src_version);
    allocate(op.array, op.version);
    (void)transfer_plan(op.array, op.src_version, op.version, op.region,
                        op.plan_slot);
  }

  /// Runs the pending vertex's fused communication round, then the frees
  /// held while the round was open.
  void flush_pending() {
    if (pending_group_ < 0) return;
    if (!pending_.empty()) run_fused();
    pending_.clear();
    pending_group_ = -1;
    for (const auto& [a, v] : deferred_frees_) deallocate(a, v);
    deferred_frees_.clear();
  }

  /// The cached fused round for the pending member set. Guards decide at
  /// runtime which copies fire, so a group may flush with different member
  /// subsets on different visits; each distinct plan-slot sequence gets
  /// its own framing + pools (steady-state loops always hit the cache).
  FusedSlot& fused_slot() {
    key_scratch_.clear();
    for (const PendingCopy& m : pending_) key_scratch_.push_back(m.plan_slot);
    const auto [it, inserted] = fused_slots_.try_emplace(key_scratch_);
    FusedSlot& slot = it->second;
    if (!inserted) return slot;
    slot.members = pending_;
    slot.programs.reserve(pending_.size());
    slot.endpoints.reserve(pending_.size());
    std::vector<std::span<const redist::SegmentProgram>> spans;
    spans.reserve(pending_.size());
    for (const PendingCopy& m : pending_) {
      const auto& programs =
          plan_slots_[static_cast<std::size_t>(m.plan_slot)].programs;
      slot.programs.push_back(&programs);
      spans.emplace_back(programs);
      slot.endpoints.push_back(
          {&storage_[static_cast<std::size_t>(m.array)]
                    [static_cast<std::size_t>(m.src)],
           &storage_[static_cast<std::size_t>(m.array)]
                    [static_cast<std::size_t>(m.dst)]});
    }
    slot.exchange = redist::build_fused_exchange(backend_->ranks(), spans);
    slot.payload_pool.resize(slot.exchange.messages.size());
    return slot;
  }

  /// The fused analogue of copy(): one pack step over combined messages,
  /// ONE exchange for the whole member set, one unpack step by frame. The
  /// local fast path behaves per member program exactly as in the unfused
  /// path, so every data-volume counter (elements, bytes, segments, local
  /// copies) is byte-identical to running the members one superstep each.
  void run_fused() {
    FusedSlot& slot = fused_slot();
    const redist::FusedExchange& fx = slot.exchange;
    const auto member_program =
        [&slot](int member, int program) -> const redist::SegmentProgram& {
      const auto& programs = *slot.programs[static_cast<std::size_t>(member)];
      return programs[static_cast<std::size_t>(program)];
    };

    copy_superstep(
        slot.payload_pool, slot.mailbox_pool,
        [&](int r, std::vector<net::Message>& outbox, CopyTally& tally) {
          for (const redist::FusedLocal& u :
               fx.local_by_rank[static_cast<std::size_t>(r)]) {
            const redist::SegmentProgram& tp =
                member_program(u.member, u.program);
            const auto& [from, to] =
                slot.endpoints[static_cast<std::size_t>(u.member)];
            redist::copy_local(tp, from->locals[static_cast<std::size_t>(r)],
                               to->locals[static_cast<std::size_t>(r)]);
            tally_local(tally, tp);
          }
          for (const int mi : fx.by_src[static_cast<std::size_t>(r)]) {
            const redist::FusedMessage& fm =
                fx.messages[static_cast<std::size_t>(mi)];
            net::Message msg;
            msg.src = fm.src;
            msg.dst = fm.dst;
            msg.tag = mi;
            msg.segments = fm.segments;
            msg.payload =
                std::move(slot.payload_pool[static_cast<std::size_t>(mi)]);
            msg.payload.resize(static_cast<std::size_t>(fm.elements));
            for (const redist::FusedFrame& fr : fm.frames) {
              const auto& [from, to] =
                  slot.endpoints[static_cast<std::size_t>(fr.member)];
              const std::span<double> window(
                  msg.payload.data() + fr.offset,
                  static_cast<std::size_t>(fr.len));
              redist::pack_into(member_program(fr.member, fr.program),
                                from->locals[static_cast<std::size_t>(r)],
                                window);
            }
            tally.packed_bytes += msg.bytes();
            outbox.push_back(std::move(msg));
          }
        },
        [&](int r, const net::Message& msg) {
          const redist::FusedMessage& fm =
              fx.messages[static_cast<std::size_t>(msg.tag)];
          for (const redist::FusedFrame& fr : fm.frames) {
            const auto& [from, to] =
                slot.endpoints[static_cast<std::size_t>(fr.member)];
            const std::span<const double> window(
                msg.payload.data() + fr.offset,
                static_cast<std::size_t>(fr.len));
            redist::unpack(member_program(fr.member, fr.program), window,
                           to->locals[static_cast<std::size_t>(r)]);
          }
        });
    for (const auto& [from, to] : slot.endpoints) to->dirty = true;
    report_.copies_performed += static_cast<int>(slot.members.size());
    if (slot.members.size() >= 2) backend_->account_fused(slot.members.size());
  }

  // ---- crash-consistent snapshots ---------------------------------------

  /// Counts one remap boundary and snapshots on the configured cadence.
  void maybe_snapshot() {
    if (snapshot_writer_ == nullptr) return;
    ++boundary_counter_;
    if (boundary_counter_ % std::max(1, options_.snapshot_every) != 0) return;
    take_snapshot();
  }

  /// Appends one delta epoch for the current store and seals it. The
  /// view borrows the live storage: every (array, version) slot with its
  /// flags, dirty hint, per-rank locals, and owned-run geometry.
  void take_snapshot() {
    if (snapshot_writer_ == nullptr) return;
    persist::StoreView view;
    view.status = &status_;
    view.saved = &saved_;
    view.write_counter = write_counter_;
    for (const ArrayId a : program_.mapped_arrays()) {
      auto& versions = storage_[static_cast<std::size_t>(a)];
      for (std::size_t v = 0; v < versions.size(); ++v) {
        VersionStorage& vs = versions[v];
        persist::VersionView vv;
        vv.array = a;
        vv.version = static_cast<int>(v);
        vv.allocated = vs.allocated;
        vv.live = vs.live;
        vv.dirty = vs.dirty;
        if (vs.allocated) {
          vv.locals = &vs.locals;
          const OwnershipProgram& own = ownership(a, static_cast<int>(v));
          vv.runs.reserve(own.per_rank.size());
          for (const RankOwnership& ro : own.per_rank)
            vv.runs.push_back(&ro.runs);
        }
        view.versions.push_back(std::move(vv));
        vs.dirty = false;
      }
    }
    snapshot_writer_->snapshot(view);
  }

  /// Lazily compiles and caches the ownership program of (array, version):
  /// the bulk-strided form of every rank's owned set plus its sending
  /// role, shared by all per-element runtime loops over that version.
  const OwnershipProgram& ownership(ArrayId a, int version) const {
    auto& cached = ownership_[static_cast<std::size_t>(a)]
                             [static_cast<std::size_t>(version)];
    if (cached) return *cached;
    const ConcreteLayout& lay = layout(a, version);
    OwnershipProgram prog;
    prog.per_rank.resize(static_cast<std::size_t>(lay.ranks()));
    for (int r = 0; r < lay.ranks(); ++r) {
      RankOwnership& ro = prog.per_rank[static_cast<std::size_t>(r)];
      lay.for_each_owned_run(
          r, [&](const mapping::OwnedRun& run) { ro.runs.push_back(run); });
      if (lay.array_shape().rank() > 0) {
        // The sending set is full-or-empty per rank: for_sending only
        // excludes ranks sitting on a non-zero replicated coordinate.
        const auto send = lay.owned_index_runs(r, /*for_sending=*/true);
        bool excluded = send.empty();
        for (const auto& s : send) excluded = excluded || s.empty();
        ro.sends = !excluded;
      }
    }
    cached.emplace(std::move(prog));
    return *cached;
  }

  // ---- reference semantics -------------------------------------------

  void execute_ref(int node, const ir::RefStmt& ref) {
    for (const ArrayId a : ref.reads) touch_read(node, a);
    for (const ArrayId a : ref.writes) touch_write(node, a);
    for (const ArrayId a : ref.defines) touch_write(node, a);
  }

  int ref_version(int node, ArrayId a) const {
    const auto& map = analysis_.ref_versions[static_cast<std::size_t>(node)];
    const auto it = map.find(a);
    HPFC_ASSERT_MSG(it != map.end(), "reference without a resolved version");
    return it->second;
  }

  void touch_read(int node, ArrayId a) {
    if (!program_.array(a).has_mapping) return;
    ++report_.reads;
    if (!parallel()) {
      const auto& values = canonical_[static_cast<std::size_t>(a)];
      for (std::size_t i = 0; i < values.size(); ++i)
        report_.signature +=
            static_cast<std::uint64_t>(values[i]) *
            weight(static_cast<std::int64_t>(i));
      return;
    }
    const int version = ref_version(node, a);
    HPFC_ASSERT_MSG(status_[static_cast<std::size_t>(a)] == version,
                    "runtime status disagrees with the static version");
    allocate(a, version);
    auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    vs.live = true;
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    // Each rank folds its owned elements into a private partial; the
    // wrapping uint64 sum is order-independent, so reducing the partials
    // afterwards reproduces the sequential signature exactly.
    std::fill(partials_.begin(), partials_.end(), 0);
    backend_->step([&](int r) {
      if (r >= lay.ranks()) return;
      const RankOwnership& ro = own.per_rank[static_cast<std::size_t>(r)];
      if (!ro.sends) return;  // primary owners only: replicas count once
      const auto& local = vs.locals[static_cast<std::size_t>(r)];
      std::uint64_t partial = 0;
      for (const mapping::OwnedRun& run : ro.runs) {
        const double* vals = local.data() + run.local_base;
        Index global = run.global_base;
        for (mapping::Extent j = 0; j < run.len;
             ++j, global += run.global_stride)
          partial += static_cast<std::uint64_t>(vals[j]) * weight(global);
      }
      partials_[static_cast<std::size_t>(r)] = partial;
    });
    for (const std::uint64_t partial : partials_) report_.signature += partial;
  }

  void touch_write(int node, ArrayId a) {
    if (!program_.array(a).has_mapping) return;
    ++report_.writes;
    const std::uint64_t counter = ++write_counter_;
    auto& values = canonical_[static_cast<std::size_t>(a)];
    if (!parallel()) {
      for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = stamped(counter, static_cast<std::int64_t>(i));
      return;
    }

    const int version = ref_version(node, a);
    HPFC_ASSERT_MSG(status_[static_cast<std::size_t>(a)] == version,
                    "runtime status disagrees with the static version");
    allocate(a, version);
    auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    vs.live = true;
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    // One superstep stamps both the canonical values (disjoint linear
    // slices, one per rank) and each rank's own local piece.
    backend_->step([&](int r) {
      const auto [begin, end] = rank_slice(values.size(), r);
      for (std::size_t i = begin; i < end; ++i)
        values[i] = stamped(counter, static_cast<std::int64_t>(i));
      if (r >= lay.ranks()) return;
      auto& local = vs.locals[static_cast<std::size_t>(r)];
      for (const mapping::OwnedRun& run :
           own.per_rank[static_cast<std::size_t>(r)].runs) {
        double* vals = local.data() + run.local_base;
        Index global = run.global_base;
        for (mapping::Extent j = 0; j < run.len;
             ++j, global += run.global_stride)
          vals[j] = stamped(counter, global);
      }
    });
    vs.dirty = true;
  }

  /// The contiguous slice of [0, n) that rank r stamps when shared
  /// canonical values are updated cooperatively.
  [[nodiscard]] std::pair<std::size_t, std::size_t> rank_slice(
      std::size_t n, int r) const {
    const auto ranks = static_cast<std::size_t>(backend_->ranks());
    const auto rank = static_cast<std::size_t>(r);
    return {n * rank / ranks, n * (rank + 1) / ranks};
  }

  // ---- validation -------------------------------------------------------

  /// Every live copy other than the current one must hold the canonical
  /// values (the liveness invariant the optimizations rely on).
  void check_liveness_invariant() const {
    for (std::size_t a = 0; a < storage_.size(); ++a) {
      for (std::size_t v = 0; v < storage_[a].size(); ++v) {
        const auto& vs = storage_[a][v];
        if (!vs.live || !vs.allocated) continue;
        if (static_cast<int>(v) == status_[a]) continue;
        verify_copy(static_cast<ArrayId>(a), static_cast<int>(v));
      }
    }
  }

  void verify_copy(ArrayId a, int version) const {
    const auto& vs =
        storage_[static_cast<std::size_t>(a)][static_cast<std::size_t>(version)];
    const ConcreteLayout& lay = layout(a, version);
    const OwnershipProgram& own = ownership(a, version);
    const auto& canonical = canonical_[static_cast<std::size_t>(a)];
    for (int r = 0; r < lay.ranks(); ++r) {
      const auto& local = vs.locals[static_cast<std::size_t>(r)];
      for (const mapping::OwnedRun& run :
           own.per_rank[static_cast<std::size_t>(r)].runs) {
        const double* vals = local.data() + run.local_base;
        Index global = run.global_base;
        for (mapping::Extent j = 0; j < run.len;
             ++j, global += run.global_stride) {
          const double expect = canonical[static_cast<std::size_t>(global)];
          HPFC_ASSERT_MSG(vals[j] == expect,
                          "live copy " + program_.array(a).name + "_" +
                              std::to_string(version) +
                              " diverged from canonical values");
        }
      }
    }
  }

  void check_exported(const ir::CfgNode& exit_node) {
    (void)exit_node;
    // The exit copy-back code has already run via at_node[exit]... it runs
    // before this check in run() because Exit executes node ops first.
    for (const ArrayId a : program_.mapped_arrays()) {
      const auto& decl = program_.array(a);
      if (!decl.is_dummy || decl.intent == ir::Intent::In) continue;
      const auto& vs = storage_[static_cast<std::size_t>(a)][0];
      if (!vs.allocated) {
        report_.exported_values_ok = false;
        continue;
      }
      const ConcreteLayout& lay = layout(a, 0);
      const OwnershipProgram& own = ownership(a, 0);
      const auto& canonical = canonical_[static_cast<std::size_t>(a)];
      bool ok = true;
      for (int r = 0; r < lay.ranks() && ok; ++r) {
        const auto& local = vs.locals[static_cast<std::size_t>(r)];
        for (const mapping::OwnedRun& run :
             own.per_rank[static_cast<std::size_t>(r)].runs) {
          const double* vals = local.data() + run.local_base;
          Index global = run.global_base;
          for (mapping::Extent j = 0; j < run.len && ok;
               ++j, global += run.global_stride) {
            if (vals[j] != canonical[static_cast<std::size_t>(global)])
              ok = false;
          }
          if (!ok) break;
        }
      }
      if (!ok) report_.exported_values_ok = false;
    }
  }

  const ir::Program& program_;
  const remap::Analysis& analysis_;
  const codegen::RuntimeProgram* code_;
  RunOptions options_;
  std::mt19937 rng_;
  std::unique_ptr<exec::Backend> backend_;
  RunReport report_;

  std::vector<int> status_;
  std::vector<std::vector<VersionStorage>> storage_;
  /// Cached ownership programs per (array, version); lazily built, mutable
  /// because the const validation paths share the cache.
  mutable std::vector<std::vector<std::optional<OwnershipProgram>>> ownership_;
  std::vector<std::vector<double>> canonical_;
  std::vector<int> saved_;
  std::uint64_t write_counter_ = 0;
  std::uint64_t bytes_in_use_ = 0;
  /// Compiled transfer programs + pooled buffers per static copy site
  /// (codegen plan slot).
  std::vector<PlanSlot> plan_slots_;
  /// Level 1 of the two-level plan cache: one lazily compiled SymbolicPlan
  /// per codegen family id (see RuntimeProgram::plan_families). Descriptors
  /// are charged once and never dropped; their (N, P) instances live in
  /// each plan's own cache and are refcounted below.
  std::vector<std::unique_ptr<redist::SymbolicPlan>> families_;
  /// Footprint refcount per live shared instance (keyed by its address —
  /// instances are uniquely owned by their family cache while bound): the
  /// instance's bytes are charged on 0 -> 1 and released — and the
  /// instance dropped from its family — on the last release.
  struct InstanceCharge {
    int refs = 0;
    int family = -1;
    redist::SymbolicPlan::InstanceKey key;
  };
  std::map<const void*, InstanceCharge> instance_charges_;
  /// Copy-group deferral state: the open round's id and members, the
  /// frees held until its flush, and the cached fused rounds keyed by
  /// fired plan-slot sequence (key_scratch_ avoids a per-flush rebuild
  /// allocation on cache hits).
  int pending_group_ = -1;
  std::vector<PendingCopy> pending_;
  std::vector<std::pair<ArrayId, int>> deferred_frees_;
  std::map<std::vector<int>, FusedSlot> fused_slots_;
  std::vector<int> key_scratch_;
  /// Pre-sized per-rank scratch (one slot per rank, reset per use) so the
  /// hot supersteps allocate nothing.
  std::vector<std::uint64_t> partials_;
  std::vector<CopyTally> copy_tallies_;
  /// Crash-consistent snapshotting (nullptr unless
  /// RunOptions::snapshot_dir is set on a parallel run).
  std::unique_ptr<persist::SnapshotWriter> snapshot_writer_;
  int boundary_counter_ = 0;
};

}  // namespace

std::string RunReport::summary() const {
  std::ostringstream os;
  os << copies_performed << " copies (" << elements_copied << " elems), "
     << skipped_already_mapped << " already-mapped, " << skipped_live_copy
     << " live-reuse, " << local_fastpath_copies << " local-fastpath, "
     << packed_bytes << " packed bytes, " << net.summary();
  if (!backend.empty())
    os << " [" << backend << " x" << threads << ", " << exec_ms
       << " ms wall (pack " << pack_ms << " / exchange " << exchange_ms
       << " / unpack " << unpack_ms << ")]";
  return os.str();
}

RunReport run_parallel(const ir::Program& program,
                       const remap::Analysis& analysis,
                       const codegen::RuntimeProgram& code,
                       const RunOptions& options) {
  Machine machine(program, analysis, &code, options);
  return machine.run();
}

RunReport run_oracle(const ir::Program& program,
                     const remap::Analysis& analysis,
                     const RunOptions& options) {
  Machine machine(program, analysis, nullptr, options);
  return machine.run();
}

}  // namespace hpfc::runtime
