// SimNetwork: a deterministic in-process stand-in for an MPI communicator.
//
// The paper's runtime executes remapping communication on a distributed-
// memory machine; no such machine (nor MPI) is available here, so the
// machine is simulated: P ranks with per-rank memories exchange messages in
// BSP supersteps. The network is *exact* about which bytes move where (the
// redistribution communication sets are executed for real) and charges an
// alpha-beta cost model for time, so benchmark comparisons (naive vs
// optimized remappings) reproduce the communication-volume shape the paper
// argues about.
//
// Self-messages (src == dst) model local copies: they are delivered but are
// counted separately and cost no network time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/cost_model.hpp"
#include "net/message.hpp"

namespace hpfc::net {

struct NetStats {
  std::uint64_t messages = 0;      ///< off-rank messages delivered
  std::uint64_t bytes = 0;         ///< off-rank payload bytes
  std::uint64_t local_copies = 0;  ///< on-rank (src==dst) deliveries
  std::uint64_t local_bytes = 0;
  /// Bulk-copy segments across all delivered payloads (local and remote):
  /// the pack granularity — elements / segments is the mean copy length.
  std::uint64_t segments = 0;
  std::uint64_t supersteps = 0;
  /// Remapping copies whose communication shared one exchange superstep
  /// with at least one other copy (cross-array message aggregation): the
  /// alpha-term savings counter — it stays 0 when every copy runs its own
  /// superstep.
  std::uint64_t fused_copies = 0;
  /// Plan-slot compilations that found their symbolic plan's (N, P)
  /// instance already bound in the runtime's two-level plan cache (one
  /// lookup per plan-slot compile, counted at the producing site on the
  /// controlling thread, so the count is invariant across backends and
  /// the fusion toggle). Slots whose layout pair has no symbolic family
  /// build their plan concretely and count neither a hit nor a miss.
  std::uint64_t plan_cache_hits = 0;
  /// Plan-slot compilations that found no bound instance for their
  /// shapes (each is followed by a symbolic instantiation).
  std::uint64_t plan_cache_misses = 0;
  /// Concrete RedistPlanV2 instances built by binding a symbolic plan at
  /// (N, P) — one per cache miss; rises again when a dropped instance is
  /// re-bound after plan-slot eviction.
  std::uint64_t symbolic_instantiations = 0;
  double sim_time = 0.0;  ///< seconds under the cost model

  NetStats& operator+=(const NetStats& other);
  friend NetStats operator-(NetStats a, const NetStats& b);
  friend bool operator==(const NetStats&, const NetStats&) = default;
  [[nodiscard]] std::string summary() const;
};

/// Validates and routes one superstep of outboxes into per-rank inboxes,
/// in deterministic (src, emission) order.
std::vector<std::vector<Message>> route_superstep(
    std::vector<std::vector<Message>> outboxes, int ranks);

/// Accounts one already-routed superstep into `stats`: counters plus one
/// BSP step of the alpha-beta clock (the busiest rank's send+receive
/// cost).  Shared by SimNetwork and every exec::Backend so their NetStats
/// stay byte-identical however the messages were physically moved.
void account_superstep(NetStats& stats, const CostModel& cost,
                       const std::vector<std::vector<Message>>& inboxes);

class SimNetwork {
 public:
  explicit SimNetwork(int ranks, CostModel cost = {});

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }
  void reset_stats() { stats_ = {}; }

  /// Performs one superstep of all-to-all personalized communication:
  /// `outboxes[r]` holds the messages rank r sends (each message's `src`
  /// must equal r). Returns `inboxes[r]` = messages received by rank r, in
  /// deterministic (src, emission) order. Advances the simulated clock.
  std::vector<std::vector<Message>> exchange(
      std::vector<std::vector<Message>> outboxes);

  /// A synchronization-only superstep (advances the step counter and
  /// charges one latency).
  void barrier();

 private:
  int ranks_;
  CostModel cost_;
  NetStats stats_;
};

}  // namespace hpfc::net
