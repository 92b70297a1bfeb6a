#include "net/network.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace hpfc::net {

NetStats& NetStats::operator+=(const NetStats& other) {
  messages += other.messages;
  bytes += other.bytes;
  local_copies += other.local_copies;
  local_bytes += other.local_bytes;
  segments += other.segments;
  supersteps += other.supersteps;
  fused_copies += other.fused_copies;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  symbolic_instantiations += other.symbolic_instantiations;
  sim_time += other.sim_time;
  return *this;
}

NetStats operator-(NetStats a, const NetStats& b) {
  a.messages -= b.messages;
  a.bytes -= b.bytes;
  a.local_copies -= b.local_copies;
  a.local_bytes -= b.local_bytes;
  a.segments -= b.segments;
  a.supersteps -= b.supersteps;
  a.fused_copies -= b.fused_copies;
  a.plan_cache_hits -= b.plan_cache_hits;
  a.plan_cache_misses -= b.plan_cache_misses;
  a.symbolic_instantiations -= b.symbolic_instantiations;
  a.sim_time -= b.sim_time;
  return a;
}

std::string NetStats::summary() const {
  std::ostringstream os;
  os << messages << " msgs, " << format_bytes(bytes) << ", "
     << local_copies << " local copies (" << format_bytes(local_bytes)
     << "), " << segments << " segs, " << supersteps << " steps, "
     << fused_copies << " fused, " << sim_time * 1e3 << " ms";
  return os.str();
}

SimNetwork::SimNetwork(int ranks, CostModel cost) : ranks_(ranks), cost_(cost) {
  HPFC_ASSERT_MSG(ranks > 0, "a machine needs at least one rank");
}

std::vector<std::vector<Message>> route_superstep(
    std::vector<std::vector<Message>> outboxes, int ranks) {
  HPFC_ASSERT(static_cast<int>(outboxes.size()) == ranks);
  std::vector<std::vector<Message>> inboxes(static_cast<std::size_t>(ranks));
  // Count first so every inbox is reserved exactly once (no growth
  // reallocations while routing).
  std::vector<std::size_t> counts(static_cast<std::size_t>(ranks), 0);
  for (int src = 0; src < ranks; ++src) {
    for (const auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      HPFC_ASSERT_MSG(msg.src == src, "message src must match its outbox");
      HPFC_ASSERT_MSG(msg.dst >= 0 && msg.dst < ranks, "bad destination");
      ++counts[static_cast<std::size_t>(msg.dst)];
    }
  }
  for (int r = 0; r < ranks; ++r)
    inboxes[static_cast<std::size_t>(r)].reserve(
        counts[static_cast<std::size_t>(r)]);
  // Deterministic receive order: by source rank, then emission order —
  // guaranteed by this fill order.
  for (int src = 0; src < ranks; ++src) {
    for (auto& msg : outboxes[static_cast<std::size_t>(src)]) {
      inboxes[static_cast<std::size_t>(msg.dst)].push_back(std::move(msg));
    }
  }
  return inboxes;
}

void account_superstep(NetStats& stats, const CostModel& cost,
                       const std::vector<std::vector<Message>>& inboxes) {
  const int ranks = static_cast<int>(inboxes.size());
  // Per-rank accounting for the superstep clock (one scratch vector).
  struct RankLoad {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<RankLoad> load(static_cast<std::size_t>(ranks));

  for (const auto& inbox : inboxes) {
    for (const auto& msg : inbox) {
      const std::uint64_t nbytes = msg.bytes();
      stats.segments += static_cast<std::uint64_t>(msg.segments);
      if (msg.dst == msg.src) {
        stats.local_copies += 1;
        stats.local_bytes += nbytes;
      } else {
        stats.messages += 1;
        stats.bytes += nbytes;
        load[static_cast<std::size_t>(msg.src)].msgs += 1;
        load[static_cast<std::size_t>(msg.src)].bytes += nbytes;
        load[static_cast<std::size_t>(msg.dst)].msgs += 1;
        load[static_cast<std::size_t>(msg.dst)].bytes += nbytes;
      }
    }
  }

  double step_time = 0.0;
  for (int r = 0; r < ranks; ++r) {
    step_time = std::max(
        step_time, cost.message_time(load[static_cast<std::size_t>(r)].msgs,
                                     load[static_cast<std::size_t>(r)].bytes));
  }
  stats.sim_time += step_time;
  stats.supersteps += 1;
}

std::vector<std::vector<Message>> SimNetwork::exchange(
    std::vector<std::vector<Message>> outboxes) {
  auto inboxes = route_superstep(std::move(outboxes), ranks_);
  account_superstep(stats_, cost_, inboxes);
  return inboxes;
}

void SimNetwork::barrier() {
  stats_.supersteps += 1;
  stats_.sim_time += cost_.latency;
}

}  // namespace hpfc::net
