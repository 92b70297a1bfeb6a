#include "testing/plan_oracle.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace hpfc::testing {

namespace {

using mapping::Index;

std::vector<Index> intersect_sorted(const std::vector<Index>& a,
                                    const std::vector<Index>& b) {
  std::vector<Index> result;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  return result;
}

/// A rank owning nothing sends/receives nothing; with dims == 0 (scalar
/// arrays) ownership is decided by the grid-dim checks alone, which the
/// per-dimension sets cannot express — treat the rank as alive.
bool alive(const std::vector<std::vector<Index>>& lists) {
  return lists.empty() || !lists.front().empty();
}

}  // namespace

redist::RedistPlan oracle_plan(const mapping::ConcreteLayout& from,
                               const mapping::ConcreteLayout& to) {
  HPFC_ASSERT_MSG(from.array_shape() == to.array_shape(),
                  "redistribution requires identical array shapes");
  redist::RedistPlan plan;
  const int dims = from.array_shape().rank();

  // Ownership lists are O(extent) to compute: one pass per endpoint rank,
  // not one per (src, dst) pair.
  std::vector<std::vector<std::vector<Index>>> dst_lists;
  dst_lists.reserve(static_cast<std::size_t>(to.ranks()));
  int alive_dsts = 0;
  for (int dst = 0; dst < to.ranks(); ++dst) {
    dst_lists.push_back(to.owned_index_lists(dst));
    if (alive(dst_lists.back())) ++alive_dsts;
  }
  plan.transfers.reserve(static_cast<std::size_t>(from.ranks()) *
                         static_cast<std::size_t>(alive_dsts));

  for (int src = 0; src < from.ranks(); ++src) {
    const auto src_lists = from.owned_index_lists(src, /*for_sending=*/true);
    if (!alive(src_lists)) continue;
    for (int dst = 0; dst < to.ranks(); ++dst) {
      const auto& dst_list = dst_lists[static_cast<std::size_t>(dst)];
      if (!alive(dst_list)) continue;
      redist::Transfer transfer;
      transfer.src = src;
      transfer.dst = dst;
      transfer.dim_indices.reserve(static_cast<std::size_t>(dims));
      bool empty = false;
      // The pair is dropped as soon as one dimension's intersection is
      // empty — later dimensions are never computed.
      for (int d = 0; d < dims; ++d) {
        auto common = intersect_sorted(src_lists[static_cast<std::size_t>(d)],
                                       dst_list[static_cast<std::size_t>(d)]);
        if (common.empty()) {
          empty = true;
          break;
        }
        transfer.dim_indices.push_back(std::move(common));
      }
      if (!empty) plan.transfers.push_back(std::move(transfer));
    }
  }
  return plan;
}

}  // namespace hpfc::testing
