#include "redist/fused.hpp"

#include <map>
#include <utility>

#include "support/check.hpp"

namespace hpfc::redist {

FusedExchange build_fused_exchange(
    int ranks, std::span<const std::span<const SegmentProgram>> members) {
  FusedExchange fused;
  fused.by_src.resize(static_cast<std::size_t>(ranks));
  fused.local_by_rank.resize(static_cast<std::size_t>(ranks));

  // Off-rank pairs share one combined message; the map keeps the message
  // table deterministic in (src, dst) order while frames append in member
  // order as the member walk below encounters each pair.
  std::map<std::pair<int, int>, std::size_t> pair_message;

  for (std::size_t m = 0; m < members.size(); ++m) {
    for (std::size_t p = 0; p < members[m].size(); ++p) {
      const SegmentProgram& tp = members[m][p];
      HPFC_ASSERT_MSG(tp.src >= 0 && tp.src < ranks && tp.dst >= 0 &&
                          tp.dst < ranks,
                      "fused member program outside the machine");
      if (tp.src == tp.dst) {
        fused.local_by_rank[static_cast<std::size_t>(tp.src)].push_back(
            {static_cast<int>(m), static_cast<int>(p)});
        continue;
      }
      const auto [it, inserted] = pair_message.try_emplace(
          {tp.src, tp.dst}, fused.messages.size());
      if (inserted) fused.messages.push_back({tp.src, tp.dst, 0, 0, {}});
      FusedMessage& fm = fused.messages[it->second];
      fm.frames.push_back(
          {static_cast<int>(m), static_cast<int>(p), fm.elements, tp.elements});
      fm.elements += tp.elements;
      fm.segments += static_cast<int>(tp.segments.size());
    }
  }

  for (std::size_t i = 0; i < fused.messages.size(); ++i)
    fused.by_src[static_cast<std::size_t>(fused.messages[i].src)].push_back(
        static_cast<int>(i));
  return fused;
}

}  // namespace hpfc::redist
