#pragma once

#include <cstdint>

namespace perfbench {

/// Turns counting on or off; off at start. Call it before any thread
/// starts.
void count_allocations(bool on);

/// Number of operator new calls the process has made while counting was
/// on.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
