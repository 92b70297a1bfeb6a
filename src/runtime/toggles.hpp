// The toggle registry: one table describing every boolean A/B switch on
// runtime::RunOptions, so the CLI, the bench harness, run_benches, and
// the docs all consume a single source of truth instead of each
// hand-rolling its own flag list (the sprawl this replaces).
//
// Each toggle has two spellings: `name` is the kebab-case CLI surface
// ("unfuse-copy-groups", yielding --unfuse-copy-groups) and `key` is the
// snake_case member / JSON spelling ("unfuse_copy_groups").
// find_toggle() resolves either. Adding a toggle here is the whole job:
// RunOptions::set picks it up, support::cli::RunFlags grows the flag,
// `hpfc --list-toggles` and the bench harness print it, and
// tools/run_benches learns to pass it through.
#pragma once

#include <span>
#include <string_view>

#include "runtime/machine.hpp"

namespace hpfc::runtime {

/// One registered boolean switch on RunOptions.
struct Toggle {
  std::string_view name;  ///< kebab-case CLI spelling ("unfuse-copy-groups")
  std::string_view key;   ///< snake_case member spelling ("unfuse_copy_groups")
  bool RunOptions::* flag;  ///< the member the toggle flips
  std::string_view help;  ///< one-line description for --help output
};

/// The registry, in stable display order.
[[nodiscard]] std::span<const Toggle> toggles();

/// Resolves a toggle by either spelling; nullptr when unknown.
[[nodiscard]] const Toggle* find_toggle(std::string_view name_or_key);

/// Calls fn(toggle, current_value) for every registered toggle.
template <typename Fn>
void for_each_toggle(const RunOptions& options, Fn&& fn) {
  for (const Toggle& toggle : toggles()) fn(toggle, options.*(toggle.flag));
}

}  // namespace hpfc::runtime
