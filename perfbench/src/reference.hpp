// The benchmark's independent reference: brute-force owner functions for
// block, cyclic(k), collapsed and 2-D distributions, a model of the
// paper's copy semantics driven by the program's read/write pattern, and
// the checks that compare the library's reports and restored stores
// against them. Nothing here calls the compiler or runtime under test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "persist/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Where an array's elements live under one mapping.
struct Layout {
  std::vector<long> shape;           ///< array shape (row-major)
  std::vector<long> template_shape;  ///< distributed template's shape
  std::vector<int> perm;             ///< array dim d -> template dim
  std::vector<Dist> dims;            ///< per template dim
  std::vector<long> proc_shape;

  /// The rank owning the element at row-major `linear` index.
  [[nodiscard]] int owner(long linear) const;

  friend bool operator==(const Layout&, const Layout&) = default;
};

/// What the reference model expects of one run at O2.
struct Expected {
  std::uint64_t copies = 0;
  std::uint64_t elements = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t live_reuses = 0;
  std::uint64_t reads = 0;   ///< array reads on the executed path
  std::uint64_t writes = 0;  ///< array writes on the executed path
  /// Each array's mapping when the routine exits.
  std::map<std::string, Layout> final_layout;
};

/// Walks the program along the path runtime seed `seed` takes, applying
/// the paper's rules: a remapping whose copy is not referenced before the
/// next remapping is removed; one whose next reference fully defines the
/// array moves no data; otherwise a live copy of the target mapping is
/// reused and a dead one is copied; a write kills every other copy.
[[nodiscard]] Expected model_run(const Program& program, unsigned seed);

/// Counters of one run that a check compares.
struct Observed {
  std::uint64_t signature = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t copies = 0;
  std::uint64_t elements = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t live_reuses = 0;
};

/// Returns "" when `run` agrees with the oracle signature (and, when
/// `expected` is given, with the model's counts), else what differs.
[[nodiscard]] std::string check_run(const Observed& run,
                                    std::uint64_t oracle_signature,
                                    std::uint64_t oracle_reads,
                                    std::uint64_t oracle_writes,
                                    const Expected* expected);

/// Checks a restored store against its journal and the model: the
/// journal holds every byte the run reported writing and its last seal
/// ends there, the restored epoch is that last sealed one, its array
/// roots equal that epoch's roots, and each array's current version has
/// runs that cover every element exactly once, each on the rank the owner
/// function names. `array_ids` maps array names to the library's ids.
[[nodiscard]] std::string check_restore(
    const hpfc::persist::RestoredStore& store,
    const std::vector<hpfc::persist::SealedEpoch>& sealed,
    std::uint64_t bytes_written, std::uint64_t journal_size,
    const std::map<std::string, Layout>& final_layout,
    const std::map<std::string, int>& array_ids);

/// The paper's property on one source: O2 <= O1 <= O0 for copies and
/// for elements copied.
[[nodiscard]] std::string check_levels(const std::uint64_t copies[3],
                                       const std::uint64_t elements[3]);

}  // namespace perfbench
