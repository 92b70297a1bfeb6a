// Seeded HPF-lite workloads of the benchmark. Each generator returns a
// small program description (declarations plus a structured body) that
// prints itself as HPF-lite source for hpf::parse and that the reference
// model (reference.hpp) walks independently of the compiler under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One distribution format of one template dimension.
struct Dist {
  enum Kind { Block, Cyclic, Star } kind = Star;
  long param = 0;  ///< block size / cyclic(k); 0 = the language default

  friend bool operator==(const Dist&, const Dist&) = default;
};

/// A template's (or directly distributed array's) distribution.
struct Distribution {
  std::vector<Dist> dims;
  std::string procs;

  friend bool operator==(const Distribution&, const Distribution&) = default;
};

struct Procs {
  std::string name;
  std::vector<long> shape;
};

/// A distribution target: a template, or an array distributed directly
/// (its implicit template has the array's shape).
struct Group {
  std::string name;
  std::vector<long> shape;
  Distribution initial;
  bool is_template = true;
};

struct Array {
  std::string name;
  std::vector<long> shape;
  std::string group;
  /// Array dimension d is aligned with template dimension perm[d].
  std::vector<int> perm;
  bool dummy = false;  ///< intent(inout) dummy argument of the routine

  [[nodiscard]] long size() const;
};

/// interface NAME(X(shape) intent(inout) distribute(dist) onto procs)
struct Interface {
  std::string name;
  std::vector<long> shape;
  Distribution dist;
};

struct Stmt {
  enum Kind { Remap, Ref, If, Loop, Call } kind = Ref;
  std::string target;  ///< Remap: group; Call: interface name
  Distribution dist;   ///< Remap
  std::vector<std::string> reads, writes, defines;  ///< Ref; If: cond reads
  std::vector<Stmt> body, orelse;                   ///< If / Loop
  long trips = 0;                                   ///< Loop (nonzero)
  std::string arg;                                  ///< Call
};

struct Program {
  std::string name;
  std::vector<Procs> procs;
  std::vector<Group> groups;
  std::vector<Array> arrays;
  std::vector<Interface> interfaces;
  std::vector<Stmt> body;

  [[nodiscard]] std::string to_hpf() const;
  [[nodiscard]] const Array& array(const std::string& name) const;
  [[nodiscard]] const Group& group(const std::string& name) const;
  [[nodiscard]] const Procs& procs_of(const std::string& name) const;
  [[nodiscard]] const Interface& interface(const std::string& name) const;
};

/// A workload's generated input: the program, the rank count it runs on,
/// and the runtime seeds of one round of operations, one per op. Each
/// seed fixes the op's branch path, so a round costs the same whatever
/// the benchmark seed.
struct Workload {
  std::string name;
  Program program;
  int ranks = 0;
  bool proc_backend = false;
  bool checkpoint = false;
  bool compile_in_op = false;
  /// The reference model recomputes copies, elements and messages.
  bool model_counts = false;
  std::vector<unsigned> round_seeds;
};

/// Deterministic 64-bit generator (splitmix64) for input generation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Generates workload `name` from `seed`; throws std::invalid_argument on
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The first `n` branch decisions the runtime takes under runtime seed
/// `seed`: it takes the then-branch when the next std::mt19937 draw is
/// odd. The reference model follows the same rule.
[[nodiscard]] std::vector<bool> branch_path(unsigned seed, std::size_t n);

}  // namespace perfbench
