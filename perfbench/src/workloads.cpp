#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ",";
    out += names[i];
  }
  return out;
}

std::string shape_text(const std::vector<long>& shape) {
  std::string out = "(";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(shape[i]);
  }
  return out + ")";
}

std::string dist_text(const Distribution& dist) {
  std::string out = "(";
  for (std::size_t i = 0; i < dist.dims.size(); ++i) {
    if (i != 0) out += ",";
    const Dist& d = dist.dims[i];
    if (d.kind == Dist::Star) {
      out += "*";
      continue;
    }
    out += d.kind == Dist::Block ? "block" : "cyclic";
    if (d.param != 0) out += "(" + std::to_string(d.param) + ")";
  }
  return out + ")";
}

const char* kIndexNames[] = {"i", "j", "k"};

void print_stmts(const std::vector<Stmt>& stmts, int depth,
                 std::ostringstream& os) {
  const std::string pad(static_cast<std::size_t>(2 * depth), ' ');
  for (const Stmt& s : stmts) {
    switch (s.kind) {
      case Stmt::Remap:
        os << pad << "redistribute " << s.target << dist_text(s.dist);
        if (!s.dist.procs.empty()) os << " onto " << s.dist.procs;
        os << "\n";
        break;
      case Stmt::Ref:
        os << pad << "ref";
        if (!s.reads.empty()) os << " read(" << join(s.reads) << ")";
        if (!s.writes.empty()) os << " write(" << join(s.writes) << ")";
        if (!s.defines.empty()) os << " define(" << join(s.defines) << ")";
        os << "\n";
        break;
      case Stmt::If:
        os << pad << "if";
        if (!s.reads.empty()) os << " read(" << join(s.reads) << ")";
        os << "\n";
        print_stmts(s.body, depth + 1, os);
        if (!s.orelse.empty()) {
          os << pad << "else\n";
          print_stmts(s.orelse, depth + 1, os);
        }
        os << pad << "endif\n";
        break;
      case Stmt::Loop:
        os << pad << "loop " << s.trips << " nonzero\n";
        print_stmts(s.body, depth + 1, os);
        os << pad << "endloop\n";
        break;
      case Stmt::Call:
        os << pad << "call " << s.target << "(" << s.arg << ")\n";
        break;
    }
  }
}

Stmt remap(const std::string& group, Distribution dist) {
  Stmt s;
  s.kind = Stmt::Remap;
  s.target = group;
  s.dist = std::move(dist);
  return s;
}

Stmt ref(std::vector<std::string> reads, std::vector<std::string> writes = {},
         std::vector<std::string> defines = {}) {
  Stmt s;
  s.kind = Stmt::Ref;
  s.reads = std::move(reads);
  s.writes = std::move(writes);
  s.defines = std::move(defines);
  return s;
}

Stmt if_else(std::vector<std::string> cond, std::vector<Stmt> then_body,
             std::vector<Stmt> else_body) {
  Stmt s;
  s.kind = Stmt::If;
  s.reads = std::move(cond);
  s.body = std::move(then_body);
  s.orelse = std::move(else_body);
  return s;
}

Stmt loop(long trips, std::vector<Stmt> body) {
  Stmt s;
  s.kind = Stmt::Loop;
  s.trips = trips;
  s.body = std::move(body);
  return s;
}

Stmt call(const std::string& callee, const std::string& arg) {
  Stmt s;
  s.kind = Stmt::Call;
  s.target = callee;
  s.arg = arg;
  return s;
}

Distribution dist1(Dist d, const std::string& procs = "") {
  return Distribution{{d}, procs};
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// A short seeded prefix makes every seed's names (and therefore its
/// source text and read signature) distinct.
std::string name_prefix(Rng& rng) {
  std::string p;
  p += static_cast<char>('a' + rng.below(26));
  p += static_cast<char>('a' + rng.below(26));
  return p;
}

/// A runtime seed drawn from `rng` whose first branch decisions are
/// `path` (true = then-branch). Fixing the path keeps the work of an op
/// the same whatever the benchmark seed; the seed still varies the
/// names, formats and roles of the source.
unsigned seed_with_branches(Rng& rng, const std::vector<bool>& path) {
  while (true) {
    const auto s = static_cast<unsigned>(rng.next() | 1u);
    if (branch_path(s, path.size()) == path) return s;
  }
}

// ---- remap_loop ---------------------------------------------------------
// k arrays aligned with one template on P=8 ranks; each trip
// redistributes block -> cyclic(c), reads every array there, goes back to
// block and writes every array there. At O2 the block copy stays live
// across the read-only cyclic phase, so each trip copies once per array
// and reuses once per array.
constexpr int kLoopRanks = 8;
constexpr int kLoopArrays = 2;
constexpr long kLoopExtent = 1L << 18;
constexpr long kLoopCyclic = 4;
constexpr long kLoopTrips = 6;

Workload remap_loop(Rng& rng) {
  Workload w;
  w.name = "remap_loop";
  w.ranks = kLoopRanks;
  w.model_counts = true;
  Program& p = w.program;
  const std::string pre = name_prefix(rng);
  p.name = "remaploop";
  p.procs.push_back({"P", {kLoopRanks}});
  const std::string t = pre + "t";
  p.groups.push_back({t, {kLoopExtent}, dist1({Dist::Block, 0}, "P"), true});
  std::vector<std::string> names;
  for (int i = 0; i < kLoopArrays; ++i) {
    names.push_back(pre + "a" + std::to_string(i));
    p.arrays.push_back({names.back(), {kLoopExtent}, t, {0}, false});
  }
  std::vector<std::string> order = names;
  shuffle(order, rng);
  std::vector<Stmt> body;
  body.push_back(remap(t, dist1({Dist::Cyclic, kLoopCyclic})));
  body.push_back(ref(order));
  body.push_back(remap(t, dist1({Dist::Block, 0})));
  // Each array is written once per trip, reading its seeded partner.
  std::vector<std::string> partners = order;
  std::rotate(partners.begin(), partners.begin() + 1, partners.end());
  for (std::size_t i = 0; i < order.size(); ++i)
    body.push_back(ref({partners[i]}, {order[i]}));
  p.body.push_back(ref({}, {}, names));
  p.body.push_back(loop(kLoopTrips, std::move(body)));
  p.body.push_back(ref(names));
  w.round_seeds = {static_cast<unsigned>(rng.next() | 1u)};
  return w;
}

// ---- adi_proc -----------------------------------------------------------
// The paper's Figure 10 ADI routine: a dummy A(n,n) row-block
// distributed, B and C aligned with it, a seeded branch to cyclic rows or
// a 2x2 block grid, then `sweeps` row <-> column transposes. Runs on the
// process-per-rank socket backend with 4 ranks.
constexpr long kAdiExtent = 256;
constexpr long kAdiSweeps = 4;

Workload adi_proc(Rng& rng) {
  Workload w;
  w.name = "adi_proc";
  w.ranks = 4;
  w.proc_backend = true;
  w.model_counts = true;
  Program& p = w.program;
  const std::string pre = name_prefix(rng);
  p.name = "adi";
  p.procs.push_back({"P", {4}});
  p.procs.push_back({"Q", {2, 2}});
  const std::string a = pre + "a", b = pre + "b", c = pre + "c";
  const Distribution rows{{{Dist::Block, 0}, {Dist::Star, 0}}, "P"};
  const Distribution cols{{{Dist::Star, 0}, {Dist::Block, 0}}, "P"};
  p.groups.push_back({a, {kAdiExtent, kAdiExtent}, rows, false});
  p.arrays.push_back({a, {kAdiExtent, kAdiExtent}, a, {0, 1}, true});
  p.arrays.push_back({b, {kAdiExtent, kAdiExtent}, a, {0, 1}, false});
  p.arrays.push_back({c, {kAdiExtent, kAdiExtent}, a, {0, 1}, false});
  p.body.push_back(ref({a}, {b}));
  p.body.push_back(if_else(
      {b},
      {remap(a, {{{Dist::Cyclic, 0}, {Dist::Star, 0}}, "P"}), ref({b}, {a})},
      {remap(a, {{{Dist::Block, 0}, {Dist::Block, 0}}, "Q"}), ref({a})}));
  p.body.push_back(loop(kAdiSweeps, {remap(a, cols), ref({a}, {c}),
                                     remap(a, rows),
                                     ref({c}, {a})}));
  w.round_seeds = {seed_with_branches(rng, {true}),
                   seed_with_branches(rng, {false})};
  return w;
}

// ---- ckpt_restore -------------------------------------------------------
// Figure 18's shape over cyclic arrays: a seeded branch may move the
// template to cyclic(2); each call passes one array to a block-mapped
// dummy under that ambiguous reaching mapping, which is saved before the
// call and dispatched on after it. The run snapshots at every remap
// boundary.
constexpr int kCkptArrays = 3;
constexpr long kCkptExtent = 1L << 14;

Workload ckpt_restore(Rng& rng) {
  Workload w;
  w.name = "ckpt_restore";
  w.ranks = 4;
  w.checkpoint = true;
  w.model_counts = true;
  Program& p = w.program;
  const std::string pre = name_prefix(rng);
  p.name = "ckpt";
  p.procs.push_back({"P", {4}});
  const std::string t = pre + "t";
  p.groups.push_back({t, {kCkptExtent}, dist1({Dist::Cyclic, 0}, "P"), true});
  std::vector<std::string> names;
  for (int i = 0; i < kCkptArrays; ++i) {
    names.push_back(pre + "a" + std::to_string(i));
    p.arrays.push_back({names.back(), {kCkptExtent}, t, {0}, false});
  }
  p.interfaces.push_back(
      {pre + "foo", {kCkptExtent}, dist1({Dist::Block, 0}, "P")});
  std::vector<std::string> order = names;
  shuffle(order, rng);
  p.body.push_back(ref({}, {}, names));
  p.body.push_back(if_else(
      {}, {remap(t, dist1({Dist::Cyclic, 2})), ref({order[1]}, {order[0]})},
      {}));
  p.body.push_back(call(pre + "foo", order[0]));
  p.body.push_back(call(pre + "foo", order[1]));
  // Both reaching mappings are possible here; a last remapping makes the
  // final references unambiguous, as in Figure 18.
  p.body.push_back(remap(t, dist1({Dist::Cyclic, 3})));
  p.body.push_back(ref(names, {order[2]}));
  w.round_seeds = {seed_with_branches(rng, {true}),
                   seed_with_branches(rng, {false})};
  return w;
}

// ---- compile_wide -------------------------------------------------------
// Many small templates, each with four aligned arrays, and a long body of
// blocks cycling through straight-line remaps, if/else remaps and loops.
// The block structure is fixed: each template moves among three formats
// in a fixed order and each array keeps one read/write role, and every
// template sees the same sequence of block kinds. The seed picks the
// names, which template gets which format triple and which array plays
// which role, so every seed compiles and runs the same amount of work.
constexpr int kWideRanks = 4;
constexpr int kWideTemplates = 6;
constexpr int kWideArraysPerTemplate = 4;
constexpr long kWideExtent = 64;
constexpr int kWideBlocks = 36;

Workload compile_wide(Rng& rng) {
  Workload w;
  w.name = "compile_wide";
  w.ranks = kWideRanks;
  w.compile_in_op = true;
  Program& p = w.program;
  const std::string pre = name_prefix(rng);
  p.name = "wide";
  p.procs.push_back({"P", {kWideRanks}});
  // Every pair of these formats exchanges between all 12 ordered pairs of
  // distinct ranks at this extent. The seed deals the fixed format
  // triples out to the templates, so the set of layouts (and their owned
  // runs) is the same for every seed.
  const Dist b{Dist::Block, 0}, c1{Dist::Cyclic, 0}, c4{Dist::Cyclic, 4},
      c5{Dist::Cyclic, 5};
  std::vector<std::vector<Dist>> formats = {{b, c1, c4},  {b, c1, c5},
                                            {b, c4, c5},  {c1, c4, c5},
                                            {c1, b, c5}, {c4, c1, b}};
  shuffle(formats, rng);
  std::vector<std::vector<std::string>> roles(kWideTemplates);
  std::vector<std::string> all;
  for (int g = 0; g < kWideTemplates; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const std::string t = pre + "t" + std::to_string(g);
    p.groups.push_back({t, {kWideExtent}, dist1(formats[gi][0], "P"), true});
    for (int i = 0; i < kWideArraysPerTemplate; ++i) {
      const std::string a =
          pre + "g" + std::to_string(g) + "a" + std::to_string(i);
      p.arrays.push_back({a, {kWideExtent}, t, {0}, false});
      roles[gi].push_back(a);
      all.push_back(a);
    }
    shuffle(roles[gi], rng);
  }
  std::vector<int> current(kWideTemplates, 0);
  // The runtime seed's branch decisions pick the arm order of each if, so
  // the executed arms alternate between the two kinds for every seed.
  const auto seed = static_cast<unsigned>(rng.next() | 1u);
  const std::vector<bool> path =
      branch_path(seed, static_cast<std::size_t>(kWideBlocks));
  std::size_t branches = 0;
  p.body.push_back(ref({}, {}, all));
  for (int blk = 0; blk < kWideBlocks; ++blk) {
    const auto g = static_cast<std::size_t>(blk % kWideTemplates);
    const std::string& t = p.groups[g].name;
    const std::vector<std::string>& r = roles[g];
    const int c = current[g];
    auto fmt = [&](int step) {
      return dist1(formats[g][static_cast<std::size_t>((c + step) % 3)]);
    };
    switch ((blk / kWideTemplates) % 3) {
      case 0:
        p.body.push_back(remap(t, fmt(1)));
        p.body.push_back(ref({r[0], r[1]}, {r[2]}));
        p.body.push_back(ref({r[3]}));
        current[g] = (c + 1) % 3;
        break;
      case 1: {
        std::vector<Stmt> first = {remap(t, fmt(1)), ref({r[1]}, {r[0]})};
        std::vector<Stmt> second = {remap(t, fmt(2)), ref({r[1], r[2]})};
        if (path[branches] != (branches % 2 == 0)) std::swap(first, second);
        p.body.push_back(if_else({r[0]}, std::move(first), std::move(second)));
        p.body.push_back(remap(t, fmt(0)));
        p.body.push_back(ref({r[0]}, {r[3]}));
        ++branches;
        break;
      }
      default:
        p.body.push_back(loop(2, {remap(t, fmt(1)), ref({r[0], r[1]}),
                                  remap(t, fmt(0)), ref({r[2]}, {r[0]})}));
        break;
    }
  }
  p.body.push_back(ref(all));
  w.round_seeds = {seed};
  return w;
}

}  // namespace

long Array::size() const {
  long total = 1;
  for (const long e : shape) total *= e;
  return total;
}

std::string Program::to_hpf() const {
  std::ostringstream os;
  os << "routine " << name << "\n";
  for (const Procs& pr : procs)
    os << "processors " << pr.name << shape_text(pr.shape) << "\n";
  for (const Group& g : groups) {
    if (!g.is_template) continue;
    os << "template " << g.name << shape_text(g.shape) << "\n";
    os << "distribute " << g.name << dist_text(g.initial) << " onto "
       << g.initial.procs << "\n";
  }
  for (const Array& a : arrays) {
    if (a.dummy)
      os << "dummy " << a.name << shape_text(a.shape) << " intent(inout)\n";
    else
      os << "real " << a.name << shape_text(a.shape) << "\n";
    const Group& g = group(a.group);
    if (!g.is_template && g.name == a.name) {
      os << "distribute " << a.name << dist_text(g.initial) << " onto "
         << g.initial.procs << "\n";
      continue;
    }
    os << "align " << a.name << "(";
    for (std::size_t d = 0; d < a.shape.size(); ++d)
      os << (d != 0 ? "," : "") << kIndexNames[d];
    os << ") with " << a.group << "(";
    for (std::size_t td = 0; td < a.perm.size(); ++td) {
      const auto d = static_cast<std::size_t>(
          std::find(a.perm.begin(), a.perm.end(), static_cast<int>(td)) -
          a.perm.begin());
      os << (td != 0 ? "," : "") << kIndexNames[d];
    }
    os << ")\n";
  }
  for (const Interface& itf : interfaces)
    os << "interface " << itf.name << "(x" << shape_text(itf.shape)
       << " intent(inout) distribute" << dist_text(itf.dist) << " onto "
       << itf.dist.procs << ")\n";
  os << "begin\n";
  print_stmts(body, 1, os);
  os << "end\n";
  return os.str();
}

const Array& Program::array(const std::string& n) const {
  for (const Array& a : arrays)
    if (a.name == n) return a;
  throw std::invalid_argument("unknown array " + n);
}

const Group& Program::group(const std::string& n) const {
  for (const Group& g : groups)
    if (g.name == n) return g;
  throw std::invalid_argument("unknown group " + n);
}

const Procs& Program::procs_of(const std::string& n) const {
  for (const Procs& pr : procs)
    if (pr.name == n) return pr;
  throw std::invalid_argument("unknown processors " + n);
}

const Interface& Program::interface(const std::string& n) const {
  for (const Interface& itf : interfaces)
    if (itf.name == n) return itf;
  throw std::invalid_argument("unknown interface " + n);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x5851F42D4C957F2Dull);
  if (name == "remap_loop") return remap_loop(rng);
  if (name == "adi_proc") return adi_proc(rng);
  if (name == "ckpt_restore") return ckpt_restore(rng);
  if (name == "compile_wide") return compile_wide(rng);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<bool> branch_path(unsigned seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::vector<bool> path(n);
  for (std::size_t i = 0; i < n; ++i) path[i] = (rng() & 1u) != 0;
  return path;
}

}  // namespace perfbench
