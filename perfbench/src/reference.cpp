#include "reference.hpp"

#include <algorithm>
#include <deque>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

long resolved_param(const Dist& d, long extent, long procs) {
  if (d.param != 0) return d.param;
  if (d.kind == Dist::Block) return (extent + procs - 1) / procs;
  return 1;
}

Layout layout_for(const Program& program, const Array& array,
                  const Distribution& dist) {
  const Group& g = program.group(array.group);
  Layout l;
  l.shape = array.shape;
  l.template_shape = g.shape;
  l.perm = array.perm;
  l.dims = dist.dims;
  l.proc_shape = program.procs_of(dist.procs).shape;
  return l;
}

Layout dummy_layout(const Program& program, const Interface& itf) {
  Layout l;
  l.shape = itf.shape;
  l.template_shape = itf.shape;
  for (std::size_t d = 0; d < itf.shape.size(); ++d)
    l.perm.push_back(static_cast<int>(d));
  l.dims = itf.dist.dims;
  l.proc_shape = program.procs_of(itf.dist.procs).shape;
  return l;
}

/// One step of the executed path, in the model's terms.
struct Event {
  enum Kind { Remap, Ref } kind = Ref;
  /// Remap: the arrays one remapping vertex moves and where to.
  std::vector<std::pair<std::string, Layout>> targets;
  /// Remap: the exit vertex exporting a dummy argument (its copy is used).
  bool exported = false;
  std::vector<std::string> reads, writes, defines;
};

bool contains(const std::vector<std::string>& v, const std::string& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

class Flattener {
 public:
  Flattener(const Program& program, unsigned seed)
      : program_(program), rng_(seed) {
    for (const Group& g : program.groups) dist_[g.name] = g.initial;
  }

  std::vector<Event> run() {
    walk(program_.body);
    // Exported dummies go back to their initial mapping at exit.
    for (const Array& a : program_.arrays) {
      if (!a.dummy) continue;
      Event e;
      e.kind = Event::Remap;
      e.exported = true;
      e.targets.emplace_back(
          a.name, layout_for(program_, a, program_.group(a.group).initial));
      events_.push_back(std::move(e));
    }
    return std::move(events_);
  }

 private:
  void walk(const std::vector<Stmt>& stmts) {
    for (const Stmt& s : stmts) {
      switch (s.kind) {
        case Stmt::Remap: {
          Distribution& d = dist_[s.target];
          const std::string procs = s.dist.procs.empty() ? d.procs
                                                         : s.dist.procs;
          d = Distribution{s.dist.dims, procs};
          Event e;
          e.kind = Event::Remap;
          for (const Array& a : program_.arrays)
            if (a.group == s.target)
              e.targets.emplace_back(a.name, layout_for(program_, a, d));
          events_.push_back(std::move(e));
          break;
        }
        case Stmt::Ref: {
          Event e;
          e.reads = s.reads;
          e.writes = s.writes;
          e.defines = s.defines;
          events_.push_back(std::move(e));
          break;
        }
        case Stmt::If: {
          if (!s.reads.empty()) {
            Event e;
            e.reads = s.reads;
            events_.push_back(std::move(e));
          }
          const bool take_then = (rng_() & 1u) != 0;
          walk(take_then ? s.body : s.orelse);
          break;
        }
        case Stmt::Loop:
          for (long t = 0; t < s.trips; ++t) walk(s.body);
          break;
        case Stmt::Call: {
          const Array& a = program_.array(s.arg);
          Event in;
          in.kind = Event::Remap;
          in.targets.emplace_back(
              a.name, dummy_layout(program_, program_.interface(s.target)));
          events_.push_back(std::move(in));
          Event body;
          body.reads = {a.name};
          body.writes = {a.name};
          events_.push_back(std::move(body));
          Event out;
          out.kind = Event::Remap;
          out.targets.emplace_back(a.name,
                                   layout_for(program_, a, dist_[a.group]));
          events_.push_back(std::move(out));
          break;
        }
      }
    }
  }

  const Program& program_;
  std::mt19937 rng_;
  std::map<std::string, Distribution> dist_;
  std::vector<Event> events_;
};

enum class Next { Useless, Define, Use };

/// How the copy an array leaves at event `i` is next referenced.
Next next_reference(const std::vector<Event>& events, std::size_t i,
                    const std::string& array) {
  for (std::size_t j = i + 1; j < events.size(); ++j) {
    const Event& e = events[j];
    if (e.kind == Event::Remap) {
      for (const auto& [name, layout] : e.targets)
        if (name == array) return e.exported ? Next::Use : Next::Useless;
      continue;
    }
    if (contains(e.reads, array) || contains(e.writes, array))
      return Next::Use;
    if (contains(e.defines, array)) return Next::Define;
  }
  return Next::Useless;
}

/// Remote (src != dst) rank pairs some element moves between.
std::set<std::pair<int, int>> remote_pairs(const Layout& from,
                                           const Layout& to) {
  std::set<std::pair<int, int>> pairs;
  long total = 1;
  for (const long e : from.shape) total *= e;
  for (long i = 0; i < total; ++i) {
    const int src = from.owner(i);
    const int dst = to.owner(i);
    if (src != dst) pairs.emplace(src, dst);
  }
  return pairs;
}

/// remote_pairs memoized per (from, to) mapping pair of one model run.
class PairCache {
 public:
  const std::set<std::pair<int, int>>& get(const Layout& from,
                                           const Layout& to) {
    for (const Entry& e : entries_)
      if (e.from == from && e.to == to) return e.pairs;
    entries_.push_back({from, to, remote_pairs(from, to)});
    return entries_.back().pairs;
  }

 private:
  struct Entry {
    Layout from, to;
    std::set<std::pair<int, int>> pairs;
  };
  std::deque<Entry> entries_;
};

}  // namespace

int Layout::owner(long linear) const {
  constexpr std::size_t kMaxDims = 4;
  if (shape.size() > kMaxDims || template_shape.size() > kMaxDims)
    throw std::logic_error("layouts above 4 dimensions are not modeled");
  long t[kMaxDims] = {};
  for (std::size_t d = shape.size(); d-- > 0;) {
    t[static_cast<std::size_t>(perm[d])] = linear % shape[d];
    linear /= shape[d];
  }
  long rank = 0;
  std::size_t p = 0;
  for (std::size_t td = 0; td < dims.size(); ++td) {
    const Dist& dist = dims[td];
    if (dist.kind == Dist::Star) continue;
    if (p >= proc_shape.size())
      throw std::logic_error("more distributed dims than processor dims");
    const long procs = proc_shape[p];
    const long k = resolved_param(dist, template_shape[td], procs);
    const long coord =
        dist.kind == Dist::Block ? t[td] / k : (t[td] / k) % procs;
    rank = rank * procs + coord;
    ++p;
  }
  if (p != proc_shape.size())
    throw std::logic_error("replicated layouts are not modeled");
  return static_cast<int>(rank);
}

Expected model_run(const Program& program, unsigned seed) {
  const std::vector<Event> events = Flattener(program, seed).run();
  Expected x;
  PairCache pair_cache;
  std::map<std::string, Layout> cur;
  std::map<std::string, std::vector<Layout>> live;
  for (const Array& a : program.arrays) {
    cur[a.name] = layout_for(program, a, program.group(a.group).initial);
    live[a.name] = {cur[a.name]};
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.kind == Event::Ref) {
      x.reads += e.reads.size();
      x.writes += e.writes.size() + e.defines.size();
      for (const auto* list : {&e.writes, &e.defines})
        for (const std::string& a : *list) live[a] = {cur[a]};
      continue;
    }
    std::set<std::pair<int, int>> vertex_pairs;
    for (const auto& [name, target] : e.targets) {
      const Next next = e.exported ? Next::Use : next_reference(events, i, name);
      if (next == Next::Useless || cur[name] == target) continue;
      std::vector<Layout>& copies = live[name];
      const bool is_live =
          std::find(copies.begin(), copies.end(), target) != copies.end();
      if (next == Next::Use && is_live) {
        ++x.live_reuses;
      } else if (next == Next::Use) {
        ++x.copies;
        x.elements += static_cast<std::uint64_t>(program.array(name).size());
        const auto& pairs = pair_cache.get(cur[name], target);
        vertex_pairs.insert(pairs.begin(), pairs.end());
      }
      if (!is_live) copies.push_back(target);
      cur[name] = target;
    }
    x.remote_messages += vertex_pairs.size();
  }
  x.final_layout = cur;
  return x;
}

std::string check_run(const Observed& run, std::uint64_t oracle_signature,
                      std::uint64_t oracle_reads, std::uint64_t oracle_writes,
                      const Expected* expected) {
  std::ostringstream os;
  auto expect_eq = [&](const char* what, std::uint64_t got,
                       std::uint64_t want) {
    if (got != want)
      os << what << " " << got << " != expected " << want << "; ";
  };
  expect_eq("signature", run.signature, oracle_signature);
  expect_eq("reads", run.reads, oracle_reads);
  expect_eq("writes", run.writes, oracle_writes);
  if (expected != nullptr) {
    expect_eq("model reads", run.reads, expected->reads);
    expect_eq("model writes", run.writes, expected->writes);
    expect_eq("copies_performed", run.copies, expected->copies);
    expect_eq("elements_copied", run.elements, expected->elements);
    expect_eq("remote_messages", run.remote_messages,
              expected->remote_messages);
    expect_eq("live copy reuses", run.live_reuses, expected->live_reuses);
  }
  return os.str();
}

std::string check_restore(const hpfc::persist::RestoredStore& store,
                          const std::vector<hpfc::persist::SealedEpoch>& sealed,
                          std::uint64_t bytes_written,
                          std::uint64_t journal_size,
                          const std::map<std::string, Layout>& final_layout,
                          const std::map<std::string, int>& array_ids) {
  if (journal_size != bytes_written)
    return "journal holds " + std::to_string(journal_size) +
           " bytes, the run wrote " + std::to_string(bytes_written);
  if (sealed.empty()) return "journal holds no sealed epoch";
  if (sealed.back().end_offset != bytes_written)
    return "last seal ends at byte " + std::to_string(sealed.back().end_offset) +
           " of " + std::to_string(bytes_written);
  if (!store.valid) return "restore recovered no sealed epoch";
  if (store.epoch != sealed.back().epoch)
    return "restored epoch " + std::to_string(store.epoch) +
           " is not the last sealed epoch " +
           std::to_string(sealed.back().epoch);
  if (store.roots != sealed.back().roots)
    return "restored array roots differ from the sealed epoch's roots";
  for (const auto& [name, layout] : final_layout) {
    const int id = array_ids.at(name);
    if (id < 0 || static_cast<std::size_t>(id) >= store.status.size())
      return "array " + name + " missing from the restored status";
    const int version = store.status[static_cast<std::size_t>(id)];
    const hpfc::persist::RestoredVersion* rv = nullptr;
    for (const auto& v : store.versions)
      if (v.array == id && v.version == version) rv = &v;
    if (rv == nullptr || !rv->allocated)
      return "current version of " + name + " was not restored";
    long total = 1;
    for (const long e : layout.shape) total *= e;
    std::vector<char> seen(static_cast<std::size_t>(total), 0);
    long covered = 0;
    for (const auto& [rank, runs] : rv->runs) {
      for (const auto& run : runs) {
        const auto& g = run.geometry;
        for (long t = 0; t < g.len; ++t) {
          const long index = g.global_base + t * g.global_stride;
          if (index < 0 || index >= total)
            return name + ": restored run leaves the index space";
          if (seen[static_cast<std::size_t>(index)] != 0)
            return name + ": element " + std::to_string(index) +
                   " restored twice";
          if (layout.owner(index) != rank)
            return name + ": element " + std::to_string(index) +
                   " restored on rank " + std::to_string(rank) +
                   ", owner is " + std::to_string(layout.owner(index));
          seen[static_cast<std::size_t>(index)] = 1;
          ++covered;
        }
      }
    }
    if (covered != total)
      return name + ": restored runs cover " + std::to_string(covered) +
             " of " + std::to_string(total) + " elements";
  }
  return "";
}

std::string check_levels(const std::uint64_t copies[3],
                         const std::uint64_t elements[3]) {
  std::ostringstream os;
  if (!(copies[2] <= copies[1] && copies[1] <= copies[0]))
    os << "copies O0/O1/O2 " << copies[0] << "/" << copies[1] << "/"
       << copies[2] << " break O2 <= O1 <= O0; ";
  if (!(elements[2] <= elements[1] && elements[1] <= elements[0]))
    os << "elements O0/O1/O2 " << elements[0] << "/" << elements[1] << "/"
       << elements[2] << " break O2 <= O1 <= O0; ";
  return os.str();
}

}  // namespace perfbench
