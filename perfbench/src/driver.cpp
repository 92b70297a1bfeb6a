// hpfc's benchmark driver. Generates one workload's HPF-lite source from
// a seed, compiles it through the library's public passes, runs a closed
// loop of operations for a fixed time, checks every operation against
// independent references, and prints one JSON line of raw figures. run.py
// runs several such parts per benchmark run, each in a fresh process, and
// pools them. With --trace 1 the driver also records spans around each
// public call and writes them as Chrome trace-event JSON; trace_table.py
// turns the traces into per-layer metrics. Usage:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --scratch DIR [--trace-out FILE] [--post]
//   perfbench_driver --selftest --scratch DIR
//   perfbench_driver --host
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "codegen/gen.hpp"
#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "hpf/parser.hpp"
#include "opt/passes.hpp"
#include "persist/snapshot.hpp"
#include "reference.hpp"
#include "remap/build.hpp"
#include "runtime/machine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using hpfc::runtime::RunOptions;
using hpfc::runtime::RunReport;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

// ---- tracing --------------------------------------------------------------
// Spans are kept in memory and written once at exit. When tracing is off
// nothing is recorded.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  void span(const char* name, const char* layer, Clock::time_point start,
            Clock::time_point end, std::string args = "") {
    if (!on_) return;
    spans_.push_back({name, layer,
                      std::chrono::duration<double, std::micro>(start - origin_)
                          .count(),
                      std::chrono::duration<double, std::micro>(end - start)
                          .count(),
                      std::move(args)});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":" << quoted(s.name) << ",\"cat\":" << quoted(s.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.ts_us)
          << ",\"dur\":" << num(s.dur_us) << ",\"args\":{" << s.args << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    double ts_us;
    double dur_us;
    std::string args;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// "key":value pairs for span arguments.
class Args {
 public:
  Args& add(const char* key, double v) {
    sep();
    os_ << '"' << key << "\":" << num(v);
    return *this;
  }
  Args& add(const char* key, const std::string& v) {
    sep();
    os_ << '"' << key << "\":" << quoted(v);
    return *this;
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  void sep() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

// ---- compilation through the public passes --------------------------------

struct CompileResult {
  std::unique_ptr<hpfc::driver::Compiled> compiled;
  double ms = 0.0;
};

int count_ops(const hpfc::codegen::OpList& ops) {
  int n = 0;
  for (const auto& op : ops) n += 1 + count_ops(op.body);
  return n;
}

int count_ops(const hpfc::codegen::RuntimeProgram& code) {
  int n = count_ops(code.at_entry) + count_ops(code.at_exit);
  for (const auto& ops : code.at_node) n += count_ops(ops);
  return n;
}

/// Compiles at O2 the way driver::compile does, one public pass at a time
/// so each can be timed: parse, loop-invariant remap motion, remapping
/// graph construction, useless-remapping removal plus maybe-live sets,
/// and copy code generation.
CompileResult compile_o2(const std::string& source, Tracer& tracer,
                         int compile_id) {
  using namespace hpfc;
  CompileResult r;
  r.compiled = std::make_unique<driver::Compiled>();
  driver::Compiled& c = *r.compiled;
  DiagnosticEngine diags;
  const auto t0 = Clock::now();
  c.program = hpf::parse(source, diags);
  const auto t1 = Clock::now();
  if (diags.has_errors())
    throw std::runtime_error("parse failed:\n" + diags.to_string());
  c.opt_report.hoisted_remaps = opt::hoist_loop_invariant_remaps(c.program);
  const auto t2 = Clock::now();
  c.analysis = remap::analyze(c.program, diags);
  const auto t3 = Clock::now();
  if (!c.analysis.ok)
    throw std::runtime_error("analysis failed:\n" + diags.to_string());
  opt::remove_useless_remappings(c.analysis, c.opt_report);
  opt::compute_maybe_live(c.analysis);
  const auto t4 = Clock::now();
  c.code = codegen::generate(c.program, c.analysis, codegen::CodegenOptions{});
  const auto t5 = Clock::now();
  c.ok = true;
  r.ms = ms_between(t0, t5);
  if (tracer.on()) {
    const double id = compile_id;
    tracer.span("parse", "hpf", t0, t1, Args().add("compile", id).str());
    tracer.span("hoist", "opt", t1, t2,
                Args().add("compile", id)
                    .add("hoisted", c.opt_report.hoisted_remaps)
                    .str());
    tracer.span("analyze", "remap", t2, t3,
                Args().add("compile", id)
                    .add("versions", c.total_versions())
                    .str());
    tracer.span("opt", "opt", t3, t4,
                Args().add("compile", id)
                    .add("removed", c.opt_report.removed_remappings)
                    .str());
    tracer.span("codegen", "codegen", t4, t5,
                Args().add("compile", id)
                    .add("ops", count_ops(c.code))
                    .str());
  }
  return r;
}

// ---- one workload instance ------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void move_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

/// The counters of a run that the checks compare.
Observed observe(const RunReport& r) {
  return {r.signature,
          r.reads,
          r.writes,
          static_cast<std::uint64_t>(r.copies_performed),
          r.elements_copied,
          r.net.messages,
          static_cast<std::uint64_t>(r.skipped_live_copy)};
}

struct Usage {
  std::uint64_t minor_faults = 0;
  double sys_ms = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<std::uint64_t>(ru.ru_minflt),
          ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3};
}

/// Peak resident set of this process image in KiB (VmHWM). Not
/// getrusage's ru_maxrss: that one survives exec, so it would report the
/// parent's resident set at fork when that was larger.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct OpSample {
  /// The journal directory of a checkpointing op.
  std::string journal_dir;
  /// What went wrong when the op threw; "" otherwise.
  std::string error;
  double wall_ms = 0.0;
  double compile_ms = 0.0;
  RunReport report;
  std::uint64_t allocs = 0;
  std::uint64_t minor_faults = 0;
  double sys_ms = 0.0;
  /// The op's restored store (checkpointing workloads; dropped once
  /// checked).
  hpfc::persist::RestoredStore restored;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
  /// Also run the once-per-run checks and probes after the loop.
  bool post = false;
};

/// Per round seed, what the checks compare an op with: the oracle's run
/// and the reference model's expectations. Computed once, before any
/// set-up is timed, since neither is the program's work.
struct References {
  std::vector<RunReport> oracle;
  std::vector<Expected> expected;
};

/// Everything one set-up builds: the generated workload and its compiled
/// code.
struct Instance {
  Workload w;
  std::string source;
  std::unique_ptr<hpfc::driver::Compiled> compiled;
  std::map<std::string, int> array_ids;
};

class Bench {
 public:
  explicit Bench(Config cfg) : cfg_(std::move(cfg)), tracer_(cfg_.trace) {
    std::filesystem::create_directories(cfg_.scratch);
    snapshot_dir_ = cfg_.scratch + "/journal";
  }

  int run();

 private:
  static RunOptions options_for(const Workload& w, unsigned seed,
                                const std::string& journal_dir) {
    RunOptions o;
    o.ranks = w.ranks;
    o.seed = seed;
    o.threads = 1;
    o.backend = w.proc_backend ? hpfc::exec::BackendKind::Proc
                               : hpfc::exec::BackendKind::Seq;
    if (!journal_dir.empty()) {
      o.snapshot_dir = journal_dir;
      o.snapshot_every = w.checkpoint ? 1 : 1 << 30;
    }
    return o;
  }

  /// Runs the oracle and the reference model for every round seed.
  References make_references(const Workload& w) const;
  /// Generates and compiles.
  Instance set_up();
  /// Runs one op; a checkpointing op journals into `journal_dir`. An
  /// exception is kept in the sample's `error`.
  OpSample run_op(const Instance& in, std::size_t k, const char* phase,
                  const std::string& journal_dir);
  /// Checks one op, counts it as attempted and, on a mismatch, as failed;
  /// then drops its restored store.
  void settle(const Instance& in, std::size_t k, OpSample& op);
  /// Runs the checks of one op; returns "" or the failure.
  std::string check_op(const Instance& in, std::size_t k,
                       const OpSample& op);
  /// Checks `store`, restored from the journal in `journal_dir` that the
  /// run `report` wrote.
  std::string check_journal(const Instance& in, std::size_t k,
                            const std::string& journal_dir,
                            const RunReport& report,
                            const hpfc::persist::RestoredStore& store);
  void record_run_span(Clock::time_point start, Clock::time_point end,
                       const OpSample& op, const char* phase);
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 5) failures_.push_back(what);
  }
  void probe_layers(const Instance& in);
  void post_checks(const Instance& in);

  Config cfg_;
  Tracer tracer_;
  std::string snapshot_dir_;
  References refs_;
  std::uint64_t probe_journal_bytes_ = 0;
  int compile_ids_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

References Bench::make_references(const Workload& w) const {
  Tracer off(false);
  const auto compiled = compile_o2(w.program.to_hpf(), off, 0).compiled;
  References refs;
  for (const unsigned seed : w.round_seeds) {
    refs.oracle.push_back(
        hpfc::driver::run_oracle(*compiled, options_for(w, seed, "")));
    refs.expected.push_back(model_run(w.program, seed));
  }
  return refs;
}

Instance Bench::set_up() {
  Instance in;
  in.w = make_workload(cfg_.workload, cfg_.seed);
  in.source = in.w.program.to_hpf();
  in.compiled = compile_o2(in.source, tracer_, compile_ids_++).compiled;
  const auto& prog = in.compiled->program;
  for (const Array& a : in.w.program.arrays)
    in.array_ids[a.name] = prog.find_array(a.name);
  return in;
}

void Bench::record_run_span(Clock::time_point start, Clock::time_point end,
                            const OpSample& op, const char* phase) {
  if (!tracer_.on()) return;
  const RunReport& r = op.report;
  tracer_.span(
      "run_parallel", "runtime", start, end,
      Args()
          .add("phase", phase)
          .add("exec_ms", r.exec_ms)
          .add("pack_ms", r.pack_ms)
          .add("exchange_ms", r.exchange_ms)
          .add("unpack_ms", r.unpack_ms)
          .add("snapshot_ms", r.snapshot_ms)
          .add("segments", static_cast<double>(r.net.segments))
          .add("plan_misses", static_cast<double>(r.net.plan_cache_misses))
          .add("host_allocs", static_cast<double>(op.allocs))
          .add("minor_faults", static_cast<double>(op.minor_faults))
          .add("sys_ms", op.sys_ms)
          .add("live_reuses", r.skipped_live_copy)
          .add("wire_bytes", static_cast<double>(r.wire_bytes))
          .add("wire_msgs", static_cast<double>(r.wire_msgs))
          .add("supersteps", static_cast<double>(r.net.supersteps))
          .add("remote_bytes", static_cast<double>(r.net.bytes))
          .add("snapshot_runs", static_cast<double>(r.snapshot_runs_written))
          .add("snapshot_bytes", static_cast<double>(r.snapshot_bytes))
          .str());
}

OpSample Bench::run_op(const Instance& in, std::size_t k, const char* phase,
                      const std::string& journal_dir) {
  OpSample op;
  if (in.w.checkpoint) op.journal_dir = journal_dir;
  try {
    const unsigned seed = in.w.round_seeds[k];
    const auto start = Clock::now();
    const hpfc::driver::Compiled* compiled = in.compiled.get();
    CompileResult fresh;
    if (in.w.compile_in_op) {
      fresh = compile_o2(in.source, tracer_, compile_ids_++);
      compiled = fresh.compiled.get();
      op.compile_ms = fresh.ms;
    }
    const RunOptions options = options_for(in.w, seed, op.journal_dir);
    const std::uint64_t allocs0 = allocation_count();
    const Usage u0 = usage_now();
    const auto run_start = Clock::now();
    op.report = hpfc::runtime::run_parallel(compiled->program,
                                            compiled->analysis, compiled->code,
                                            options);
    const auto run_end = Clock::now();
    const Usage u1 = usage_now();
    op.allocs = allocation_count() - allocs0;
    op.minor_faults = u1.minor_faults - u0.minor_faults;
    op.sys_ms = u1.sys_ms - u0.sys_ms;
    if (in.w.checkpoint) {
      const auto r0 = Clock::now();
      op.restored = hpfc::persist::restore(op.journal_dir);
      tracer_.span("restore", "persist", r0, Clock::now(),
                   Args().add("phase", phase).str());
    }
    const auto end = Clock::now();
    op.wall_ms = ms_between(start, end);
    record_run_span(run_start, run_end, op, phase);
    if (std::strcmp(phase, "op") == 0)
      tracer_.span("op", "bench", start, end,
                   Args().add("seed", static_cast<double>(seed)).str());
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  return op;
}

std::string Bench::check_journal(const Instance& in, std::size_t k,
                                 const std::string& journal_dir,
                                 const RunReport& report,
                                 const hpfc::persist::RestoredStore& store) {
  const auto sealed = hpfc::persist::sealed_epochs(journal_dir);
  const auto size = std::filesystem::file_size(journal_dir + "/journal");
  return check_restore(store, sealed, report.snapshot_bytes, size,
                       refs_.expected[k].final_layout, in.array_ids);
}

std::string Bench::check_op(const Instance& in, std::size_t k,
                            const OpSample& op) {
  const auto start = Clock::now();
  const RunReport& r = op.report;
  const RunReport& oracle = refs_.oracle[k];
  std::string why = check_run(observe(r), oracle.signature, oracle.reads,
                              oracle.writes,
                              in.w.model_counts ? &refs_.expected[k] : nullptr);
  if (why.empty() && in.w.checkpoint)
    why = check_journal(in, k, op.journal_dir, r, op.restored);
  tracer_.span("check", "check", start, Clock::now());
  return why;
}

void Bench::settle(const Instance& in, std::size_t k, OpSample& op) {
  ++attempted_;
  std::string why = op.error;
  if (why.empty()) {
    try {
      why = check_op(in, k, op);
    } catch (const std::exception& e) {
      why = e.what();
    }
  }
  op.restored = {};
  if (!why.empty())
    fail(in.w.name + " op " + std::to_string(attempted_) + ": " + why);
}

/// Layer probes outside the timed loop: ownership runs of every layout
/// the workload uses (mapping), and process-backend start-up and ping
/// round trips (exec).
void Bench::probe_layers(const Instance& in) {
  const auto& analysis = in.compiled->analysis;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t runs = 0;
    std::uint64_t elements = 0;
    const auto t0 = Clock::now();
    for (const auto& table : analysis.versions) {
      for (int v = 0; v < table.size(); ++v) {
        const auto& layout = table.layout(v);
        for (int r = 0; r < layout.ranks(); ++r)
          layout.for_each_owned_run(r, [&](const hpfc::mapping::OwnedRun& run) {
            ++runs;
            elements += static_cast<std::uint64_t>(run.len);
          });
      }
    }
    tracer_.span("owned_runs", "mapping", t0, Clock::now(),
                 Args()
                     .add("runs", static_cast<double>(runs))
                     .add("elements", static_cast<double>(elements))
                     .str());
  }
  constexpr int kProbeRanks = 4;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    auto backend =
        hpfc::exec::make_backend(hpfc::exec::BackendKind::Proc, kProbeRanks);
    tracer_.span("backend_start", "exec", t0, Clock::now(),
                 Args().add("ranks", kProbeRanks).str());
    auto& proc = dynamic_cast<hpfc::exec::ProcBackend&>(*backend);
    for (int i = 0; i < 20; ++i) {
      const auto p0 = Clock::now();
      proc.ping(i % kProbeRanks, 1024);
      tracer_.span("ping", "exec", p0, Clock::now(),
                   Args().add("bytes", 1024.0 * sizeof(double)).str());
    }
  }
}

// ---- host reference -------------------------------------------------------

double alu_loop_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return ms_between(t0, Clock::now());
}

double memcpy_loop_ms() {
  constexpr std::size_t kBytes = 32u << 20;
  std::vector<char> a(kBytes, 1), b(kBytes, 2);
  const auto t0 = Clock::now();
  for (int i = 0; i < 8; ++i) {
    std::memcpy(i % 2 == 0 ? b.data() : a.data(),
                i % 2 == 0 ? a.data() : b.data(), kBytes);
  }
  volatile char sink = a[kBytes / 2] + b[kBytes / 3];
  (void)sink;
  return ms_between(t0, Clock::now());
}

/// Allocation- and pointer-heavy, like the compiler's passes: on a shared
/// host this loop swings with cache contention where the ALU loop holds.
double map_loop_ms() {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 10; ++rep) {
    std::map<int, int> m;
    for (int i = 0; i < 20000; ++i) m[(i * 7919) % 100003] = i;
    volatile std::size_t sink = m.size();
    (void)sink;
  }
  return ms_between(t0, Clock::now());
}

void print_host() {
  std::printf(
      "host: {\"nproc\": %ld, \"compiler\": %s, \"build_type\": %s, "
      "\"alu_loop_ms\": %s, \"memcpy_loop_ms\": %s, \"map_loop_ms\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), quoted(__VERSION__).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), num(alu_loop_ms()).c_str(),
      num(memcpy_loop_ms()).c_str(), num(map_loop_ms()).c_str());
}

void Bench::post_checks(const Instance& in) {
  // O2 <= O1 <= O0 on this source, and the pass-by-pass O2 compile equal
  // to driver::compile_source's.
  std::uint64_t copies[3];
  std::uint64_t elements[3];
  std::string o2_text;
  const hpfc::driver::OptLevel levels[] = {hpfc::driver::OptLevel::O0,
                                           hpfc::driver::OptLevel::O1,
                                           hpfc::driver::OptLevel::O2};
  for (int l = 0; l < 3; ++l) {
    hpfc::DiagnosticEngine diags;
    const auto c = hpfc::driver::compile_source(
        in.source, hpfc::driver::CompileOptions{levels[l], false}, diags);
    if (!c.ok) throw std::runtime_error("compile_source failed");
    std::uint64_t cs = 0, es = 0;
    for (const unsigned seed : in.w.round_seeds) {
      RunOptions o = options_for(in.w, seed, "");
      o.backend = hpfc::exec::BackendKind::Seq;
      const RunReport r = hpfc::driver::run(c, o);
      cs += static_cast<std::uint64_t>(r.copies_performed);
      es += r.elements_copied;
    }
    copies[l] = cs;
    elements[l] = es;
    if (l == 2) o2_text = c.code.to_text(c.program);
  }
  std::string why = check_levels(copies, elements);
  if (o2_text != in.compiled->code.to_text(in.compiled->program))
    why += "pass-by-pass O2 code differs from driver::compile_source; ";
  if (!why.empty()) fail(in.w.name + " levels: " + why);

  // Where the op does not checkpoint itself: seal the op's final store
  // once, restore it and check it (journal_mb of this workload).
  if (!in.w.checkpoint) {
    const auto t0 = Clock::now();
    OpSample probe;
    probe.report = hpfc::runtime::run_parallel(
        in.compiled->program, in.compiled->analysis, in.compiled->code,
        options_for(in.w, in.w.round_seeds[0], snapshot_dir_));
    record_run_span(t0, Clock::now(), probe, "check");
    probe_journal_bytes_ = probe.report.snapshot_bytes;
    const auto r0 = Clock::now();
    probe.restored = hpfc::persist::restore(snapshot_dir_);
    tracer_.span("restore", "persist", r0, Clock::now(),
                 Args().add("phase", "check").str());
    const std::string journal_why =
        check_journal(in, 0, snapshot_dir_, probe.report, probe.restored);
    if (!journal_why.empty())
      fail(in.w.name + " checkpoint: " + journal_why);
  }
  if (tracer_.on()) probe_layers(in);
}

int Bench::run() {
  // The benchmark moves to the next CPU before every set-up and every
  // round. Each CPU of a shared host slows and recovers on its own, for
  // about a second at a time, by up to 60% on this code when its caches
  // are warm; starting every op on the next CPU (so with cold private
  // caches) samples all of them evenly and keeps the figures repeatable.
  // The worker processes of a proc-backend op inherit the pin, so the
  // controller and its workers share that one CPU. Spread over every CPU,
  // each superstep waits for the slowest of 9 threads in 5 processes: with
  // 1 to 3 busy processes elsewhere on the machine the op took 30% to 106%
  // longer. On one CPU the op costs the CPU time of all of them, and its
  // median stayed within 85-90 ms with up to three busy processes beside.
  const Workload w = make_workload(cfg_.workload, cfg_.seed);
  const std::vector<int> cpus = allowed_cpus();
  refs_ = make_references(w);
  std::size_t cpu_turn = 0;
  auto next_cpu = [&] {
    if (!cpus.empty()) move_to_cpu(cpus[cpu_turn++ % cpus.size()]);
  };

  // Set-up: generate, compile and run one warm-up round; sampled several
  // times, the last instance runs the loop. Each warm-up op journals into
  // a directory of its own, so all of them can be checked after the timed
  // part.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  Instance in;
  for (int i = 0; i < kSetups; ++i) {
    next_cpu();
    const auto t0 = Clock::now();
    in = set_up();
    std::vector<OpSample> warm_up;
    for (std::size_t k = 0; k < in.w.round_seeds.size(); ++k)
      warm_up.push_back(run_op(in, k, "setup",
                               snapshot_dir_ + "-warm-" + std::to_string(k)));
    const auto t1 = Clock::now();
    tracer_.span("setup", "bench", t0, t1);
    setup_s.push_back(ms_between(t0, t1) / 1e3);
    for (std::size_t k = 0; k < warm_up.size(); ++k)
      settle(in, k, warm_up[k]);
  }

  // The timed closed loop: whole rounds until the run length is spent.
  // Where an op does not compile, each round also times compiles of the
  // source, so compile samples spread over the same stretch of time.
  constexpr int kCompilesPerRound = 4;
  std::vector<OpSample> ops;
  std::vector<double> compile_ms;
  const auto loop_start = Clock::now();
  while (ms_between(loop_start, Clock::now()) < cfg_.seconds * 1e3) {
    next_cpu();
    if (!in.w.compile_in_op)
      for (int i = 0; i < kCompilesPerRound; ++i)
        compile_ms.push_back(
            compile_o2(in.source, tracer_, compile_ids_++).ms);
    for (std::size_t k = 0; k < in.w.round_seeds.size(); ++k) {
      OpSample op = run_op(in, k, "op", snapshot_dir_);
      settle(in, k, op);
      if (!op.error.empty()) continue;
      if (in.w.compile_in_op) compile_ms.push_back(op.compile_ms);
      ops.push_back(std::move(op));
    }
  }
  // host_rss_mb is the peak through set-up and the timed ops; the post-run
  // checks and probes are the benchmark's own work and come after it.
  const long rss_kb = peak_rss_kb();
  if (cfg_.post) post_checks(in);
  std::filesystem::remove_all(snapshot_dir_);
  for (std::size_t k = 0; k < in.w.round_seeds.size(); ++k)
    std::filesystem::remove_all(snapshot_dir_ + "-warm-" + std::to_string(k));
  if (tracer_.on()) tracer_.write(cfg_.trace_out);

  // This part's raw figures; run.py pools the parts of a run.
  std::vector<double> wall;
  double elements = 0, messages = 0, copies = 0, sim_ms = 0, peak = 0;
  double journal = 0;
  for (const OpSample& op : ops) {
    wall.push_back(op.wall_ms);
    elements += static_cast<double>(op.report.elements_copied);
    messages += static_cast<double>(op.report.net.messages);
    copies += op.report.copies_performed;
    sim_ms += op.report.net.sim_time * 1e3;
    peak = std::max(peak, static_cast<double>(op.report.peak_bytes));
    journal += static_cast<double>(op.report.snapshot_bytes);
  }
  for (const std::string& f : failures_)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i != 0 ? "," : "") + num(v[i]);
    return out + "]";
  };
  std::printf(
      "{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"setup_s\": %s, \"op_ms\": %s, \"compile_ms\": %s, \"ops\": %zu, "
      "\"elements\": %s, \"messages\": %s, \"copies\": %s, \"sim_ms\": %s, "
      "\"peak_bytes\": %s, \"rss_kb\": %ld, \"journal_bytes\": %s, "
      "\"probe_journal_bytes\": %s}\n",
      attempted_, failed_, list(setup_s).c_str(), list(wall).c_str(), list(compile_ms).c_str(), ops.size(),
      num(elements).c_str(), num(messages).c_str(), num(copies).c_str(),
      num(sim_ms).c_str(), num(peak).c_str(), rss_kb,
      num(journal).c_str(),
      num(static_cast<double>(probe_journal_bytes_)).c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

// ---- checker self-test ------------------------------------------------------

/// Feeds the checks a perturbed signature, a count off by one and a
/// truncated journal; each must be reported as a failure.
int selftest(const std::string& scratch) {
  int bad = 0;
  auto expect_failure = [&](const char* what, const std::string& why) {
    std::printf("selftest %-22s %s%s\n", what,
                why.empty() ? "NOT DETECTED" : "detected: ", why.c_str());
    if (why.empty()) ++bad;
  };

  Tracer off(false);
  const Workload w = make_workload("ckpt_restore", 1);
  const auto compiled = compile_o2(w.program.to_hpf(), off, 0).compiled;
  const unsigned seed = w.round_seeds[0];
  RunOptions o;
  o.ranks = w.ranks;
  o.seed = seed;
  o.snapshot_dir = scratch + "/selftest";
  const RunReport oracle = hpfc::driver::run_oracle(*compiled, o);
  const RunReport run = hpfc::driver::run(*compiled, o);
  const Expected expected = model_run(w.program, seed);
  const Observed obs = observe(run);
  std::map<std::string, int> ids;
  for (const Array& a : w.program.arrays)
    ids[a.name] = compiled->program.find_array(a.name);
  const std::string journal = o.snapshot_dir + "/journal";
  auto restore_check = [&]() {
    try {
      return check_restore(hpfc::persist::restore(o.snapshot_dir),
                           hpfc::persist::sealed_epochs(o.snapshot_dir),
                           run.snapshot_bytes,
                           std::filesystem::file_size(journal),
                           expected.final_layout, ids);
    } catch (const std::exception& e) {
      return std::string("restore threw: ") + e.what();
    }
  };

  // The unperturbed run must pass, or the self-test proves nothing.
  const std::string clean = check_run(obs, oracle.signature, oracle.reads,
                                      oracle.writes, &expected) +
                            restore_check();
  std::printf("selftest %-22s %s\n", "clean run",
              clean.empty() ? "passes" : clean.c_str());
  if (!clean.empty()) ++bad;

  Observed perturbed = obs;
  perturbed.signature ^= 1;
  expect_failure("perturbed signature",
                 check_run(perturbed, oracle.signature, oracle.reads,
                           oracle.writes, &expected));
  for (std::uint64_t Observed::*count :
       {&Observed::copies, &Observed::elements, &Observed::remote_messages,
        &Observed::live_reuses}) {
    Observed off_by_one = obs;
    off_by_one.*count += 1;
    expect_failure("count off by one",
                   check_run(off_by_one, oracle.signature, oracle.reads,
                             oracle.writes, &expected));
  }
  // Truncated to an earlier seal with no manifest left, restore recovers
  // that epoch without error; the checks must still notice the loss.
  const auto full = std::filesystem::file_size(journal);
  std::filesystem::remove(o.snapshot_dir + "/manifest");
  std::filesystem::resize_file(journal, full / 2);
  expect_failure("truncated journal", restore_check());
  std::filesystem::remove_all(o.snapshot_dir);
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE] [--post]\n"
               "       perfbench_driver --selftest --scratch DIR\n"
               "       perfbench_driver --host\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  bool self = false;
  bool host = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") cfg.workload = value();
      else if (arg == "--seed") cfg.seed = std::stoull(value());
      else if (arg == "--seconds") cfg.seconds = std::stod(value());
      else if (arg == "--trace") cfg.trace = value() != "0";
      else if (arg == "--scratch") cfg.scratch = value();
      else if (arg == "--trace-out") cfg.trace_out = value();
      else if (arg == "--post") cfg.post = true;
      else if (arg == "--selftest") self = true;
      else if (arg == "--host") host = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
  }
  try {
    if (host) {
      print_host();
      return 0;
    }
    if (cfg.scratch.empty()) return usage();
    if (self) return selftest(cfg.scratch);
    if (cfg.workload.empty() || cfg.seconds <= 0) return usage();
    if (cfg.trace && cfg.trace_out.empty())
      cfg.trace_out = cfg.scratch + "/trace.json";
    count_allocations(cfg.trace);
    return Bench(cfg).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
