#include "common.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "runtime/toggles.hpp"
#include "support/cli.hpp"

namespace bench_common {

using hpfc::DiagnosticEngine;
using hpfc::hpf::ProgramBuilder;
using hpfc::ir::Intent;
using hpfc::mapping::Alignment;
using hpfc::mapping::AlignTarget;
using hpfc::mapping::DistFormat;
using hpfc::mapping::Extent;
using hpfc::mapping::Shape;

Compiled compile(hpfc::ir::Program program, OptLevel level) {
  DiagnosticEngine diags;
  hpfc::driver::CompileOptions options;
  options.level = level;
  options.validate_theorem1 = true;
  Compiled compiled =
      hpfc::driver::compile(std::move(program), options, diags);
  if (!compiled.ok) {
    std::fprintf(stderr, "benchmark program failed to compile:\n%s\n",
                 diags.to_string().c_str());
    std::abort();
  }
  return compiled;
}

Compiled compile(ProgramBuilder& builder, OptLevel level) {
  DiagnosticEngine diags;
  hpfc::ir::Program program = builder.finish(diags);
  if (diags.has_errors()) {
    std::fprintf(stderr, "benchmark program is ill-formed:\n%s\n",
                 diags.to_string().c_str());
    std::abort();
  }
  return compile(std::move(program), level);
}

RunReport run_checked(const Compiled& compiled, unsigned seed) {
  hpfc::runtime::RunOptions options;
  options.seed = seed;
  return run_checked(compiled, options);
}

RunReport run_checked(const Compiled& compiled,
                      const hpfc::runtime::RunOptions& run_options) {
  const RunReport oracle = hpfc::driver::run_oracle(compiled, run_options);
  const RunReport report = hpfc::driver::run(compiled, run_options);
  if (report.signature != oracle.signature || !report.exported_values_ok) {
    std::fprintf(stderr, "benchmark run diverged from the oracle\n");
    std::abort();
  }
  return report;
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("%-28s %8s %12s %12s %10s %10s %12s\n", "configuration",
              "copies", "elements", "messages", "bytes", "skip-map",
              "sim-time-ms");
}

void row(const std::string& label, const RunReport& report) {
  row(label, metrics_from(/*level=*/"", report));
}

void note(const std::string& text) {
  std::printf("  -> %s\n", text.c_str());
}

// ---- measurement harness ------------------------------------------------

namespace {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void json_escape(std::ostream& os, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c; break;
    }
  }
}

}  // namespace

LevelMetrics metrics_from(const std::string& level, const RunReport& report,
                          double compile_wall_ms, double run_wall_ms) {
  LevelMetrics metrics;
  metrics.level = level;
  metrics.copies_performed = report.copies_performed;
  metrics.elements_copied = report.elements_copied;
  metrics.remote_messages = report.net.messages;
  metrics.remote_bytes = report.net.bytes;
  metrics.pack_segments = report.net.segments;
  metrics.packed_bytes = report.packed_bytes;
  metrics.local_fastpath_copies = report.local_fastpath_copies;
  metrics.supersteps = report.net.supersteps;
  metrics.fused_copies = report.net.fused_copies;
  metrics.plan_cache_hits = report.net.plan_cache_hits;
  metrics.plan_cache_misses = report.net.plan_cache_misses;
  metrics.symbolic_instantiations = report.net.symbolic_instantiations;
  metrics.skipped_status_guard = report.skipped_already_mapped;
  metrics.skipped_live_copy = report.skipped_live_copy;
  metrics.wire_bytes = report.wire_bytes;
  metrics.wire_msgs = report.wire_msgs;
  metrics.proc_spawns = report.proc_spawns;
  metrics.snapshot_bytes = report.snapshot_bytes;
  metrics.snapshot_runs_written = report.snapshot_runs_written;
  metrics.snapshot_ms = report.snapshot_ms;
  metrics.restore_ms = report.restore_ms;
  metrics.sim_time_ms = report.net.sim_time * 1e3;
  metrics.exec_ms = report.exec_ms;
  metrics.pack_ms = report.pack_ms;
  metrics.exchange_ms = report.exchange_ms;
  metrics.unpack_ms = report.unpack_ms;
  metrics.compile_wall_ms = compile_wall_ms;
  metrics.run_wall_ms = run_wall_ms;
  return metrics;
}

void row(const std::string& label, const LevelMetrics& m) {
  std::printf("%-28s %8d %12llu %12llu %10llu %10d %12.3f\n", label.c_str(),
              m.copies_performed,
              static_cast<unsigned long long>(m.elements_copied),
              static_cast<unsigned long long>(m.remote_messages),
              static_cast<unsigned long long>(m.remote_bytes),
              m.skipped_status_guard + m.skipped_live_copy, m.sim_time_ms);
  // Phase-timer snapshot: flushed per level so a wedged later phase still
  // leaves the last completed level's split in the captured output
  // (run_benches quotes it in its timeout diagnostic).
  std::printf("    phases: pack %.3f ms / exchange %.3f ms / unpack %.3f ms\n",
              m.pack_ms, m.exchange_ms, m.unpack_ms);
  std::fflush(stdout);
}

hpfc::runtime::RunOptions default_run_options() {
  hpfc::runtime::RunOptions run;
  run.seed = 7;
  return run;
}

HarnessOptions HarnessOptions::parse(int& argc, char** argv) {
  HarnessOptions options;
  hpfc::support::cli::RunFlags flags;
  flags.options = options.run;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    switch (flags.consume(arg)) {
      case hpfc::support::cli::Parsed::Consumed:
        continue;
      case hpfc::support::cli::Parsed::Error:
        std::fprintf(stderr, "bench: %s\n", flags.error.c_str());
        std::abort();
      case hpfc::support::cli::Parsed::Unrecognized:
        break;
    }
    if (arg == "--list-toggles") {
      std::fputs(hpfc::support::cli::toggle_table().c_str(), stdout);
      std::exit(0);
    } else if (arg.rfind("--json=", 0) == 0) {
      options.json_path = arg.substr(7);
    } else if (arg.rfind("--reps=", 0) == 0) {
      options.reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--warmup=", 0) == 0) {
      options.warmup = std::max(0, std::atoi(arg.c_str() + 9));
    } else if (arg == "--calibrate") {
      options.calibrate = true;
    } else if (arg == "--no-gbench") {
      options.run_google_benchmarks = false;
    } else {
      argv[out++] = argv[i];  // leave unrecognized args for gbench
    }
  }
  argc = out;
  argv[argc] = nullptr;
  options.run = flags.options;
  return options;
}

Harness::Harness(std::string bench_name, HarnessOptions options)
    : bench_name_(std::move(bench_name)), options_(options) {}

FigureRecord& Harness::entry(const std::string& figure,
                             const std::string& config) {
  for (auto& record : records_)
    if (record.figure == figure && record.config == config) return record;
  records_.push_back(FigureRecord{figure, config, {}});
  return records_.back();
}

hpfc::runtime::RunOptions Harness::run_options(unsigned seed) const {
  hpfc::runtime::RunOptions run_options = options_.run;
  if (seed != 0) run_options.seed = seed;
  return run_options;
}

LevelMetrics Harness::measure_level(const Factory& factory, OptLevel level,
                                    unsigned seed) {
  std::vector<double> compile_samples;
  std::vector<double> run_samples;
  std::vector<double> exec_samples;
  std::vector<double> pack_samples;
  std::vector<double> exchange_samples;
  std::vector<double> unpack_samples;
  Compiled compiled;
  RunReport report;
  const hpfc::runtime::RunOptions run_opts = run_options(seed);
  bool oracle_checked = false;
  std::uint64_t oracle_signature = 0;
  for (int rep = 0; rep < options_.warmup + options_.reps; ++rep) {
    const double compile_ms =
        wall_ms([&] { compiled = compile(factory(), level); });
    const double run_ms =
        wall_ms([&] { report = hpfc::driver::run(compiled, run_opts); });
    // Cross-check against the sequential oracle outside the timed
    // region; the simulation is deterministic, so once per level is
    // enough for the reference signature.
    if (!oracle_checked) {
      oracle_signature =
          hpfc::driver::run_oracle(compiled, run_opts).signature;
      oracle_checked = true;
    }
    if (report.signature != oracle_signature || !report.exported_values_ok) {
      std::fprintf(stderr, "benchmark run diverged from the oracle\n");
      std::abort();
    }
    if (rep >= options_.warmup) {
      compile_samples.push_back(compile_ms);
      run_samples.push_back(run_ms);
      exec_samples.push_back(report.exec_ms);
      pack_samples.push_back(report.pack_ms);
      exchange_samples.push_back(report.exchange_ms);
      unpack_samples.push_back(report.unpack_ms);
    }
  }

  LevelMetrics metrics =
      metrics_from(hpfc::driver::to_string(level), report,
                   median(std::move(compile_samples)),
                   median(std::move(run_samples)));
  metrics.exec_ms = median(std::move(exec_samples));
  metrics.pack_ms = median(std::move(pack_samples));
  metrics.exchange_ms = median(std::move(exchange_samples));
  metrics.unpack_ms = median(std::move(unpack_samples));
  return metrics;
}

void Harness::measure(const std::string& figure, const std::string& config,
                      const Factory& factory, std::vector<OptLevel> levels,
                      unsigned seed) {
  if (seed == 0) seed = options_.run.seed;
  FigureRecord& record = entry(figure, config);
  for (const OptLevel level : levels) {
    LevelMetrics metrics = measure_level(factory, level, seed);
    row(config + " " + metrics.level, metrics);
    record.levels.push_back(std::move(metrics));
  }
}

void Harness::record(const std::string& figure, const std::string& config,
                     const std::string& level, const RunReport& report,
                     double compile_wall_ms, double run_wall_ms) {
  entry(figure, config)
      .levels.push_back(
          metrics_from(level, report, compile_wall_ms, run_wall_ms));
}

void Harness::record_metrics(const std::string& figure,
                             const std::string& config, LevelMetrics metrics) {
  entry(figure, config).levels.push_back(std::move(metrics));
}

void Harness::record_timing(const std::string& figure,
                            const std::string& config,
                            const std::string& level, double wall_ms) {
  LevelMetrics metrics;
  metrics.level = level;
  metrics.compile_wall_ms = wall_ms;
  entry(figure, config).levels.push_back(std::move(metrics));
}

bool Harness::write_json() const {
  if (options_.json_path.empty()) return true;
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"hpfc-bench-v1\",\n";
  os << "  \"bench\": \"";
  json_escape(os, bench_name_);
  os << "\",\n";
  os << "  \"reps\": " << options_.reps << ",\n";
  os << "  \"warmup\": " << options_.warmup << ",\n";
  os << "  \"seed\": " << options_.run.seed << ",\n";
  os << "  \"backend\": \"" << hpfc::exec::to_string(options_.run.backend)
     << "\",\n";
  os << "  \"threads\": " << options_.run.threads << ",\n";
  // Registry-driven toggle states (keys are the snake_case registry
  // spellings), so a suite's JSON records exactly which A/B switches
  // shaped its numbers.
  os << "  \"toggles\": {";
  bool first_toggle = true;
  hpfc::runtime::for_each_toggle(
      options_.run, [&](const hpfc::runtime::Toggle& toggle, bool value) {
        os << (first_toggle ? "" : ", ") << '"' << toggle.key
           << "\": " << (value ? "true" : "false");
        first_toggle = false;
      });
  os << "},\n";
  if (options_.calibration.samples > 0) {
    os << "  \"calibration\": {\"latency_s\": " << options_.calibration.latency
       << ", \"inv_bandwidth_s_per_byte\": "
       << options_.calibration.inv_bandwidth
       << ", \"samples\": " << options_.calibration.samples << "},\n";
  }
  os << "  \"figures\": [";
  bool first_figure = true;
  for (const auto& record : records_) {
    os << (first_figure ? "\n" : ",\n");
    first_figure = false;
    os << "    {\"figure\": \"";
    json_escape(os, record.figure);
    os << "\", \"config\": \"";
    json_escape(os, record.config);
    os << "\", \"levels\": [";
    bool first_level = true;
    for (const auto& m : record.levels) {
      os << (first_level ? "\n" : ",\n");
      first_level = false;
      os << "      {\"level\": \"";
      json_escape(os, m.level);
      os << "\", \"copies_performed\": " << m.copies_performed
         << ", \"elements_copied\": " << m.elements_copied
         << ", \"remote_messages\": " << m.remote_messages
         << ", \"remote_bytes\": " << m.remote_bytes
         << ", \"pack_segments\": " << m.pack_segments
         << ", \"packed_bytes\": " << m.packed_bytes
         << ", \"local_fastpath_copies\": " << m.local_fastpath_copies
         << ", \"supersteps\": " << m.supersteps
         << ", \"fused_copies\": " << m.fused_copies
         << ", \"plan_cache_hits\": " << m.plan_cache_hits
         << ", \"plan_cache_misses\": " << m.plan_cache_misses
         << ", \"symbolic_instantiations\": " << m.symbolic_instantiations
         << ", \"host_allocs\": " << m.host_allocs
         << ", \"skipped_status_guard\": " << m.skipped_status_guard
         << ", \"skipped_live_copy\": " << m.skipped_live_copy
         << ", \"wire_bytes\": " << m.wire_bytes
         << ", \"wire_msgs\": " << m.wire_msgs
         << ", \"proc_spawns\": " << m.proc_spawns
         << ", \"snapshot_bytes\": " << m.snapshot_bytes
         << ", \"snapshot_runs_written\": " << m.snapshot_runs_written
         << ", \"snapshot_ms\": " << m.snapshot_ms
         << ", \"restore_ms\": " << m.restore_ms
         << ", \"sim_time_ms\": " << m.sim_time_ms
         << ", \"exec_ms\": " << m.exec_ms
         << ", \"pack_ms\": " << m.pack_ms
         << ", \"exchange_ms\": " << m.exchange_ms
         << ", \"unpack_ms\": " << m.unpack_ms
         << ", \"compile_wall_ms\": " << m.compile_wall_ms
         << ", \"run_wall_ms\": " << m.run_wall_ms << "}";
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";

  std::ofstream out(options_.json_path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n",
                 options_.json_path.c_str());
    return false;
  }
  out << os.str();
  return static_cast<bool>(out);
}

int bench_main(int argc, char** argv, const std::string& bench_name,
               const std::function<void(Harness&)>& body) {
  HarnessOptions options = HarnessOptions::parse(argc, argv);
  if (options.calibrate) {
    try {
      options.calibration = hpfc::exec::calibrate_wire(
          /*ranks=*/4, hpfc::exec::ProcConfig{options.run.proc_tcp,
                                              options.run.proc_timeout_ms});
    } catch (const std::exception& err) {
      std::fprintf(stderr, "bench: calibration failed: %s\n", err.what());
      return 1;
    }
    options.run.cost = options.calibration.cost_model();
    std::printf("calibrated: alpha = %.3f us/msg, beta = %.4f ns/byte "
                "(%d samples)\n",
                options.calibration.latency * 1e6,
                options.calibration.inv_bandwidth * 1e9,
                options.calibration.samples);
  }
  Harness harness(bench_name, options);
  body(harness);
  if (!harness.write_json()) return 1;
  if (options.run_google_benchmarks) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}

// ---- figure factories ---------------------------------------------------

hpfc::ir::Program fig1(Extent n, int procs, bool use_between) {
  ProgramBuilder b("fig1");
  b.procs("P", Shape{procs});
  b.array("B", Shape{n, n});
  b.distribute_array("B", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("A", Shape{n, n});
  b.align_with_array("A", "B");
  b.use({"A", "B"});
  Alignment transpose;
  transpose.per_template_dim = {AlignTarget::axis(1), AlignTarget::axis(0)};
  b.realign_with_array("A", "B", transpose, "1");
  if (use_between) b.use({"A"});
  b.redistribute("B", {DistFormat::cyclic(), DistFormat::collapsed()}, "",
                 "2");
  b.use({"A", "B"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig2(Extent n, int procs) {
  ProgramBuilder b("fig2");
  b.procs("P", Shape{procs});
  b.array("B", Shape{n, n});
  b.distribute_array("B", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("C", Shape{n, n});
  b.align_with_array("C", "B");
  b.use({"C"});
  Alignment transpose;
  transpose.per_template_dim = {AlignTarget::axis(1), AlignTarget::axis(0)};
  b.realign_with_array("C", "B", transpose, "1");
  b.redistribute("B", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "2");
  b.use({"C"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig3(Extent n, int procs, int arrays, int used_after) {
  ProgramBuilder b("fig3");
  b.procs("P", Shape{procs});
  b.tmpl("T", Shape{n});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{n});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  b.use(names);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(std::vector<std::string>(names.begin(), names.begin() + used_after));
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig4(Extent n, int procs) {
  ProgramBuilder b("fig4");
  b.procs("P", Shape{procs});
  b.array("Y", Shape{n});
  b.distribute_array("Y", {DistFormat::block()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{n}, Intent::In, {DistFormat::cyclic()}, "P");
  b.interface("bla");
  b.interface_dummy("X", Shape{n}, Intent::In, {DistFormat::cyclic(4)}, "P");
  b.use({"Y"});
  b.call("foo", {"Y"});
  b.call("foo", {"Y"});
  b.call("bla", {"Y"});
  b.use({"Y"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig10(Extent n, int procs, Extent sweeps) {
  ProgramBuilder b("remap");
  const int side = procs >= 4 ? procs / 2 : procs;
  b.procs("P", Shape{procs});
  b.procs("Q", Shape{side, procs / side});
  b.dummy("A", Shape{n, n}, Intent::InOut);
  b.distribute_array("A", {DistFormat::block(), DistFormat::collapsed()},
                     "P");
  b.array("B", Shape{n, n});
  b.align_with_array("B", "A");
  b.array("C", Shape{n, n});
  b.align_with_array("C", "A");
  b.ref({"A"}, {"B"}, {}, "s0");
  b.begin_if({"B"});
  b.redistribute("A", {DistFormat::cyclic(), DistFormat::collapsed()}, "",
                 "1");
  b.ref({"B"}, {"A"}, {}, "s1");
  b.begin_else();
  b.redistribute("A", {DistFormat::block(), DistFormat::block()}, "Q", "2");
  b.use({"A"}, "s2");
  b.end_if();
  b.begin_loop(sweeps);
  b.redistribute("A", {DistFormat::collapsed(), DistFormat::block()}, "",
                 "3");
  b.ref({"A"}, {"C"}, {}, "s3");
  b.redistribute("A", {DistFormat::block(), DistFormat::collapsed()}, "",
                 "4");
  b.ref({"C"}, {"A"}, {}, "s4");
  b.end_loop();
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig13(Extent n, int procs, bool useless_tail) {
  ProgramBuilder b("fig13");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"}, "s0");
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.def({"A"}, "s1");
  b.begin_else();
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "2");
  b.use({"A"}, "s2");
  b.end_if();
  b.redistribute("A", {DistFormat::block()}, "", "3");
  b.use({"A"}, "s3");
  if (useless_tail) b.redistribute("A", {DistFormat::cyclic()}, "", "4");
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig16(Extent n, int procs, Extent trips) {
  ProgramBuilder b("fig16");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::block()}, "P");
  b.use({"A"});
  b.begin_loop(trips);
  b.redistribute("A", {DistFormat::cyclic()}, "", "1");
  b.use({"A"});
  b.redistribute("A", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use({"A"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig16_multi(Extent n, int procs, int arrays, Extent trips) {
  ProgramBuilder b("fig16multi");
  b.procs("P", Shape{procs});
  b.tmpl("T", Shape{n});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{n});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  b.use(names);
  b.begin_loop(trips);
  b.redistribute("T", {DistFormat::cyclic()}, "", "1");
  b.use(names);
  b.redistribute("T", {DistFormat::block()}, "", "2");
  b.end_loop();
  b.use(names);
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program fig18(Extent n, int procs) {
  ProgramBuilder b("fig18");
  b.procs("P", Shape{procs});
  b.array("A", Shape{n});
  b.distribute_array("A", {DistFormat::cyclic()}, "P");
  b.interface("foo");
  b.interface_dummy("X", Shape{n}, Intent::InOut, {DistFormat::block()}, "P");
  b.use({"A"});
  b.begin_if();
  b.redistribute("A", {DistFormat::cyclic(2)}, "", "1");
  b.use({"A"});
  b.end_if();
  b.call("foo", {"A"});
  b.redistribute("A", {DistFormat::block(static_cast<Extent>(n))}, "", "2");
  b.use({"A"});
  DiagnosticEngine diags;
  return b.finish(diags);
}

hpfc::ir::Program scaling_program(int arrays, int remaps, int filler_refs) {
  ProgramBuilder b("scaling");
  b.procs("P", Shape{4});
  b.tmpl("T", Shape{64});
  b.distribute_template("T", {DistFormat::block()}, "P");
  std::vector<std::string> names;
  for (int i = 0; i < arrays; ++i) {
    names.push_back("A" + std::to_string(i));
    b.array(names.back(), Shape{64});
    b.align(names.back(), "T", Alignment::identity(1));
  }
  const DistFormat formats[] = {DistFormat::cyclic(), DistFormat::block(),
                                DistFormat::cyclic(2), DistFormat::cyclic(3)};
  for (int r = 0; r < remaps; ++r) {
    for (int f = 0; f < filler_refs; ++f)
      b.use({names[static_cast<std::size_t>((r + f) % arrays)]});
    b.redistribute("T", {formats[r % 4]});
    b.use({names[static_cast<std::size_t>(r % arrays)]});
  }
  b.use(names);
  DiagnosticEngine diags;
  return b.finish(diags);
}

}  // namespace bench_common
