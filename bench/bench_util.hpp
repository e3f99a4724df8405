// Shared helpers for the table/figure bench harnesses.
//
// Every bench prints the paper-style rows to stdout and mirrors the
// numbers into a CSV next to the binary so figures can be re-plotted.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/dagon.hpp"

namespace dagon::bench {

/// Options every bench harness shares, set from the command line by
/// parse_args().
struct BenchOptions {
  /// Worker threads for sweep-engine harnesses (1 = serial, 0 = #cores).
  std::size_t jobs = 1;
  /// Directory for CSV/JSON outputs (empty = current directory).
  std::string out_dir;
  /// Shrinks the workload grid / sweep points for CI smoke runs.
  bool quick = false;
};

inline BenchOptions& options() {
  // dagonlint: allow(unguarded-global): written only during single-threaded flag parsing in main; read-only once any pool starts
  static BenchOptions opts;
  return opts;
}

/// Parses a worker count: the whole value must be a non-negative
/// integer. A negative one would wrap to SIZE_MAX workers and garbage
/// would read as 0 (all cores), so both exit 2 instead.
inline std::size_t parse_count(const std::string& flag,
                               const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE || x < 0) {
    std::cerr << "malformed count '" << v << "' for " << flag
              << " (want an integer >= 0)\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(x);
}

/// Parses the shared bench flags (--jobs N, --out-dir DIR, --quick);
/// exits with a usage message on anything unrecognized.
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      options().jobs = parse_count(arg, next());
    } else if (arg == "--out-dir") {
      options().out_dir = next();
    } else if (arg == "--quick") {
      options().quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--jobs N] [--out-dir DIR] [--quick]\n"
                   "  --jobs N      parallel sweep workers (0 = #cores) "
                   "[default 1]\n"
                   "  --out-dir DIR write CSVs/JSON under DIR instead of "
                   "the cwd\n"
                   "  --quick       shrink the grid/sweep for CI smoke "
                   "runs\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument " << arg << " (try --help)\n";
      std::exit(2);
    }
  }
}

/// Joins `filename` onto the configured output directory (creating it
/// on demand) — the fix for CSVs always landing next to the invoker.
inline std::string out_path(const std::string& filename) {
  if (options().out_dir.empty()) return filename;
  std::filesystem::create_directories(options().out_dir);
  return (std::filesystem::path(options().out_dir) / filename).string();
}

/// The host block of a checked-in BENCH_*.json ledger, as one JSON
/// object: CPU model, hardware threads, compiler and build type. The
/// last two are stamped in by bench/CMakeLists.txt.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::erase_if(cpu, [](char c) { return c == '"' || c == '\\'; });
  return "{\"cpu_model\": \"" + cpu + "\", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" DAGON_BENCH_COMPILER
         "\", \"build_type\": \"" DAGON_BENCH_BUILD_TYPE "\"}";
}

/// The benchmark cluster: the paper's 18-node testbed. Workloads run at
/// `kBenchScale` so stages span multiple waves of the 288 vCPUs, as on
/// the real testbed.
inline SimConfig bench_testbed() { return paper_testbed(); }

inline constexpr double kBenchScale = 2.0;

inline WorkloadScale bench_scale() { return WorkloadScale{kBenchScale}; }

/// Prints one experiment header with the reproduction context.
inline void experiment_header(const std::string& id,
                              const std::string& claim) {
  print_banner(std::cout, id);
  std::cout << "paper claim: " << claim << "\n\n";
}

/// CSV path helper; honors --out-dir.
inline std::string csv_path(const std::string& name) {
  return out_path(name + ".csv");
}

inline std::string seconds(SimTime t) { return TextTable::num(to_seconds(t), 1); }

/// Formats a relative change of `now` vs `base` as "-12.3%" / "+4.5%".
inline std::string delta(double now, double base) {
  const double change = now / base - 1.0;
  return (change <= 0 ? "-" : "+") +
         TextTable::percent(std::abs(change));
}

/// Fig. 2's fragmentation: capacity·jct minus the vCPU-time the run's
/// task records actually occupied, on one `capacity`-vCPU pool.
inline CpuWork idle_cpu_time(const JobDag& dag, const RunMetrics& m,
                             Cpus capacity) {
  CpuWork busy{};
  for (const TaskRecord& t : m.tasks) {
    busy += dag.stage(t.stage).task_cpus * (t.finish - t.launch);
  }
  return capacity * m.jct - busy;
}

}  // namespace dagon::bench
