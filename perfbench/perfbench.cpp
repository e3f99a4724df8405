// perfbench: the repo benchmark driver (see perfbench/README.md).
//
//   perfbench --workload kmeans-x4|serve-kmeans-8|fanout-1k --seed N
//             --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//             [--git-sha SHA]
//
// Closed loop, one simulation at a time on this thread: simulation i
// uses seed N + i and the loop runs until S seconds have passed and the
// workload's fixed seed prefix is done. Every simulation is checked for
// correctness. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Layers are measured from outside: spans around calls into
// each module's public functions, plus the counters RunMetrics exposes.
// Nothing here changes the simulator.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dagon.hpp"

using namespace dagon;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and span group (the simulation seed),
// kept in memory and written out when the benchmark ends.

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t group = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  void set_group(std::uint64_t group) { group_ = group; }

  void begin(const char* name) {
    if (!enabled_) return;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0,
                      open_.empty() ? -1 : open_.back(), group_});
    open_.push_back(id);
  }

  void end() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  /// Closes every open span (after an exception unwound past them).
  void end_all() {
    while (!open_.empty()) end();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (the span name's prefix before the first '.'):
  /// each span's duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      self[layer] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
    }
    return self;
  }

  /// Writes the spans as Chrome trace events (one process per group).
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": "
          << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"pid\": " << s.group << ", \"tid\": 0, \"args\": {\"id\": "
          << i << ", \"parent\": " << s.parent << "}}"
          << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t group_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Runs `fn` inside span `name`; returns its wall seconds.
template <class Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  tracer.begin(name);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_between(t0, Clock::now());
  tracer.end();
  return s;
}

// ---------------------------------------------------------------------
// Workloads.

/// One simulation's inputs and driver. The driver points into
/// `workload.dag`, so an Instance is never moved once built.
struct Instance {
  Workload workload;
  SimConfig config;
  JobProfile profile;
  std::unique_ptr<SimDriver> driver;
};

struct WorkloadDef {
  std::string name;
  /// Seeds base..base+fixed_seeds-1 feed the simulated metrics and the
  /// fingerprint, so both are a pure function of the base seed.
  int fixed_seeds = 1;
  /// Seeds whose RunMetrics counters feed the traced run's counts.
  int trace_seeds = 1;
  /// Fills workload and config for one seed (the `workloads` layer).
  std::function<void(Instance&, std::uint64_t seed, bool tiny)> make;
};

SimConfig dagon_testbed(std::uint64_t seed) {
  SimConfig config = apply_combo(paper_testbed(), dagon_full());
  config.seed = seed;
  return config;
}

void make_kmeans(Instance& in, double scale, std::uint64_t seed) {
  in.workload = make_workload(WorkloadId::KMeans, WorkloadScale{scale});
  in.config = dagon_testbed(seed);
}

/// 8 KMeans x1 jobs, Poisson arrivals at 2 jobs/s, inter-job fair share
/// and LERC over one shared cache: ~65% effective hits, so the cache is
/// contended and admissions/evictions interleave with reads.
void make_serve(Instance& in, std::uint64_t seed, bool tiny) {
  const int jobs = tiny ? 2 : 8;
  std::vector<Workload> instances;
  for (int j = 0; j < jobs; ++j) {
    Workload w =
        make_workload(WorkloadId::KMeans, WorkloadScale{tiny ? 0.25 : 1.0});
    w.name += "#" + std::to_string(j);
    instances.push_back(std::move(w));
  }
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Poisson;
  spec.rate_per_sec = 2.0;
  spec.seed = seed;
  ServingOptions so;
  so.fair_share = true;
  ServingWorkload sw = make_serving(instances, spec, so);
  in.workload = std::move(sw.batch.combined);
  in.config = dagon_testbed(seed);
  in.config.cache = CachePolicyKind::Lerc;
  in.config.serving = std::move(sw.serving);
}

/// The bench_scale shape: 32 HDFS partitions -> narrow prep (32 tasks)
/// -> shuffle fan of ~100k zero-output tasks on 1,000 executors. Fan
/// tasks are NO_PREF, so the cache and locality code are bypassed and
/// per-event cost dominates. A 32-task narrow `map` stage between prep
/// and fan re-reads prep's cached output, so the cache metrics have a
/// non-zero base here too; it finishes before the fan starts, so no task
/// with a locality preference is pending while the fan runs.
void make_fanout(Instance& in, std::uint64_t seed, bool tiny) {
  constexpr std::int32_t kParents = 32;
  const std::int32_t fan_tasks = tiny ? 1'000 : 100'000;
  JobDagBuilder b("fanout");
  const RddId src = b.input_rdd("src", kParents, 64 * kMiB);
  const StageId prep = b.add_stage({.name = "prep",
                                    .inputs = {{src, DepKind::Narrow}},
                                    .num_tasks = kParents,
                                    .task_cpus = Cpus{1},
                                    .task_duration = 2 * kSec,
                                    .output_bytes_per_partition = 64 * kMiB});
  const StageId map =
      b.add_stage({.name = "map",
                   .inputs = {{b.output_of(prep), DepKind::Narrow}},
                   .num_tasks = kParents,
                   .task_cpus = Cpus{1},
                   .task_duration = 1 * kSec,
                   .output_bytes_per_partition = 64 * kMiB,
                   .cache_output = false});
  b.add_stage({.name = "fan",
               .inputs = {{b.output_of(map), DepKind::Shuffle}},
               .num_tasks = fan_tasks,
               .task_cpus = Cpus{1},
               .task_duration = 5 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false});
  in.workload.name = "fanout";
  in.workload.category = WorkloadCategory::Mixed;
  in.workload.dag = b.build();
  in.config = dagon_testbed(seed);
  in.config.topology.racks = tiny ? 2 : 5;
  in.config.topology.nodes_per_rack = tiny ? 9 : 50;
  in.config.topology.executors_per_node = 4;
  in.config.topology.cores_per_executor = Cpus{4};
  in.config.topology.cache_bytes_per_executor = 256 * kMiB;
  in.config.prefetch_enabled = false;
}

std::vector<WorkloadDef> workload_defs() {
  return {
      {"kmeans-x4", 20, 2,
       [](Instance& in, std::uint64_t seed, bool tiny) {
         make_kmeans(in, tiny ? 0.25 : 4.0, seed);
       }},
      {"serve-kmeans-8", 4, 2, make_serve},
      {"fanout-1k", 10, 3, make_fanout},
  };
}

struct SetupTimes {
  double make_s = 0.0;
  double profile_s = 0.0;
  double construct_s = 0.0;

  [[nodiscard]] double total() const {
    return make_s + profile_s + construct_s;
  }
};

/// Workload generation + profiling + SimDriver construction.
SetupTimes set_up(Instance& in, Tracer& tracer,
                  const std::function<void(Instance&)>& make) {
  SetupTimes t;
  t.make_s = timed(tracer, "workloads.make", [&] { make(in); });
  t.profile_s = timed(tracer, "core.profile",
                      [&] { in.profile = AppProfiler{}.profile(in.workload.dag); });
  t.construct_s = timed(tracer, "sim.construct", [&] {
    in.driver = std::make_unique<SimDriver>(in.workload.dag, in.profile,
                                            in.config);
  });
  return t;
}

// ---------------------------------------------------------------------
// Correctness.

/// Empty when the finished run is correct; otherwise why it is not:
/// unfinished tasks, an FSM breach, or a JCT (whole run, and each
/// serving job) below the critical path through the attempts' actual
/// compute times. That path is a true lower bound: a stage cannot
/// finish before its longest completing attempt ran, and a child
/// launches only after its parents finished.
std::string check_run(const Instance& in, const RunMetrics& m) {
  const JobDag& dag = in.workload.dag;
  if (!in.driver->state().all_finished()) return "stages left unfinished";
  if (m.fsm.any()) return "FSM breach";

  const std::size_t n = dag.num_stages();
  std::vector<std::vector<char>> done(n);
  std::vector<SimTime> longest(n, SimTime{0});
  for (std::size_t s = 0; s < n; ++s) {
    done[s].assign(static_cast<std::size_t>(dag.stages()[s].num_tasks), 0);
  }
  for (const TaskRecord& r : m.tasks) {
    if (r.cancelled || r.failed) continue;
    const auto s = static_cast<std::size_t>(r.stage.value());
    done[s][static_cast<std::size_t>(r.index)] = 1;
    longest[s] = std::max(longest[s], r.compute_time);
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (std::find(done[s].begin(), done[s].end(), 0) != done[s].end()) {
      return "stage " + dag.stages()[s].name + " has an unfinished task";
    }
  }

  std::vector<SimTime> path_end(n, SimTime{0});
  SimTime bound{0};
  for (const StageId id : dag.topological_order()) {
    const auto s = static_cast<std::size_t>(id.value());
    SimTime before{0};
    for (const StageId p : dag.stage(id).parents) {
      before = std::max(before, path_end[static_cast<std::size_t>(p.value())]);
    }
    path_end[s] = before + longest[s];
    bound = std::max(bound, path_end[s]);
  }
  if (m.jct < bound) return "JCT below the critical-path lower bound";
  const auto& jobs = in.config.serving.jobs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SimTime job_bound{0};
    for (const StageId id : jobs[j].stages) {
      job_bound =
          std::max(job_bound, path_end[static_cast<std::size_t>(id.value())]);
    }
    if (j >= m.jobs.size() || m.jobs[j].jct() < job_bound) {
      return "job " + jobs[j].name + " JCT below its critical-path bound";
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Small statistics and output helpers.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string host_json(const std::string& git_sha) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "{\"cpu_model\": \"" + json_escape(cpu) +
         "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": \"" + PERFBENCH_COMPILER +
         "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
         "\", \"git_sha\": \"" + json_escape(git_sha) + "\"}";
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------
// Fresh-process probe: peak RSS of one simulation and its fingerprint,
// which the parent's own run of the same seed must reproduce.

struct ProbeResult {
  bool ok = false;
  std::uint64_t fingerprint = 0;
  long max_rss_kb = 0;
};

ProbeResult run_probe(const WorkloadDef& def, std::uint64_t seed, bool tiny) {
  static_assert(std::is_trivially_copyable_v<ProbeResult>);
  int fd[2];
  if (pipe(fd) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return {};
  }
  if (pid == 0) {
    close(fd[0]);
    ProbeResult r;
    try {
      Tracer off(false);
      Instance in;
      set_up(in, off, [&](Instance& i) { def.make(i, seed, tiny); });
      const RunMetrics m = in.driver->run();
      r.ok = check_run(in, m).empty();
      r.fingerprint = metrics_fingerprint(m);
    } catch (const std::exception&) {
      r.ok = false;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    r.max_rss_kb = usage.ru_maxrss;
    const bool sent = write(fd[1], &r, sizeof r) == sizeof r;
    close(fd[1]);
    _exit(sent ? 0 : 1);
  }
  close(fd[1]);
  ProbeResult r;
  const bool got = read(fd[0], &r, sizeof r) == sizeof r;
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return r;
}

// ---------------------------------------------------------------------
// Runs.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_build/perfbench/out";
  std::string git_sha = "unknown";
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines for the log
};

/// End-to-end metrics, tracing off.
Outcome run_end_to_end(const WorkloadDef& def, const Options& opt) {
  Outcome out;
  const ProbeResult probe = run_probe(def, opt.seed, opt.tiny);
  ++out.attempted;
  if (!probe.ok) ++out.failed;

  Tracer off(false);
  std::vector<double> setups, runs, jcts;
  double run_total_s = 0.0, attempts_total = 0.0;
  double local_hits = 0.0, reads = 0.0, eff_hits = 0.0, eff_reads = 0.0;
  double high_loc = 0.0, launches = 0.0, cpu_util = 0.0;
  std::uint64_t fp_set = 0xcbf29ce484222325ULL;
  const auto loop_start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= def.fixed_seeds &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds) {
      break;
    }
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    const auto make = [&](Instance& x) { def.make(x, seed, opt.tiny); };
    ++out.attempted;
    try {
      Instance in;
      const SetupTimes st = set_up(in, off, make);
      const auto t0 = Clock::now();
      const RunMetrics m = in.driver->run();
      const double run_s = seconds_between(t0, Clock::now());
      const std::string why = check_run(in, m);
      if (!why.empty()) {
        ++out.failed;
        out.notes.push_back("seed " + std::to_string(seed) + ": " + why);
        continue;
      }
      const std::uint64_t fp = metrics_fingerprint(m);
      if (i == 0 && fp != probe.fingerprint) {
        ++out.failed;
        out.notes.push_back("seed " + std::to_string(seed) +
                            ": fingerprint differs from the fresh-process "
                            "run of the same seed");
      }
      setups.push_back(st.total());
      runs.push_back(run_s);
      run_total_s += run_s;
      attempts_total += static_cast<double>(m.tasks.size());
      // Set-up takes milliseconds and host speed drifts over seconds, so
      // extra set-ups (2% of the run's time) are spread over the loop.
      for (double spent = 0.0; spent < 0.02 * run_s;) {
        Instance extra;
        setups.push_back(set_up(extra, off, make).total());
        spent += setups.back();
      }
      if (i < def.fixed_seeds) {
        fp_set = fnv1a(fp_set, fp);
        if (m.jobs.empty()) {
          jcts.push_back(to_seconds(m.jct));
        } else {
          for (const JobStats& j : m.jobs) jcts.push_back(to_seconds(j.jct()));
        }
        local_hits += static_cast<double>(m.cache.local_memory_hits);
        reads += static_cast<double>(m.cache.total_reads);
        eff_hits += static_cast<double>(m.cache.effective_task_hits);
        eff_reads += static_cast<double>(m.cache.effective_task_reads);
        high_loc += static_cast<double>(m.locality_count(Locality::Process) +
                                        m.locality_count(Locality::Node));
        for (const std::int64_t c : m.locality_histogram) {
          launches += static_cast<double>(c);
        }
        cpu_util += m.cpu_utilization();
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back("seed " + std::to_string(seed) + ": threw " +
                          e.what());
    }
  }
  // A floor on set-up samples for short runs.
  for (std::uint64_t k = 0; setups.size() < 101; ++k) {
    Instance in;
    setups.push_back(set_up(in, off, [&](Instance& x) {
                       def.make(x, opt.seed + k, opt.tiny);
                     }).total());
  }

  std::string walls;
  for (const double r : runs) walls += " " + num(r).substr(0, 6);
  out.notes.push_back("run_wall samples [s]:" + walls);
  out.notes.push_back("samples: run_wall n=" + std::to_string(runs.size()) +
                      ", setup n=" + std::to_string(setups.size()) +
                      ", simulated-metric seeds " + std::to_string(opt.seed) +
                      ".." +
                      std::to_string(opt.seed + def.fixed_seeds - 1) +
                      " (jobs n=" + std::to_string(jcts.size()) + ")");
  out.notes.push_back("fingerprint over seeds " + std::to_string(opt.seed) +
                      ".." + std::to_string(opt.seed + def.fixed_seeds - 1) +
                      ": " + hex64(fp_set) + " (first seed " +
                      hex64(probe.fingerprint) + ")");
  const double n = static_cast<double>(def.fixed_seeds);
  out.metrics = {
      {"run_wall_s_p50", median(runs), "s"},
      {"sim_tasks_per_s", ratio(attempts_total, run_total_s), "1/s"},
      {"peak_rss_mb", static_cast<double>(probe.max_rss_kb) / 1024.0, "MB"},
      {"setup_s", median(setups), "s"},
      {"sim_jct_s_p50", percentile(jcts, 50.0), "s"},
      {"sim_jct_s_p90", percentile(jcts, 90.0), "s"},
      {"hit_ratio", ratio(local_hits, reads), "ratio"},
      {"effective_hit_ratio", ratio(eff_hits, eff_reads), "ratio"},
      {"high_locality_frac", ratio(high_loc, launches), "ratio"},
      {"cpu_util", cpu_util / n, "ratio"},
  };
  return out;
}

/// Replays the per-launch calls of a finished run against its driver:
/// JobDag::task_inputs for every launched (stage, index), then
/// BlockManagerMaster::lookup for each of those inputs at the launch's
/// executor, then task_locality_on over a fixed sample of (task,
/// executor) pairs. One span per chunk of launches, not per call: a
/// kmeans-x4 run makes ~15M lookups.
struct ReplayCounts {
  double task_inputs_s = 0.0, lookup_s = 0.0, locality_s = 0.0;
  std::int64_t task_inputs_calls = 0, lookup_calls = 0, locality_calls = 0;
  std::uint64_t sink = 0;
};

void replay(const Instance& in, const RunMetrics& m, std::uint64_t seed,
            Tracer& tracer, ReplayCounts& rc) {
  constexpr std::size_t kChunk = 4096;
  constexpr std::int64_t kLocalitySamples = 20'000;
  const JobDag& dag = in.workload.dag;
  const BlockManagerMaster& master = in.driver->master();
  std::vector<std::vector<TaskInput>> inputs;
  for (std::size_t lo = 0; lo < m.tasks.size(); lo += kChunk) {
    const std::size_t hi = std::min(m.tasks.size(), lo + kChunk);
    inputs.resize(hi - lo);
    rc.task_inputs_s += timed(tracer, "dag.task_inputs", [&] {
      for (std::size_t k = lo; k < hi; ++k) {
        inputs[k - lo] = dag.task_inputs(m.tasks[k].stage, m.tasks[k].index);
      }
    });
    rc.task_inputs_calls += static_cast<std::int64_t>(hi - lo);
    rc.lookup_s += timed(tracer, "cache.lookup", [&] {
      for (std::size_t k = lo; k < hi; ++k) {
        for (const TaskInput& ti : inputs[k - lo]) {
          rc.sink += static_cast<std::uint64_t>(
              master.lookup(ti.block, m.tasks[k].exec).source);
        }
      }
    });
    for (std::size_t k = lo; k < hi; ++k) {
      rc.lookup_calls += static_cast<std::int64_t>(inputs[k - lo].size());
    }
  }
  if (m.tasks.empty()) return;
  Rng rng(seed);
  const auto execs =
      static_cast<std::int64_t>(in.driver->topology().num_executors());
  rc.locality_s += timed(tracer, "sched.locality", [&] {
    for (std::int64_t k = 0; k < kLocalitySamples; ++k) {
      const TaskRecord& r = m.tasks[static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(m.tasks.size())))];
      const ExecutorId exec(static_cast<std::int32_t>(rng.uniform_int(execs)));
      rc.sink += static_cast<std::uint64_t>(task_locality_on(
          dag, master, in.driver->topology(), r.stage, r.index, exec));
    }
  });
  rc.locality_calls += kLocalitySamples;
}

/// Per-layer metrics: a traced run with spans around every call into a
/// layer, alternating with untraced runs of the same seeds for the
/// tracing overhead.
Outcome run_traced(const WorkloadDef& def, const Options& opt) {
  Outcome out;
  Tracer tracer(true);
  Tracer off(false);
  std::vector<double> make_s, profile_s, construct_s, run_s;
  double traced_sim_s = 0.0, untraced_sim_s = 0.0, run_ns = 0.0,
         events_all = 0.0;
  ReplayCounts rc;
  // Counters over the fixed trace-seed prefix, so they repeat exactly.
  std::int64_t sims = 0, events = 0, launches = 0, speculative = 0;
  std::int64_t task_inputs_calls = 0, lookup_calls = 0;
  CacheStats cache;
  std::array<std::int64_t, 5> loc{};
  std::vector<double> waits;
  double fetch = 0.0, compute = 0.0;

  const auto loop_start = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= def.trace_seeds &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds) {
      break;
    }
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(i);
    const auto make = [&](Instance& x) { def.make(x, seed, opt.tiny); };
    out.attempted += 2;
    try {
      {
        Instance in;
        const double setup = set_up(in, off, make).total();
        const auto t0 = Clock::now();
        const RunMetrics m = in.driver->run();
        untraced_sim_s += setup + seconds_between(t0, Clock::now());
        if (!check_run(in, m).empty()) ++out.failed;
      }
      tracer.set_group(seed);
      tracer.begin("bench.simulation");
      Instance in;
      const SetupTimes st = set_up(in, tracer, make);
      RunMetrics m;
      const double r = timed(tracer, "sim.run", [&] { m = in.driver->run(); });
      traced_sim_s += st.total() + r;
      if (!check_run(in, m).empty()) ++out.failed;
      make_s.push_back(st.make_s);
      profile_s.push_back(st.profile_s);
      construct_s.push_back(st.construct_s);
      run_s.push_back(r);
      run_ns += r * 1e9;
      events_all += static_cast<double>(m.sim_events);
      const std::int64_t calls_before = rc.task_inputs_calls;
      const std::int64_t lookups_before = rc.lookup_calls;
      replay(in, m, seed, tracer, rc);
      tracer.end();
      if (i >= def.trace_seeds) continue;
      ++sims;
      task_inputs_calls += rc.task_inputs_calls - calls_before;
      lookup_calls += rc.lookup_calls - lookups_before;
      events += m.sim_events;
      launches += static_cast<std::int64_t>(m.tasks.size());
      const CacheStats& c = m.cache;
      cache.total_reads += c.total_reads;
      cache.local_memory_hits += c.local_memory_hits;
      cache.other_memory_hits += c.other_memory_hits;
      cache.disk_reads += c.disk_reads;
      cache.insertions += c.insertions;
      cache.evictions += c.evictions;
      cache.proactive_evictions += c.proactive_evictions;
      cache.rejected_admissions += c.rejected_admissions;
      for (std::size_t l = 0; l < loc.size(); ++l) {
        loc[l] += m.locality_histogram[l];
      }
      for (const TaskRecord& t : m.tasks) {
        fetch += to_seconds(t.fetch_time);
        compute += to_seconds(t.compute_time);
        if (t.speculative) {
          ++speculative;
          continue;
        }
        const StageRecord& s =
            m.stages[static_cast<std::size_t>(t.stage.value())];
        waits.push_back(to_seconds(t.launch - s.ready_time));
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.notes.push_back("seed " + std::to_string(seed) + ": threw " +
                          e.what());
      tracer.end_all();
    }
  }

  // Scale curve: kmeans-x4's configuration at x1, x2, x4, once each.
  const std::vector<double> scales =
      opt.tiny ? std::vector<double>{0.1, 0.15, 0.25}
               : std::vector<double>{1.0, 2.0, 4.0};
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0, export_s = 0.0;
  tracer.set_group(0);
  tracer.begin("bench.scale_probe");
  try {
    for (const double scale : scales) {
      ++out.attempted;
      Instance in;
      set_up(in, tracer,
             [&](Instance& x) { make_kmeans(x, scale, opt.seed); });
      RunMetrics m;
      const double r = timed(tracer, "sim.run", [&] { m = in.driver->run(); });
      if (!check_run(in, m).empty()) ++out.failed;
      const double x = std::log(static_cast<double>(m.tasks.size()));
      const double y = std::log(r);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
      out.notes.push_back("scale x" + num(scale) + ": " +
                          std::to_string(m.tasks.size()) + " tasks, " +
                          num(r) + " s");
      if (scale == scales.back()) {
        std::filesystem::create_directories(opt.out_dir);
        export_s = timed(tracer, "trace.export", [&] {
          write_chrome_trace(m, in.workload.dag,
                             opt.out_dir + "/kmeans-x4.trace.json");
        });
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.notes.push_back(std::string("scale probe threw ") + e.what());
  }
  tracer.end_all();
  const double k = static_cast<double>(scales.size());
  const double scale_exp = (k * sxy - sx * sy) / (k * sxx - sx * sx);

  const std::string spans_path = opt.out_dir + "/spans-" + def.name + "-seed" +
                                 std::to_string(opt.seed) + ".json";
  tracer.write(spans_path);
  out.notes.push_back("spans: " + std::to_string(tracer.spans().size()) +
                      " written to " + spans_path);

  const double n = std::max<double>(1.0, static_cast<double>(sims));
  const double admissions = static_cast<double>(cache.insertions +
                                                cache.rejected_admissions);
  double loc_total = 0.0;
  for (const std::int64_t c : loc) loc_total += static_cast<double>(c);
  const auto loc_share = [&](Locality l) {
    return ratio(static_cast<double>(loc[static_cast<std::size_t>(l)]),
                 loc_total);
  };
  const auto per_sim = [&](std::int64_t v) {
    return static_cast<double>(v) / n;
  };
  std::map<std::string, double> self = tracer.self_seconds();
  out.metrics = {
      {"workloads.make_s", median(make_s), "s"},
      {"core.profile_s", median(profile_s), "s"},
      {"sim.construct_s", median(construct_s), "s"},
      {"sim.run_s", median(run_s), "s"},
      {"sim.events", per_sim(events), "count"},
      {"sim.ns_per_event", ratio(run_ns, events_all), "ns"},
      {"sim.scale_exp", scale_exp, "exponent"},
      {"dag.task_inputs_ns",
       ratio(rc.task_inputs_s * 1e9,
             static_cast<double>(rc.task_inputs_calls)),
       "ns"},
      {"dag.task_inputs_calls", per_sim(task_inputs_calls), "count"},
      {"cache.lookup_ns",
       ratio(rc.lookup_s * 1e9, static_cast<double>(rc.lookup_calls)), "ns"},
      {"cache.lookup_calls", per_sim(lookup_calls), "count"},
      {"cache.reads", per_sim(cache.total_reads), "count"},
      {"cache.local_hits", per_sim(cache.local_memory_hits), "count"},
      {"cache.remote_hits", per_sim(cache.other_memory_hits), "count"},
      {"cache.disk_reads", per_sim(cache.disk_reads), "count"},
      {"cache.insertions", per_sim(cache.insertions), "count"},
      {"cache.evictions", per_sim(cache.evictions), "count"},
      {"cache.proactive_evictions", per_sim(cache.proactive_evictions),
       "count"},
      {"cache.rejected_admissions", per_sim(cache.rejected_admissions),
       "count"},
      {"cache.admission_reject_ratio",
       ratio(static_cast<double>(cache.rejected_admissions), admissions),
       "ratio"},
      {"sched.locality_ns",
       ratio(rc.locality_s * 1e9, static_cast<double>(rc.locality_calls)),
       "ns"},
      {"sched.launches", per_sim(launches), "count"},
      {"sched.speculative_launches", per_sim(speculative), "count"},
      {"sched.loc_process", loc_share(Locality::Process), "ratio"},
      {"sched.loc_node", loc_share(Locality::Node), "ratio"},
      {"sched.loc_rack", loc_share(Locality::Rack), "ratio"},
      {"sched.loc_any", loc_share(Locality::Any), "ratio"},
      {"sched.loc_nopref", loc_share(Locality::NoPref), "ratio"},
      {"sched.wait_s_p50", percentile(waits, 50.0), "s"},
      {"sched.wait_s_p90", percentile(waits, 90.0), "s"},
      {"cluster.fetch_share", ratio(fetch, fetch + compute), "ratio"},
      {"trace.export_s", export_s, "s"},
      {"trace.overhead_frac", ratio(traced_sim_s, untraced_sim_s) - 1.0,
       "ratio"},
  };
  for (const char* layer :
       {"bench", "workloads", "core", "sim", "dag", "cache", "sched", "trace"}) {
    out.metrics.push_back({std::string(layer) + ".self_s", self[layer], "s"});
  }
  // Printed so the replayed calls' results stay observable.
  out.notes.push_back("replay checksum " + std::to_string(rc.sink));
  return out;
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--out-dir DIR] [--git-sha SHA]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = next();
      } else if (arg == "--git-sha") {
        opt.git_sha = next();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::vector<WorkloadDef> defs = workload_defs();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == opt.workload;
  });
  if (def == defs.end()) usage("unknown workload '" + opt.workload + "'");

  const Outcome out =
      opt.trace ? run_traced(*def, opt) : run_end_to_end(*def, opt);
  const bool correct = out.failed == 0;

  const std::string host = host_json(opt.git_sha);
  std::cout << "host " << host << "\n"
            << "workload " << def->name << " seed " << opt.seed
            << (opt.trace ? " traced" : " untraced") << "\n";
  for (const std::string& note : out.notes) std::cout << "  " << note << "\n";
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %-16s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.attempted) +
      ", \"failed\": " + std::to_string(out.failed) +
      ", \"metrics\": " + metrics_json(out.metrics) + "}";

  std::filesystem::create_directories(opt.out_dir);
  std::ofstream report(opt.out_dir + "/" + def->name + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json");
  report << "{\"host\": " << host << ", \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    report << (i ? ", \"" : "\"") << json_escape(out.notes[i]) << "\"";
  }
  report << "], \"result\": " << result << "}\n";

  std::cout << result << std::endl;
  return 0;
}
