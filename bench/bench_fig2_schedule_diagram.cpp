// Fig. 2 reproduction: resource scheduling diagrams of the Fig. 1 DAG
// on one 16-vCPU executor under FIFO and under the DAG-aware
// (Dagon/Algorithm 1) assignment, as ASCII Gantt charts over
// (time, vCPUs). Both come from SimDriver runs with zero-byte blocks,
// so every fetch costs exactly 0 and task times are the DAG's own.
//
// Paper: FIFO wastes 4 vCPUs in [0,4] and fragments [4,13], finishing at
// 13 min; the DAG-aware schedule overlaps the long S2->S3->S4 chain with
// S1 and finishes at 9 min.
#include <algorithm>

#include "bench_util.hpp"
#include "common/csv.hpp"

using namespace dagon;

namespace {

void draw(const JobDag& dag, const char* label, const RunMetrics& run,
          Cpus capacity, CsvWriter& csv) {
  std::cout << "-- " << label << " (makespan " << format_duration(run.jct)
            << ", idle " << bench::idle_cpu_time(dag, run, capacity) / kMinute
            << " vCPU-min) --\n";

  // One row per vCPU, one column per minute; tasks render as the stage
  // number. Greedy row packing for display only.
  const auto minutes = static_cast<std::size_t>(run.jct / kMinute);
  std::vector<std::string> grid(static_cast<std::size_t>(capacity.count()),
                                std::string(minutes, '.'));
  std::vector<SimTime> row_free(static_cast<std::size_t>(capacity.count()),
                                SimTime{0});
  auto tasks = run.tasks;
  std::sort(tasks.begin(), tasks.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              if (a.launch != b.launch) return a.launch < b.launch;
              return a.stage < b.stage;
            });
  for (const TaskRecord& p : tasks) {
    const Cpus cpus = dag.stage(p.stage).task_cpus;
    // Find `cpus` display rows free at p.launch.
    Cpus needed = cpus;
    for (std::size_t r = 0; r < grid.size() && needed > Cpus{0}; ++r) {
      if (row_free[r] > p.launch) continue;
      for (std::int64_t t = p.launch / kMinute; t < p.finish / kMinute; ++t) {
        grid[r][static_cast<std::size_t>(t)] =
            static_cast<char>('1' + p.stage.value());
      }
      row_free[r] = p.finish;
      --needed;
    }
    csv.add_row({label, std::to_string(p.stage.value() + 1),
                 std::to_string(p.index), std::to_string(p.launch / kMinute),
                 std::to_string(p.finish / kMinute),
                 std::to_string(cpus.count())});
  }
  std::cout << "        minute 0";
  for (std::size_t m = 1; m < minutes; ++m) {
    std::cout << (m % 5 == 0 ? std::to_string(m % 10) : " ");
  }
  std::cout << "\n";
  for (std::size_t r = grid.size(); r-- > 0;) {
    std::cout << "  vCPU " << (r < 9 ? " " : "") << r + 1 << "  "
              << grid[r] << "\n";
  }
  std::cout << "  (digits = stage running on that vCPU; '.' = idle)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Fig. 2 — scheduling stages of the Fig. 1 DAG by two schedulers",
      "FIFO: 4 idle vCPUs in [0,4], fragmentation until 13 min. "
      "DAG-aware: full usage in [0,2], overlap of the long chain, done "
      "at 9 min");

  const Workload w = make_example_dag({.block_bytes = Bytes{0}});
  const Cpus capacity{16};
  const SimConfig pool = single_executor_pool(capacity);
  CsvWriter csv(bench::csv_path("fig2_schedule"),
                {"scheduler", "stage", "task", "start_min", "end_min",
                 "cpus"});

  const RunMetrics fifo = run_system(w, stock_spark(), pool).metrics;
  const RunMetrics dagon = run_system(w, dagon_full(), pool).metrics;
  draw(w.dag, "FIFO (Fig. 2a)", fifo, capacity, csv);
  draw(w.dag, "DAG-aware (Fig. 2b)", dagon, capacity, csv);

  TextTable t({"scheduler", "makespan (min)", "idle vCPU-min",
               "vs lower bound"});
  const SimTime bound = makespan_lower_bound(w.dag, capacity);
  for (const auto& [name, m] :
       {std::pair<const char*, const RunMetrics&>{"FIFO", fifo},
        {"DAG-aware", dagon}}) {
    t.add_row({name, std::to_string(m.jct / kMinute),
               std::to_string(bench::idle_cpu_time(w.dag, m, capacity) /
                              kMinute),
               TextTable::num(static_cast<double>(m.jct.count()) /
                                  static_cast<double>(bound.count()),
                              2) +
                   "x"});
  }
  t.print(std::cout);
  std::cout << "CSV: " << bench::csv_path("fig2_schedule") << "\n";
  return 0;
}
