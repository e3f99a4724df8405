// Table III reproduction: the step-by-step bookkeeping of Dagon's
// priority-based task assignment (Algorithm 1) on the Fig. 1 DAG with
// one 16-vCPU executor pool, folded over a SimDriver run with zero-byte
// blocks (so every fetch costs exactly 0 and durations are exact).
//
// Paper rows (vCPU-minutes): initial w=(48,36), pv=(52,64), free 16;
// step 1 schedules stage 2 -> w2 24, pv2 52, free 10; step 2 stage 1 ->
// w1 32, pv1 36, free 6; step 3 stage 2 -> w2 12, pv2 40, free 0;
// at t=2 free 12; step 4 stage 2 -> w2 0, pv2 28, free 6.
#include "bench_util.hpp"
#include "common/csv.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Table III — DAG-aware task assignment steps (Fig. 1 DAG, 16 "
      "vCPUs)",
      "Algorithm 1 always schedules the ready stage with the highest "
      "pv_i; the resulting assignment equals Fig. 2(b)");

  const Workload w = make_example_dag({.block_bytes = Bytes{0}});
  const Cpus capacity{16};
  const RunMetrics m =
      run_system(w, dagon_full(), single_executor_pool(capacity)).metrics;

  CsvWriter csv(bench::csv_path("table3_priority_steps"),
                {"step", "minute", "stage", "w1", "pv1", "w2", "pv2", "w3",
                 "pv3", "w4", "pv4", "free"});
  TextTable t({"step", "t(min)", "schedule", "w1", "pv1", "w2", "pv2",
               "w3", "pv3", "w4", "pv4", "free CPUs"});
  for (const AssignmentStep& s : assignment_steps(w.dag, m, capacity)) {
    std::vector<std::string> row{
        std::to_string(s.step), std::to_string(s.time / kMinute),
        "Stage " + std::to_string(s.chosen.value() + 1)};
    std::vector<std::string> csv_row{row[0], row[1], row[2]};
    for (std::size_t i = 0; i < 4; ++i) {
      row.push_back(std::to_string(s.w_after[i] / kMinute));
      row.push_back(std::to_string(s.pv_after[i] / kMinute));
      csv_row.push_back(row[row.size() - 2]);
      csv_row.push_back(row[row.size() - 1]);
    }
    row.push_back(std::to_string(s.free_after.count()));
    csv_row.push_back(row.back());
    t.add_row(row);
    csv.add_row(csv_row);
  }
  t.print(std::cout);
  std::cout << "\nmakespan: " << format_duration(m.jct)
            << " (Fig. 2(b): 9 min)\n"
            << "idle vCPU-time: "
            << bench::idle_cpu_time(w.dag, m, capacity) / kMinute
            << " vCPU-min\n"
            << "CSV: " << bench::csv_path("table3_priority_steps") << "\n";
  return 0;
}
