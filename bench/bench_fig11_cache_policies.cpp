// Fig. 11 reproduction: caching policies under two scheduling modes on
// the I/O-intensive workload set (the MRD paper's workloads).
//
// Paper: (a) MRD beats LRU by ~24% in hit ratio under FIFO but performs
// poorly with Dagon; LRP achieves 11% higher hit ratio than MRD under
// Dagon. (b) Dagon+LRP beats Dagon+MRD by up to 18% in JCT (CC) and
// improves every workload; Dagon+MRD is only marginally better than
// FIFO+MRD because MRD's distances assume FIFO order.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Fig. 11 — caching policies under FIFO and Dagon scheduling "
      "(I/O-intensive set)",
      "coherency matters: MRD pairs with FIFO, LRP pairs with Dagon; "
      "mixing them forfeits most of the caching benefit");

  const auto systems = figure11_systems();
  CsvWriter csv(bench::csv_path("fig11_cache_policies"),
                {"workload", "system", "hit_ratio", "jct_sec",
                 "prefetches", "proactive_evictions"});

  TextTable hits({"workload", "FIFO+LRU", "FIFO+MRD", "Dagon+MRD",
                  "Dagon+LRP"});
  TextTable jct({"workload", "FIFO+LRU", "FIFO+MRD", "Dagon+MRD",
                 "Dagon+LRP", "LRP vs MRD (Dagon)"});
  double lrp_sum = 0.0;
  double mrd_sum = 0.0;

  std::vector<SweepRun> grid;
  for (const WorkloadId id : cache_study_suite()) {
    const Workload w = make_workload(id, bench::bench_scale());
    for (const SystemCombo& combo : systems) {
      grid.push_back({std::string(workload_name(id)) + "/" + combo.label,
                      w, apply_combo(bench::bench_testbed(), combo)});
    }
  }
  const SweepReport sweep =
      run_sweep(grid, SweepOptions{bench::options().jobs});

  std::size_t next = 0;
  for (const WorkloadId id : cache_study_suite()) {
    std::vector<std::string> hit_row{workload_name(id)};
    std::vector<std::string> jct_row{workload_name(id)};
    double dagon_mrd = 0.0;
    double dagon_lrp = 0.0;
    for (const SystemCombo& combo : systems) {
      const RunMetrics& m = sweep.runs[next++].metrics;
      hit_row.push_back(TextTable::percent(m.cache.hit_ratio()));
      jct_row.push_back(TextTable::num(to_seconds(m.jct), 1));
      if (combo.label == "Dagon+MRD") dagon_mrd = to_seconds(m.jct);
      if (combo.label == "Dagon+LRP") dagon_lrp = to_seconds(m.jct);
      csv.add_row({workload_name(id), combo.label,
                   TextTable::num(m.cache.hit_ratio(), 4),
                   TextTable::num(to_seconds(m.jct), 2),
                   std::to_string(m.cache.prefetches),
                   std::to_string(m.cache.proactive_evictions)});
    }
    mrd_sum += dagon_mrd;
    lrp_sum += dagon_lrp;
    jct_row.push_back(bench::delta(dagon_lrp, dagon_mrd));
    hits.add_row(hit_row);
    jct.add_row(jct_row);
  }
  std::cout << "(a) cache hit ratio\n";
  hits.print(std::cout);
  std::cout << "paper: MRD > LRU by ~24% under FIFO; LRP > MRD by ~11% "
               "under Dagon\n\n";
  std::cout << "(b) job completion time [s]\n";
  jct.print(std::cout);
  std::cout << "paper: Dagon+LRP -18% vs Dagon+MRD on CC; our suite "
               "mean: "
            << bench::delta(lrp_sum, mrd_sum) << "\n";
  std::cout << "CSV: " << bench::csv_path("fig11_cache_policies") << "\n";
  std::cout << "sweep: " << sweep.runs.size() << " runs, "
            << TextTable::num(sweep.wall_seconds, 2) << "s wall @ "
            << sweep.jobs << " jobs ("
            << TextTable::num(sweep.runs_per_sec(), 1) << " runs/sec)\n";
  return 0;
}
