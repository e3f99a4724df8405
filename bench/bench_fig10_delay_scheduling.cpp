// Fig. 10 reproduction: native delay scheduling vs Dagon's
// sensitivity-aware delay scheduling (Algorithm 2) across the suite.
//
// Paper: 24% average JCT improvement; 14% fewer high-locality launches
// for locality-insensitive stages; +12% average CPU utilization.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Fig. 10 — native vs sensitivity-aware delay scheduling",
      "launching low-locality tasks onto idle executors when the stage "
      "is insensitive cuts JCT ~24%, trims needless high-locality "
      "launches ~14%, and lifts utilization ~12%");

  CsvWriter csv(bench::csv_path("fig10_delay_scheduling"),
                {"workload", "delay", "jct_sec", "high_locality_launches",
                 "cpu_util"});

  TextTable t({"workload", "JCT delay [s]", "JCT aware [s]", "delta",
               "hi-loc delay", "hi-loc aware", "util delay",
               "util aware"});
  double sum_native = 0.0;
  double sum_aware = 0.0;

  std::vector<SweepRun> grid;
  for (const WorkloadId id : sparkbench_suite()) {
    const Workload w = make_workload(id, bench::bench_scale());
    for (const DelayKind kind :
         {DelayKind::Native, DelayKind::SensitivityAware}) {
      // Same cluster + Dagon assignment; only the delay policy differs.
      SimConfig config = bench::bench_testbed();
      config.hdfs = case_study_cluster().hdfs;  // rep=1 + skew
      config.scheduler = SchedulerKind::Dagon;
      config.cache = CachePolicyKind::Lrp;
      config.delay = kind;
      grid.push_back({std::string(workload_name(id)) + "/" +
                          delay_kind_name(kind),
                      w, config});
    }
  }
  const SweepReport sweep =
      run_sweep(grid, SweepOptions{bench::options().jobs});

  std::size_t next = 0;
  for (const WorkloadId id : sparkbench_suite()) {
    RunMetrics m[2];
    for (int i = 0; i < 2; ++i) {
      m[i] = sweep.runs[next++].metrics;
      const DelayKind kind =
          i == 0 ? DelayKind::Native : DelayKind::SensitivityAware;
      const std::int64_t hl = m[i].locality_count(Locality::Process) +
                              m[i].locality_count(Locality::Node);
      csv.add_row({workload_name(id), delay_kind_name(kind),
                   TextTable::num(to_seconds(m[i].jct), 2),
                   std::to_string(hl),
                   TextTable::num(m[i].cpu_utilization(), 3)});
    }
    sum_native += to_seconds(m[0].jct);
    sum_aware += to_seconds(m[1].jct);
    const auto hiloc = [](const RunMetrics& r) {
      return r.locality_count(Locality::Process) +
             r.locality_count(Locality::Node);
    };
    t.add_row({workload_name(id), bench::seconds(m[0].jct),
               bench::seconds(m[1].jct),
               bench::delta(to_seconds(m[1].jct), to_seconds(m[0].jct)),
               std::to_string(hiloc(m[0])), std::to_string(hiloc(m[1])),
               TextTable::percent(m[0].cpu_utilization()),
               TextTable::percent(m[1].cpu_utilization())});
  }
  t.add_row({"suite mean", TextTable::num(sum_native / 7.0, 1),
             TextTable::num(sum_aware / 7.0, 1),
             bench::delta(sum_aware, sum_native), "", "", "", ""});
  t.print(std::cout);
  std::cout << "paper: -24% JCT, -14% high-locality launches on "
               "insensitive stages, +12% utilization (suite averages)\n";
  std::cout << "CSV: " << bench::csv_path("fig10_delay_scheduling")
            << "\n";
  std::cout << "sweep: " << sweep.runs.size() << " runs, "
            << TextTable::num(sweep.wall_seconds, 2) << "s wall @ "
            << sweep.jobs << " jobs ("
            << TextTable::num(sweep.runs_per_sec(), 1) << " runs/sec)\n";
  return 0;
}
