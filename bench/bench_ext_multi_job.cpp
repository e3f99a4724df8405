// Extension: multi-job batches — the regime the paper frames but does
// not measure (§I contrasts Spark's FIFO and Fair schedulers; §III-A2
// motivates the heuristic with multi-tenant clusters).
//
// A mixed batch (one CPU-intensive, one mixed, one I/O-intensive job)
// runs under every scheduler; we report per-job completion times, the
// batch makespan, and mean JCT — the classic makespan-vs-fairness
// trade-off, plus what Dagon's pv ordering does to it.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "workloads/batch.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Extension — multi-job scheduling (FIFO vs Fair vs CP vs Graphene "
      "vs Dagon)",
      "beyond the paper: Dagon's priority values extend naturally across "
      "job boundaries, trading a little fairness for batch makespan");

  const BatchWorkload batch = merge_workloads({
      make_workload(WorkloadId::LogisticRegression, WorkloadScale{1.0}),
      make_workload(WorkloadId::KMeans, WorkloadScale{0.5}),
      make_workload(WorkloadId::ConnectedComponent, WorkloadScale{1.0}),
  });
  std::cout << "batch: " << batch.combined.name << " ("
            << batch.combined.dag.num_stages() << " stages, "
            << batch.combined.dag.total_tasks() << " tasks)\n\n";

  CsvWriter csv(bench::csv_path("ext_multi_job"),
                {"scheduler", "job", "first_launch_sec", "jct_sec"});

  TextTable t({"scheduler", "LogReg JCT", "KMeans JCT", "CC JCT",
               "makespan", "mean JCT"});
  for (const SchedulerKind kind :
       {SchedulerKind::Fifo, SchedulerKind::Fair, SchedulerKind::CriticalPath,
        SchedulerKind::Graphene, SchedulerKind::Dagon}) {
    SimConfig config = bench::bench_testbed();
    config.scheduler = kind;
    config.cache = kind == SchedulerKind::Dagon ? CachePolicyKind::Lrp
                                                : CachePolicyKind::Lru;
    const RunMetrics m = run_workload(batch.combined, config).metrics;
    const auto done = per_job_completions(batch, m);
    double mean = 0.0;
    std::vector<std::string> row{scheduler_name(kind)};
    for (const JobCompletion& jc : done) {
      row.push_back(TextTable::num(to_seconds(jc.finish), 1));
      mean += to_seconds(jc.finish);
      csv.add_row({scheduler_name(kind), jc.name,
                   TextTable::num(to_seconds(jc.first_launch), 2),
                   TextTable::num(to_seconds(jc.finish), 2)});
    }
    row.push_back(TextTable::num(to_seconds(m.jct), 1));
    row.push_back(
        TextTable::num(mean / static_cast<double>(done.size()), 1));
    t.add_row(row);
  }
  t.print(std::cout);
  std::cout << "\nFIFO serializes jobs (great first-job JCT, terrible "
               "last); Fair\ninterleaves (fair but slow everywhere); "
               "Dagon packs by remaining\nwork — near-best makespan "
               "without Fair's uniform slowdown.\n";
  std::cout << "CSV: " << bench::csv_path("ext_multi_job") << "\n";
  return 0;
}
