// Fig. 3 reproduction: effect of spark.locality.wait on the per-stage
// durations of KMeans (18 stages) on the 7-machine case-study cluster
// with HDFS replication 1.
//
// Paper: without delay, stages 0/16 run 15s/13s and iterations ~3s;
// with the default 3s wait, iterations drop to ~0.7s while stage 0
// grows to 27s and stage 16 to 20s. 1.5s and 5s waits also slow the
// scans by ~60% vs no delay.
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "exp/sweep.hpp"

using namespace dagon;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "Fig. 3 — locality wait vs KMeans stage durations (case-study "
      "cluster, rep=1)",
      "iteration stages are ~15x locality-sensitive (0.7s vs 3s); scan "
      "stages 0/16 are insensitive and only get slower when executors "
      "wait");

  KMeansParams params;
  params.iterations = 15;
  const Workload w = make_kmeans(params);

  const std::vector<std::pair<const char*, SimTime>> waits = {
      {"0s", SimTime{0}},
      {"1.5s", 1500 * kMsec},
      {"3s", 3 * kSec},
      {"5s", 5 * kSec}};

  CsvWriter csv(bench::csv_path("fig3_locality_wait"),
                {"wait", "stage", "name", "duration_sec"});

  std::vector<SweepRun> grid;
  for (const auto& [label, wait] : waits) {
    SimConfig config = case_study_cluster();
    config.waits = LocalityWaits::uniform(wait);
    grid.push_back({std::string("wait=") + label, w, config});
  }
  const SweepReport sweep =
      run_sweep(grid, SweepOptions{bench::options().jobs});
  std::vector<RunMetrics> runs;
  for (const RunResult& r : sweep.runs) runs.push_back(r.metrics);

  TextTable t({"stage", "wait=0s", "wait=1.5s", "wait=3s", "wait=5s"});
  for (const Stage& s : w.dag.stages()) {
    std::vector<std::string> row{std::to_string(s.id.value()) + " (" +
                                 s.name + ")"};
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double d = runs[i].stage_duration_sec(s.id);
      row.push_back(TextTable::num(d, 2));
      csv.add_row({waits[i].first, std::to_string(s.id.value()), s.name,
                   TextTable::num(d, 3)});
    }
    t.add_row(row);
  }
  t.print(std::cout);

  TextTable summary({"metric", "wait=0s", "wait=1.5s", "wait=3s",
                     "wait=5s"});
  std::vector<std::string> jct{"job completion time (s)"};
  std::vector<std::string> hiloc{"process+node launches"};
  std::vector<std::string> iters{"mean iteration stage (s)"};
  for (const RunMetrics& m : runs) {
    jct.push_back(bench::seconds(m.jct));
    hiloc.push_back(std::to_string(m.locality_count(Locality::Process) +
                                   m.locality_count(Locality::Node)));
    double sum = 0;
    for (std::int32_t s = 1; s <= 15; ++s) {
      sum += m.stage_duration_sec(StageId(s));
    }
    iters.push_back(TextTable::num(sum / 15.0, 2));
  }
  summary.add_row(iters);
  summary.add_row(jct);
  summary.add_row(hiloc);
  std::cout << "\n";
  summary.print(std::cout);
  std::cout << "CSV: " << bench::csv_path("fig3_locality_wait") << "\n";
  return 0;
}
