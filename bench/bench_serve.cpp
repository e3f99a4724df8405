// Serving contention bench: LRU / LRC / MRD / LERC under a multi-job
// arrival stream sharing one undersized cache (BENCH_serve.json).
//
// Each arriving job is a small ETL pipeline over one shared input
// dataset:
//
//   ds (shared, cached HDFS input)
//     |--narrow--> a (cacheable)   --+
//     |--narrow--> b (cacheable)   --+--narrow--> join (reads a AND b)
//                                    +--narrow--> agg  (reads a AND b)
//
// join/agg tasks read BOTH intermediate blocks of their partition, so
// every consumer has a two-block peer group: a cache hit is only
// *effective* if a[p] and b[p] are memory-resident together (LERC,
// arXiv:1708.07941). The per-executor cache is sized well below the
// concurrent jobs' aggregate working set, so plain reference counting
// (LRC) strands half-groups while LERC concentrates memory on complete
// groups.
//
// Grid: cache policy x Poisson arrival rate (light / moderate / heavy),
// a few seeds per point. Reported per point: per-job JCT p50/p95,
// effective cache-hit ratio, raw hit ratio, and the Jain fairness index
// over per-job JCTs. The heavy rate is the "contended preset": the run
// asserts LERC >= LRC on effective hit ratio there (full mode).
//
// --quick shrinks the grid to one rate and asserts the serving
// invariants only: every job quiesced (finished >= submitted) and the
// per-job effective-read accounting sums to the aggregate counters.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace dagon;

namespace {

constexpr std::int32_t kParts = 16;
constexpr Bytes kBlockBytes = 8 * kMiB;

/// One serving job: two cacheable intermediates consumed pairwise by
/// two downstream stages. The input dataset is deliberately
/// non-cacheable so the contention (and the peer groups) live entirely
/// in the intermediates.
Workload make_serve_job() {
  JobDagBuilder b("etl");
  const RddId ds = b.input_rdd("ds", kParts, 32 * kMiB);
  b.set_rdd_cacheable(ds, false);
  const StageId load = b.add_stage({.name = "load",
                                   .inputs = {{ds, DepKind::Narrow}},
                                   .num_tasks = kParts,
                                   .task_cpus = Cpus{1},
                                   .task_duration = 1 * kSec,
                                   .output_bytes_per_partition = kBlockBytes,
                                   .output_name = "a"});
  const StageId feat = b.add_stage({.name = "feat",
                                   .inputs = {{ds, DepKind::Narrow}},
                                   .num_tasks = kParts,
                                   .task_cpus = Cpus{1},
                                   .task_duration = 1 * kSec,
                                   .output_bytes_per_partition = kBlockBytes,
                                   .output_name = "b"});
  const RddId a = b.output_of(load);
  const RddId bb = b.output_of(feat);
  b.add_stage({.name = "join",
               .inputs = {{a, DepKind::Narrow}, {bb, DepKind::Narrow}},
               .num_tasks = kParts,
               .task_cpus = Cpus{1},
               .task_duration = 2 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false});
  b.add_stage({.name = "agg",
               .inputs = {{a, DepKind::Narrow}, {bb, DepKind::Narrow}},
               .num_tasks = kParts,
               .task_cpus = Cpus{1},
               .task_duration = 1 * kSec,
               .output_bytes_per_partition = Bytes{0},
               .cache_output = false});
  Workload w;
  w.name = "etl";
  w.category = WorkloadCategory::Mixed;
  w.dag = b.build();
  return w;
}

SimConfig make_serve_config(CachePolicyKind policy, std::uint64_t seed) {
  SimConfig config = bench::bench_testbed();
  config.cache = policy;
  config.seed = seed;
  // Undersized cache: one job's intermediates (its peer groups) are
  // 2 x 16 x 8 MiB = 256 MiB, so the 72 x 16 MiB = 1.1 GiB pool holds
  // ~4 complete groups while the heavy rate keeps ~8 jobs in flight.
  config.topology.cache_bytes_per_executor = 16 * kMiB;
  config.prefetch_enabled = false;
  return config;
}

struct ServePoint {
  CachePolicyKind policy = CachePolicyKind::Lru;
  double rate_per_sec = 0.0;
  std::int32_t jobs = 0;
  std::vector<double> jct_sec;  // across all seeds' jobs
  double jct_p50 = 0.0;
  double jct_p95 = 0.0;
  double effective_hit_ratio = 0.0;
  double hit_ratio = 0.0;
  double jain = 0.0;
  std::int64_t proactive_evictions = 0;
  std::uint64_t fingerprint = 0;  // first seed's run
};

double percentile(std::vector<double> v, double p) {
  DAGON_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  // dagonlint: allow(narrowing-cast): report-only percentile rank, not a unit quantity
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double jain_index(const std::vector<double>& v) {
  double sum = 0.0, sq = 0.0;
  for (double x : v) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(v.size()) * sq);
}

/// Runs one (policy, rate) cell across `seeds` and pools the per-job
/// samples. Asserts the serving invariants on every run.
ServePoint run_point(CachePolicyKind policy, double rate, std::int32_t jobs,
                     const std::vector<std::uint64_t>& seeds) {
  ServePoint out;
  out.policy = policy;
  out.rate_per_sec = rate;
  out.jobs = jobs;
  std::int64_t eff_reads = 0, eff_hits = 0, reads = 0, hits = 0;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    std::vector<Workload> instances;
    instances.reserve(static_cast<std::size_t>(jobs));
    for (std::int32_t j = 0; j < jobs; ++j) {
      Workload w = make_serve_job();
      w.name.append("#").append(std::to_string(j));
      instances.push_back(std::move(w));
    }
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.rate_per_sec = rate;
    spec.seed = seeds[si];
    ServingOptions so;
    so.fair_share = true;
    ServingWorkload sw = make_serving(instances, spec, so);
    SimConfig config = make_serve_config(policy, seeds[si]);
    config.serving = sw.serving;

    const RunResult result = run_workload(sw.batch.combined, config);
    const RunMetrics& m = result.metrics;
    if (si == 0) out.fingerprint = metrics_fingerprint(m);

    // Serving invariants: every job quiesced, and the per-job
    // effective-read accounting sums to the aggregate counters.
    DAGON_CHECK_MSG(m.jobs.size() == static_cast<std::size_t>(jobs),
                    "per-job stats missing");
    std::int64_t job_reads = 0, job_hits = 0;
    for (const JobStats& j : m.jobs) {
      DAGON_CHECK_MSG(j.finished >= j.submitted,
                      "job '" << j.name << "' did not quiesce");
      DAGON_CHECK_MSG(j.effective_task_hits <= j.effective_task_reads,
                      "job '" << j.name << "' hits exceed reads");
      job_reads += j.effective_task_reads;
      job_hits += j.effective_task_hits;
      out.jct_sec.push_back(to_seconds(j.jct()));
    }
    DAGON_CHECK_MSG(job_reads == m.cache.effective_task_reads &&
                        job_hits == m.cache.effective_task_hits,
                    "per-job effective counters do not sum to aggregate");
    eff_reads += m.cache.effective_task_reads;
    eff_hits += m.cache.effective_task_hits;
    reads += m.cache.total_reads;
    hits += m.cache.local_memory_hits;
    out.proactive_evictions += m.cache.proactive_evictions;
  }
  out.jct_p50 = percentile(out.jct_sec, 50.0);
  out.jct_p95 = percentile(out.jct_sec, 95.0);
  out.effective_hit_ratio =
      eff_reads > 0 ? static_cast<double>(eff_hits) /
                          static_cast<double>(eff_reads)
                    : 0.0;
  out.hit_ratio = reads > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(reads)
                            : 0.0;
  out.jain = jain_index(out.jct_sec);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::experiment_header(
      "SERVE — multi-job serving contention across cache policies",
      "dependency-aware reference counting only pays off when the cache "
      "is shared across concurrent jobs and hits are effective (all peer "
      "blocks cached together) — LERC, arXiv:1708.07941");

  const std::vector<CachePolicyKind> policies = {
      CachePolicyKind::Lru, CachePolicyKind::Lrc, CachePolicyKind::Mrd,
      CachePolicyKind::Lerc};
  // Arrival intensities: light (jobs mostly serial), moderate, heavy
  // (the contended preset — most of the stream is in flight at once).
  std::vector<double> rates = {0.05, 0.5, 2.0};
  std::int32_t jobs = 8;
  std::vector<std::uint64_t> seeds = {42, 43, 44};
  if (bench::options().quick) {
    rates = {2.0};
    jobs = 4;
    seeds = {42};
  }

  TextTable table({"policy", "rate [jobs/s]", "JCT p50 [s]", "JCT p95 [s]",
                   "eff-hit", "hit", "jain"});
  std::vector<ServePoint> points;
  for (const double rate : rates) {
    for (const CachePolicyKind policy : policies) {
      ServePoint p = run_point(policy, rate, jobs, seeds);
      table.add_row({cache_policy_name(policy), TextTable::num(rate, 2),
                     TextTable::num(p.jct_p50, 1),
                     TextTable::num(p.jct_p95, 1),
                     TextTable::percent(p.effective_hit_ratio),
                     TextTable::percent(p.hit_ratio),
                     TextTable::num(p.jain, 3)});
      points.push_back(std::move(p));
    }
  }
  table.print(std::cout);

  // The contended preset is the headline: coordinated all-or-nothing
  // caching must not lose to plain reference counting there.
  const double heavy = rates.back();
  double lerc_eff = 0.0, lrc_eff = 0.0;
  for (const ServePoint& p : points) {
    if (p.rate_per_sec != heavy) continue;
    if (p.policy == CachePolicyKind::Lerc) lerc_eff = p.effective_hit_ratio;
    if (p.policy == CachePolicyKind::Lrc) lrc_eff = p.effective_hit_ratio;
  }
  std::cout << "\ncontended preset (rate " << TextTable::num(heavy, 2)
            << "/s): LERC eff-hit " << TextTable::percent(lerc_eff)
            << " vs LRC " << TextTable::percent(lrc_eff) << "\n";
  DAGON_CHECK_MSG(lerc_eff >= lrc_eff,
                  "LERC must not lose to LRC on effective hit ratio in "
                  "the contended preset");

  const std::string json_path = bench::out_path("BENCH_serve.json");
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"quick\": " << (bench::options().quick ? "true" : "false")
       << ",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"workload\": \"ds(16x32MiB, shared, uncacheable) ->narrow "
          "{a,b} (cacheable 8MiB blocks) ->narrow join+agg (each reads "
          "a AND b: paired peer groups)\",\n"
       << "  \"jobs_per_run\": " << jobs << ",\n"
       << "  \"seeds\": " << seeds.size() << ",\n"
       << "  \"fair_share\": true,\n"
       << "  \"cache_bytes_per_executor\": " << 16 * kMiB << ",\n"
       << "  \"contended_rate_per_sec\": " << heavy << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ServePoint& p = points[i];
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, p.fingerprint);
    json << "    {\"policy\": \"" << cache_policy_name(p.policy)
         << "\", \"arrival_rate_per_sec\": " << p.rate_per_sec
         << ", \"jobs\": " << p.jobs
         << ", \"jct_p50_sec\": " << p.jct_p50
         << ", \"jct_p95_sec\": " << p.jct_p95
         << ", \"effective_hit_ratio\": " << p.effective_hit_ratio
         << ", \"hit_ratio\": " << p.hit_ratio
         << ", \"jain_fairness\": " << p.jain
         << ", \"proactive_evictions\": " << p.proactive_evictions
         << ", \"fingerprint\": \"" << fp << "\"}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "JSON: " << json_path << "\n";
  return 0;
}
