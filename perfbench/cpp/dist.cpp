// dist-p4: core::run_distributed on the replicated table, p ranks x 1
// thread. The only path through mpisim's Allgatherv and the S3 global-table
// build; S2 runs across the ranks in parallel, where bulk sketches on one
// thread.
#include <algorithm>

#include "common.hpp"
#include "core/distributed.hpp"
#include "core/engine.hpp"
#include "core/index_serde.hpp"
#include "eval/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace jem;

namespace {

/// max / mean of one stage over the ranks.
template <typename Field>
double imbalance(const core::DistributedStepReport& report, Field field) {
  double max = 0.0;
  double sum = 0.0;
  for (const core::RankStageTimes& rank : report.per_rank) {
    max = std::max(max, field(rank));
    sum += field(rank);
  }
  return sum > 0.0 ? max * static_cast<double>(report.per_rank.size()) / sum
                   : 0.0;
}

}  // namespace

void run_dist(const Options& options, Report& report) {
  const core::ServiceConfig config = service_config();
  const core::MapParams& params = config.params;
  const int ranks = kThreads;

  // Set-up, repeated: generate the dataset, then one warm-up distributed
  // run. Only the first repetition meets a fresh process's slow start of
  // 4-thread work (bulk's core.engine.cold_pass_s); the median leaves it out.
  std::vector<double> rep_s;
  std::vector<double> warmup_s;
  sim::Dataset dataset;
  core::DistributedResult warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    warm = {};
    dataset = {};  // one dataset in memory at a time
    dataset = make_dataset(options.seed);
    const auto warm_start = Clock::now();
    warm = core::run_distributed(dataset.contigs.contigs, dataset.reads.reads,
                                 params, ranks, config.scheme);
    warmup_s.push_back(since(warm_start));
    rep_s.push_back(since(start));
    release_free_memory();
  }
  const io::SequenceSet& contigs = dataset.contigs.contigs;
  const io::SequenceSet& reads = dataset.reads.reads;

  // Verification reference, before the timed phase: the 4-thread
  // MappingEngine::run (the path bulk checks against serial map_reads).
  // Each run is then checked as it finishes and its mappings dropped, and
  // the engine is gone before the first timed run.
  const std::string index_path = options.workdir + "/index.jemidx";
  std::vector<core::SegmentMapping> reference;
  {
    const core::MappingEngine engine(contigs, params, config.scheme);
    core::MapRequest request;
    request.backend = core::MapBackend::kPool;
    request.threads = static_cast<std::size_t>(kThreads);
    reference = engine.run(reads, request).mappings;
    core::save_index(index_path, engine.mapper().table(), params,
                     config.scheme, contigs);
    if (options.trace) {
      const std::vector<std::string_view> sample = sample_end_segments(
          reads, params.segment_length, 512, options.seed ^ 0x6b65726eULL);
      probe_kernel(engine.mapper(), sample, report);
    }
  }
  release_free_memory();
  const auto check = [&](const core::DistributedResult& result,
                         const std::string& what) {
    report.attempted += result.mappings.size();
    const std::uint64_t bad = mismatches(result.mappings, reference);
    if (bad != 0) {
      report.fail(bad, what + ": " + std::to_string(bad) +
                           " mappings differ from MappingEngine::run");
    }
    if (!result.report.failed_ranks.empty()) {
      report.fail(1, what + ": a rank failed");
    }
  };
  check(warm, "warm-up run_distributed");

  // Timed phase: repeated runs, each from a reset peak-RSS mark. A traced
  // run alternates plain runs with runs that publish into a metrics
  // registry and a tracer.
  struct Run {
    bool traced = false;
    double wall_s = 0.0;
    double peak_rss_mb = 0.0;
    core::DistributedStepReport report;
  };
  std::vector<Run> runs;
  obs::Registry registry;
  obs::Tracer tracer(1 << 12, "perfbench");
  const auto timed_start = Clock::now();
  while (runs.size() < 3 || since(timed_start) < options.seconds) {
    Run run;
    run.traced = options.trace && runs.size() % 2 == 1;
    obs::ObsHooks hooks;
    if (run.traced) {
      hooks.metrics = &registry;
      hooks.tracer = &tracer;
    }
    reset_peak_rss();
    const auto start = Clock::now();
    core::DistributedResult result = core::run_distributed(
        contigs, reads, params, ranks, config.scheme, 1, {}, {}, hooks);
    run.wall_s = since(start);
    run.peak_rss_mb = run_peak_rss_mb();
    check(result, "run_distributed");
    run.report = std::move(result.report);
    runs.push_back(std::move(run));
  }
  const double timed_s = since(timed_start);

  // Index artifact round trip: the same measurement as bulk's
  // index_load_s (the distributed path loads no artifact).
  std::vector<double> load_s;
  time_index_loads(index_path, contigs, config, 12, load_s, report);

  const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  const eval::QualityCounts quality = eval::evaluate(warm.mappings, truth);

  std::vector<double> wall_s;
  std::vector<double> s4_rate;
  std::vector<double> build_s;  // S2 sketch + S3 global-table build
  std::vector<double> peak_rss;
  for (const Run& run : runs) {
    wall_s.push_back(run.wall_s);
    s4_rate.push_back(run.report.query_throughput());
    build_s.push_back(run.report.sketch_subjects_s +
                      run.report.build_global_s);
    peak_rss.push_back(run.peak_rss_mb);
  }
  report.e2e("setup_s", median(rep_s), "s");
  report.e2e("throughput_per_s",
             static_cast<double>(reads.size()) / median(wall_s), "1/s");
  report.e2e("map_seg_per_s", median(s4_rate), "segments/s");
  report.e2e("latency_p50_ms", median(wall_s) * 1e3, "ms");
  report.e2e("index_build_s", median(build_s), "s");
  report.e2e("index_load_s", median(load_s), "s");
  report.e2e("peak_rss_mb", median(peak_rss), "MiB");
  report.e2e("precision", quality.precision(), "ratio");
  report.e2e("recall", quality.recall(), "ratio");
  report.detail["dist.runs"] = static_cast<double>(runs.size());
  report.detail["dist.timed_s"] = timed_s;
  report.detail["dist.warmup_first_s"] = warmup_s.front();
  report.detail["dist.warmup_median_s"] = median(warmup_s);
  report.detail["dist.process_peak_rss_mb"] = peak_rss_mb();
  if (!options.trace) return;

  // --- traced run: per-layer numbers from the DistributedStepReport --------
  const auto medians = [&](auto field) {
    std::vector<double> values;
    for (const Run& run : runs) values.push_back(field(run.report));
    return median(std::move(values));
  };
  using Step = core::DistributedStepReport;
  report.layer("core.distributed.s1_s", medians([](const Step& r) { return r.load_s; }), "s");
  report.layer("core.distributed.s2_sketch_s",
               medians([](const Step& r) { return r.sketch_subjects_s; }), "s");
  report.layer("core.distributed.s3_build_s",
               medians([](const Step& r) { return r.build_global_s; }), "s");
  report.layer("core.distributed.s4_map_s",
               medians([](const Step& r) { return r.map_queries_s; }), "s");
  report.layer("mpisim.communicator.allgather_s",
               medians([](const Step& r) { return r.allgather_s; }), "s");
  report.layer("mpisim.communicator.allgather_bytes", medians([](const Step& r) {
                 const auto site = r.comm.per_site.find("allgatherv");
                 if (site == r.comm.per_site.end()) return 0.0;
                 double bytes = 0.0;
                 for (const std::uint64_t b : site->second.recv_bytes) {
                   bytes += static_cast<double>(b);
                 }
                 return bytes;
               }),
               "bytes");
  report.layer("core.distributed.s2_imbalance", medians([](const Step& r) {
                 return imbalance(r, [](const core::RankStageTimes& t) { return t.sketch_s; });
               }),
               "ratio");
  report.layer("core.distributed.s4_imbalance", medians([](const Step& r) {
                 return imbalance(r, [](const core::RankStageTimes& t) { return t.map_s; });
               }),
               "ratio");

  // Stage sum: S1-S4 (per-stage maxima over ranks) against the wall time.
  std::vector<double> stage_ratio;
  std::vector<double> plain;
  std::vector<double> traced;
  for (const Run& run : runs) {
    stage_ratio.push_back(run.report.total_s() / run.wall_s);
    (run.traced ? traced : plain).push_back(run.wall_s);
  }
  report.layer("trace.stage_sum_ratio", median(stage_ratio), "ratio");
  report.layer("trace.overhead_pct",
               100.0 * (median(traced) - median(plain)) / median(plain), "%");

  probe_index_build(contigs, config, report);
  probe_index_serde(index_path, contigs, config, report);
}

}  // namespace perfbench
