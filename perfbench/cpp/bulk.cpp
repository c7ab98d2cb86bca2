// bulk: the `jem map --threads 4` path, files in and TSV out.
//
// Timed phase A repeats the whole files->TSV pipeline (io::load_into of the
// contigs and the FASTQ reads, MappingEngine construction, a 4-thread
// end-segment MappingEngine::run, to_mapping_lines + write_mappings). Phase B
// repeats warm MappingEngine::run passes on an engine built during set-up,
// which isolates the map stage (Fig 7b's query throughput).
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/hash_family.hpp"
#include "core/index_serde.hpp"
#include "eval/metrics.hpp"
#include "io/fasta.hpp"
#include "io/mapping_writer.hpp"

namespace perfbench {

using namespace jem;

namespace {

struct Paths {
  std::string contigs;
  std::string reads;
  std::string tsv;
  std::string index;
};

void write_inputs(const sim::Dataset& dataset, const Paths& paths) {
  std::ofstream contigs(paths.contigs, std::ios::binary | std::ios::trunc);
  io::write_fasta(contigs, dataset.contigs.contigs);
  std::ofstream reads(paths.reads, std::ios::binary | std::ios::trunc);
  const io::SequenceSet& set = dataset.reads.reads;
  std::string record;
  for (io::SeqId id = 0; id < set.size(); ++id) {
    record.clear();
    record += '@';
    record += set.name(id);
    record += '\n';
    record += set.bases(id);
    record += "\n+\n";
    record.append(set.length(id), 'I');
    record += '\n';
    reads.write(record.data(), static_cast<std::streamsize>(record.size()));
  }
  contigs.flush();
  reads.flush();
  if (!contigs || !reads) throw std::runtime_error("bulk: cannot write inputs");
}

struct Pass {
  bool traced = false;
  double read_subjects_s = 0.0;
  double read_queries_s = 0.0;
  double sketch_s = 0.0;  // traced passes only
  double freeze_s = 0.0;  // traced passes only
  double build_s = 0.0;
  double map_s = 0.0;
  double write_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;  // VmHWM reached during the pass

  [[nodiscard]] double stage_sum() const {
    return read_subjects_s + read_queries_s + build_s + map_s + write_s;
  }
};

core::MapRequest pool_request() {
  core::MapRequest request;
  request.mode = core::MapMode::kEnds;
  request.backend = core::MapBackend::kPool;
  request.threads = static_cast<std::size_t>(kThreads);
  return request;
}

/// One files->TSV pass; its mappings go to `check` once the TSV is written.
/// A traced pass builds the index through its two public halves
/// (sketch_subjects, SketchTable::freeze) timed separately.
template <typename Check>
Pass files_to_tsv(const Paths& paths, const core::ServiceConfig& config,
                  bool traced, Check&& check) {
  Pass pass;
  pass.traced = traced;
  reset_peak_rss();
  const auto start = Clock::now();
  io::SequenceSet subjects;
  io::load_into(paths.contigs, subjects);
  pass.read_subjects_s = since(start);

  auto stage = Clock::now();
  io::SequenceSet reads;
  io::load_into(paths.reads, reads);
  pass.read_queries_s = since(stage);

  stage = Clock::now();
  std::optional<core::MappingEngine> engine;
  if (traced) {
    const core::HashFamily hashes(config.params.trials, config.params.seed);
    core::SketchTable table = core::sketch_subjects(
        subjects, 0, static_cast<io::SeqId>(subjects.size()), config.params,
        config.scheme, hashes);
    pass.sketch_s = since(stage);
    const auto freeze = Clock::now();
    table.freeze();
    pass.freeze_s = since(freeze);
    engine.emplace(subjects, config.params, config.scheme, std::move(table));
  } else {
    engine.emplace(subjects, config.params, config.scheme);
  }
  pass.build_s = since(stage);

  stage = Clock::now();
  const core::MapReport mapped = engine->run(reads, pool_request());
  pass.map_s = since(stage);

  stage = Clock::now();
  {
    std::ofstream out(paths.tsv, std::ios::binary | std::ios::trunc);
    io::write_mappings(out,
                       engine->mapper().to_mapping_lines(reads, mapped.mappings));
    out.flush();
    if (!out) throw std::runtime_error("bulk: cannot write " + paths.tsv);
  }
  pass.write_s = since(stage);
  pass.wall_s = since(start);
  pass.peak_rss_mb = run_peak_rss_mb();
  check(mapped.mappings, "files->TSV pass");
  return pass;
}

}  // namespace

void run_bulk(const Options& options, Report& report) {
  const core::ServiceConfig config = service_config();
  const core::MapParams& params = config.params;
  const Paths paths{options.workdir + "/contigs.fa",
                    options.workdir + "/reads.fq",
                    options.workdir + "/mappings.tsv",
                    options.workdir + "/index.jemidx"};

  // Set-up: generate the dataset and write the input files, repeated.
  std::vector<double> rep_s;
  sim::Dataset dataset;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    dataset = {};  // one dataset in memory at a time
    dataset = make_dataset(options.seed);
    write_inputs(dataset, paths);
    rep_s.push_back(since(start));
    release_free_memory();
  }
  const io::SequenceSet& contigs = dataset.contigs.contigs;
  const io::SequenceSet& reads = dataset.reads.reads;

  // Warm-up, once per process: the 4-thread engine starts at about 1x in a
  // fresh process, so its first passes run before anything is timed.
  const auto warm_start = Clock::now();
  auto stage = Clock::now();
  const core::MappingEngine engine(contigs, params, config.scheme);
  std::vector<double> build_s{since(stage)};
  const core::MapRequest request = pool_request();
  stage = Clock::now();
  (void)engine.run(reads, request);
  const double cold_pass_s = since(stage);
  for (int i = 0; i < 2; ++i) (void)engine.run(reads, request);
  const double warmup_s = since(warm_start);

  // Verification reference, computed before the timed phase so that every
  // pass is checked as it finishes and its mappings dropped: peak RSS then
  // does not depend on how many passes fit in the timed phase.
  const core::JemMapper& mapper = engine.mapper();
  const std::vector<core::SegmentMapping> reference = mapper.map_reads(reads);
  const auto check = [&](const std::vector<core::SegmentMapping>& got,
                         const std::string& what) {
    report.attempted += got.size();
    const std::uint64_t bad = mismatches(got, reference);
    if (bad != 0) {
      report.fail(bad, what + ": " + std::to_string(bad) +
                           " mappings differ from serial map_reads");
    }
  };

  // Phase A: files -> TSV. A traced run alternates plain and traced passes.
  const auto timed_start = Clock::now();
  std::vector<Pass> passes;
  while (passes.size() < 2 || since(timed_start) < 0.6 * options.seconds) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(files_to_tsv(paths, config, traced, check));
    build_s.push_back(passes.back().build_s);
    release_free_memory();
  }

  // Phase B: warm engine passes for the rest of the timed phase.
  std::vector<double> seg_rate;
  std::vector<double> busy_s;
  std::vector<double> worker_util;
  while (seg_rate.size() < 3 || since(timed_start) < options.seconds) {
    stage = Clock::now();
    const core::MapReport mapped = engine.run(reads, request);
    const double wall = since(stage);
    seg_rate.push_back(static_cast<double>(mapped.mappings.size()) / wall);
    busy_s.push_back(mapped.stats.map_s);
    worker_util.push_back(mapped.stats.map_s / (kThreads * wall));
    check(mapped.mappings, "warm pass");
    release_free_memory();
  }
  const double timed_s = since(timed_start);

  // A segment sample agrees with the pre-overhaul map_segment_reference.
  std::mt19937_64 rng(options.seed ^ 0x5eedULL);
  core::MapScratch scratch(contigs.size());
  for (int i = 0; i < 256; ++i) {
    const core::SegmentMapping& want = reference[rng() % reference.size()];
    const std::string_view segment =
        reads.bases(want.read).substr(want.offset, want.segment_length);
    ++report.attempted;
    if (!(mapper.map_segment_reference(segment, scratch) == want.result)) {
      report.fail(1, "map_segment_reference disagrees on read " +
                         std::to_string(want.read));
    }
  }

  // Index artifact round trip: save once, reload through the service.
  core::save_index(paths.index, mapper.table(), params, config.scheme,
                   contigs);
  std::vector<double> load_s;
  time_index_loads(paths.index, contigs, config, 12, load_s, report);

  const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  const eval::QualityCounts quality = eval::evaluate(reference, truth);

  std::vector<double> wall_s;
  std::vector<double> peak_rss;
  for (const Pass& pass : passes) {
    wall_s.push_back(pass.wall_s);
    peak_rss.push_back(pass.peak_rss_mb);
  }
  const double reads_n = static_cast<double>(reads.size());
  report.e2e("setup_s", median(rep_s) + warmup_s, "s");
  report.e2e("throughput_per_s", reads_n / median(wall_s), "1/s");
  report.e2e("map_seg_per_s", median(seg_rate), "segments/s");
  report.e2e("latency_p50_ms", median(wall_s) * 1e3, "ms");
  report.e2e("index_build_s", median(build_s), "s");
  report.e2e("index_load_s", median(load_s), "s");
  report.e2e("peak_rss_mb", median(peak_rss), "MiB");
  report.e2e("precision", quality.precision(), "ratio");
  report.e2e("recall", quality.recall(), "ratio");
  report.detail["bulk.passes"] = static_cast<double>(passes.size());
  report.detail["bulk.warm_passes"] = static_cast<double>(seg_rate.size());
  report.detail["bulk.timed_s"] = timed_s;
  report.detail["bulk.reads"] = reads_n;
  report.detail["bulk.segments"] = static_cast<double>(reference.size());
  report.detail["bulk.warmup_s"] = warmup_s;
  report.detail["bulk.setup_rep_median_s"] = median(rep_s);
  report.detail["bulk.process_peak_rss_mb"] = peak_rss_mb();
  if (!options.trace) return;

  // --- traced run: per-layer numbers ---------------------------------------
  const auto medians = [&](auto field, bool traced_only) {
    std::vector<double> values;
    for (const Pass& pass : passes) {
      if (!traced_only || pass.traced) values.push_back(field(pass));
    }
    return median(std::move(values));
  };
  const double read_queries_s =
      medians([](const Pass& p) { return p.read_queries_s; }, false);
  report.layer("io.fasta.read_subjects_s",
               medians([](const Pass& p) { return p.read_subjects_s; }, false),
               "s");
  report.layer("io.fasta.read_queries_s", read_queries_s, "s");
  report.layer("io.fasta.read_queries_mb_per_s",
               static_cast<double>(std::filesystem::file_size(paths.reads)) /
                   1e6 / read_queries_s,
               "MB/s");
  report.layer("io.mapping_writer.write_s",
               medians([](const Pass& p) { return p.write_s; }, false), "s");
  report.layer("core.sketch_table.sketch_s",
               medians([](const Pass& p) { return p.sketch_s; }, true), "s");
  report.layer("core.sketch_table.freeze_s",
               medians([](const Pass& p) { return p.freeze_s; }, true), "s");

  // Engine: the same run on kSerial is the single-thread baseline.
  core::MapRequest serial = request;
  serial.backend = core::MapBackend::kSerial;
  stage = Clock::now();
  const core::MapReport serial_run = engine.run(reads, serial);
  const double seg_per_s_1t =
      static_cast<double>(serial_run.mappings.size()) / since(stage);
  check(serial_run.mappings, "kSerial engine pass");
  report.layer("core.engine.seg_per_s_1t", seg_per_s_1t, "segments/s");
  report.layer("core.engine.parallel_eff",
               median(seg_rate) / (kThreads * seg_per_s_1t), "ratio");
  report.layer("core.engine.busy_s", median(busy_s), "s");
  report.layer("core.engine.worker_util", median(worker_util), "ratio");
  report.layer("core.engine.cold_pass_s", cold_pass_s, "s");

  record_index_size(mapper.table(), report);
  probe_index_serde(paths.index, contigs, config, report);
  const std::vector<std::string_view> sample = sample_end_segments(
      reads, params.segment_length, 512, options.seed ^ 0x6b65726eULL);
  probe_kernel(mapper, sample, report);

  // Stage sums: files->TSV stages against the pass wall, and the kernel's
  // per-segment time against the engine's summed busy time.
  std::vector<double> stage_ratio;
  for (const Pass& pass : passes) stage_ratio.push_back(pass.stage_sum() / pass.wall_s);
  report.layer("trace.stage_sum_ratio", median(stage_ratio), "ratio");
  const double kernel_s = report.per_layer["core.mapper.map_segment_ns"].value *
                          static_cast<double>(reference.size()) * 1e-9;
  report.layer("trace.kernel_busy_ratio", kernel_s / median(busy_s), "ratio");
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  for (const Pass& pass : passes) {
    (pass.traced ? traced_walls : plain_walls).push_back(pass.wall_s);
  }
  const double untraced = median(plain_walls);
  report.layer("trace.overhead_pct",
               100.0 * (median(traced_walls) - untraced) / untraced, "%");
}

}  // namespace perfbench
