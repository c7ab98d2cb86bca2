// Layer probes of the traced runs: each one times calls into a single
// layer's public functions from here, on the workload's own inputs, so the
// end-to-end run carries no tracing at all.
#include <filesystem>

#include "common.hpp"
#include "core/hash_family.hpp"
#include "core/index_serde.hpp"
#include "core/minimizer.hpp"
#include "core/sketch.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace jem;

namespace {

double counter(const obs::MetricsSnapshot& snapshot, std::string_view name) {
  const obs::MetricValue* value = snapshot.find(name);
  return value != nullptr ? static_cast<double>(value->value) : 0.0;
}

}  // namespace

void probe_kernel(const core::JemMapper& mapper,
                  std::span<const std::string_view> bodies, Report& report) {
  const core::MapParams& params = mapper.params();
  const core::MinimizerParams minimizer_params{params.k, params.w,
                                               params.ordering};
  const core::HashFamily& hashes = mapper.hashes();
  const core::FlatSketchIndex& index = mapper.table().flat();
  const std::size_t n = bodies.size();

  // Each stage's inputs, computed once so every stage is timed alone.
  core::SketchScratch scratch;
  std::vector<std::vector<core::Minimizer>> minimizers(n);
  std::vector<core::FlatSketch> sketches(n);
  double minimizer_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    core::minimizer_scan(bodies[i], minimizer_params, scratch.scan,
                         minimizers[i]);
    core::sketch_by_jem(minimizers[i], params.segment_length, hashes, scratch,
                        sketches[i]);
    minimizer_total += static_cast<double>(minimizers[i].size());
  }

  std::uint64_t sink = 0;  // keeps the timed calls observable
  std::vector<core::Minimizer> scanned;
  const double scan_ns = per_call_ns(n, [&](std::size_t i) {
    core::minimizer_scan(bodies[i], minimizer_params, scratch.scan, scanned);
    sink += scanned.size();
  });
  core::FlatSketch sketched;
  const double jem_ns = per_call_ns(n, [&](std::size_t i) {
    core::sketch_by_jem(minimizers[i], params.segment_length, hashes, scratch,
                        sketched);
    sink += sketched.total_entries();
  });
  std::vector<std::span<const io::SeqId>> postings;
  const double probe_ns = per_call_ns(n, [&](std::size_t i) {
    for (int t = 0; t < params.trials; ++t) {
      const std::span<const core::KmerCode> kmers = sketches[i].trial(t);
      postings.resize(kmers.size());
      sink += index.lookup_many(t, kmers, postings);
    }
  });
  core::MapScratch map_scratch(mapper.subjects().size());
  const double map_ns = per_call_ns(n, [&](std::size_t i) {
    sink += mapper.map_segment(bodies[i], map_scratch).votes;
  });

  // Exact counts: sample every segment, publish through core.hotpath.*.
  core::MapScratch counted(mapper.subjects().size());
  counted.hotpath().sample_every = 1;
  for (const std::string_view body : bodies) {
    sink += mapper.map_segment(body, counted).votes;
  }
  obs::Registry registry;
  counted.hotpath().publish(registry);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const double segments = counter(snapshot, "core.hotpath.segments_sampled");
  const double lookups = counter(snapshot, "core.hotpath.kmer_lookups");

  report.layer("core.minimizer.scan_ns", scan_ns, "ns");
  report.layer("core.sketch.jem_ns", jem_ns, "ns");
  report.layer("core.flat_index.probe_ns", probe_ns, "ns");
  report.layer("core.mapper.map_segment_ns", map_ns, "ns");
  report.layer("core.mapper.vote_ns", map_ns - scan_ns - jem_ns - probe_ns,
               "ns");
  const double per_seg = minimizer_total / static_cast<double>(n);
  report.layer("core.mapper.minimizers_per_seg", per_seg, "count");
  report.layer("core.sketch.hash_evals_per_seg", per_seg * params.trials,
               "count");
  report.layer("core.mapper.lookup_hit_ratio",
               counter(snapshot, "core.hotpath.sketch_hits") / lookups,
               "ratio");
  report.layer("core.flat_index.slots_per_lookup",
               counter(snapshot, "core.hotpath.probe_slots") / lookups,
               "count");
  report.layer("core.mapper.candidates_per_seg",
               counter(snapshot, "core.hotpath.candidates") / segments,
               "count");
  report.detail["kernel.sample_items"] = static_cast<double>(n);
  report.detail["kernel.sink"] = static_cast<double>(sink % 1000);
}

void probe_index_build(const io::SequenceSet& subjects,
                       const core::ServiceConfig& config, Report& report) {
  const core::MapParams& params = config.params;
  const core::HashFamily hashes(params.trials, params.seed);
  auto start = Clock::now();
  core::SketchTable table = core::sketch_subjects(
      subjects, 0, static_cast<io::SeqId>(subjects.size()), params,
      config.scheme, hashes);
  report.layer("core.sketch_table.sketch_s", since(start), "s");
  start = Clock::now();
  table.freeze();
  report.layer("core.sketch_table.freeze_s", since(start), "s");
  record_index_size(table, report);
}

void record_index_size(const core::SketchTable& table, Report& report) {
  report.layer("core.sketch_table.entries", static_cast<double>(table.size()),
               "count");
  // Computed from the array sizes (slots, postings, per-trial geometry),
  // not measured from the allocator.
  const core::FlatSketchIndex& flat = table.flat();
  const double bytes =
      static_cast<double>(flat.slots().size_bytes() +
                          flat.subjects().size_bytes() +
                          flat.bases().size_bytes() + flat.masks().size_bytes());
  report.layer("core.flat_index.bytes", bytes, "bytes");
}

void probe_index_serde(const std::string& path, const io::SequenceSet& subjects,
                       const core::ServiceConfig& config, Report& report) {
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    const core::SketchTable table =
        core::load_index(path, config.params, config.scheme, subjects);
    loads.push_back(since(start));
    if (table.size() == 0) report.fail(1, "index_serde: loaded an empty table");
  }
  report.layer("core.index_serde.load_s", median(std::move(loads)), "s");
  report.layer("core.index_serde.bytes",
               static_cast<double>(std::filesystem::file_size(path)), "bytes");
}

}  // namespace perfbench
