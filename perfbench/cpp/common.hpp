// Shared pieces of the repository benchmark: options, the result record
// every workload fills, statistics, the generated dataset and the layer
// probes the traced runs add (layers.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mapper.hpp"
#include "core/service.hpp"
#include "io/sequence_set.hpp"
#include "sim/presets.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed phase
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string workdir;    // scratch files (inputs, TSV, index artifact)
  std::string git_sha = "unknown";
};

/// The dataset: the "Human chr 7" preset capped at this many genome bases.
constexpr std::uint64_t kCapBp = 16'000'000;
/// Engine threads, ranks, server workers and senders.
constexpr int kThreads = 4;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

[[nodiscard]] double since(Clock::time_point start);  // seconds

/// Median (mean of the middle pair for even counts). 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1]. 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] double peak_rss_mb();

/// Resets the process's peak-RSS high-water mark (VmHWM) to its current
/// RSS; throws when the kernel refuses.
void reset_peak_rss();

/// VmHWM since the last reset_peak_rss, in MiB.
[[nodiscard]] double run_peak_rss_mb();

/// Runs `call(i)` for i in [0, items) in rounds until at least three rounds
/// and 0.3 s have passed; returns the median round's ns per call.
template <typename Call>
double per_call_ns(std::size_t items, Call&& call) {
  std::vector<double> rounds;
  const auto start = Clock::now();
  while (rounds.size() < 3 || (since(start) < 0.3 && rounds.size() < 1000)) {
    const auto round_start = Clock::now();
    for (std::size_t i = 0; i < items; ++i) call(i);
    rounds.push_back(since(round_start) * 1e9 / static_cast<double>(items));
  }
  return median(std::move(rounds));
}

/// What one run reports. end_to_end is printed by an untraced run and
/// per_layer by a traced one; detail is printed on an earlier line of both.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, double> detail;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void e2e(const std::string& name, double value, std::string unit) {
    end_to_end[name] = {value, std::move(unit)};
  }
  void layer(const std::string& name, double value, std::string unit) {
    per_layer[name] = {value, std::move(unit)};
  }
  /// Records `count` failed operations and why.
  void fail(std::uint64_t count, std::string why);
};

/// The chr7-class dataset every workload shares, generated from the seed.
[[nodiscard]] jem::sim::Dataset make_dataset(std::uint64_t seed);

/// The paper's default mapping configuration (k=16, w=100, T=30, l=1000).
[[nodiscard]] jem::core::ServiceConfig service_config();

/// Entries of `got` that differ from `want`; every entry when the sizes
/// differ.
[[nodiscard]] std::uint64_t mismatches(
    std::span<const jem::core::SegmentMapping> got,
    std::span<const jem::core::SegmentMapping> want);

/// Reloads the JEMIDX1 artifact at `path` through MappingService::from_index
/// `count` times, each from a trimmed heap as a restarted process would and
/// each pinned to the next allowed CPU in turn, counting a rejected artifact
/// as a failed operation, and appends each load's seconds to `load_s`.
void time_index_loads(const std::string& path,
                      const jem::io::SequenceSet& subjects,
                      const jem::core::ServiceConfig& config, int count,
                      std::vector<double>& load_s, Report& report);

/// Hands freed heap back to the OS so peak RSS tracks live data rather than
/// allocator history.
void release_free_memory();

/// `count` end segments drawn from `reads` by `seed`, in draw order.
[[nodiscard]] std::vector<std::string_view> sample_end_segments(
    const jem::io::SequenceSet& reads, std::uint32_t segment_length,
    std::size_t count, std::uint64_t seed);

// --- layer probes (layers.cpp), run only by traced runs -------------------

/// core kernel: per-call time of minimizer_scan, sketch_by_jem,
/// lookup_many and map_segment on `bodies` with warm scratch on one thread,
/// plus the exact hot-path counts from core.hotpath.*.
void probe_kernel(const jem::core::JemMapper& mapper,
                  std::span<const std::string_view> bodies, Report& report);

/// core index: sketch_subjects and SketchTable::freeze timed separately,
/// plus record_index_size of the result.
void probe_index_build(const jem::io::SequenceSet& subjects,
                       const jem::core::ServiceConfig& config, Report& report);

/// core index: the table's entry count and the flat index's size, computed
/// from its array sizes.
void record_index_size(const jem::core::SketchTable& table, Report& report);

/// core index_serde: median load_index time of the artifact and its size.
void probe_index_serde(const std::string& path,
                       const jem::io::SequenceSet& subjects,
                       const jem::core::ServiceConfig& config, Report& report);

// --- workloads ------------------------------------------------------------

void run_bulk(const Options& options, Report& report);
void run_serve(const Options& options, bool whole_reads, Report& report);
void run_dist(const Options& options, Report& report);

}  // namespace perfbench
