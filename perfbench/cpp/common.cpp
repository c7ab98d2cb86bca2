#include "common.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <stdexcept>

#include "core/end_segments.hpp"

namespace perfbench {

using namespace jem;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // resets VmHWM to the current RSS
  clear_refs.flush();
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the peak RSS mark");
  }
}

double run_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::fail(std::uint64_t count, std::string why) {
  failed += count;
  problems.push_back(std::move(why));
}

sim::Dataset make_dataset(std::uint64_t seed) {
  const sim::DatasetPreset& preset = sim::preset_by_name("Human chr 7");
  const double scale = std::min(
      1.0, static_cast<double>(kCapBp) / static_cast<double>(preset.genome_length));
  return sim::generate_dataset(preset, scale, seed);
}

core::ServiceConfig service_config() { return core::ServiceConfig::make().build(); }

std::uint64_t mismatches(std::span<const core::SegmentMapping> got,
                         std::span<const core::SegmentMapping> want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::uint64_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) ++differing;
  }
  return differing;
}

void time_index_loads(const std::string& path, const io::SequenceSet& subjects,
                      const core::ServiceConfig& config, int count,
                      std::vector<double>& load_s, Report& report) {
  // A load runs on one thread, which the scheduler tends to leave on one
  // vCPU for all of them; on a shared host the vCPUs run at different
  // speeds, so the loads take the vCPUs in turn and the median covers all.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  for (int i = 0; i < count; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    release_free_memory();  // each load starts from a trimmed heap
    const auto start = Clock::now();
    const core::MappingService service =
        core::MappingService::from_index(path, subjects, config);
    load_s.push_back(since(start));
    ++report.attempted;
    if (!service.load_report().loaded_from_artifact) {
      report.fail(1, "index artifact rejected: " +
                         service.load_report().rejection);
    }
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
}

void release_free_memory() { malloc_trim(0); }

std::vector<std::string_view> sample_end_segments(const io::SequenceSet& reads,
                                                  std::uint32_t segment_length,
                                                  std::size_t count,
                                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<io::SeqId> pick_read(
      0, static_cast<io::SeqId>(reads.size() - 1));
  std::vector<std::string_view> sample;
  sample.reserve(count);
  while (sample.size() < count) {
    const io::SeqId read = pick_read(rng);
    const auto segments =
        core::extract_end_segments(read, reads.bases(read), segment_length);
    sample.push_back(segments[rng() % segments.size()].bases);
  }
  return sample;
}

}  // namespace perfbench
