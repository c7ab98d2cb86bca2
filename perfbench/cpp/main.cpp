// perfbench — the repository benchmark's measuring program. perfbench/run.py
// builds it and runs it once per (workload, seed):
//
//   perfbench --workload bulk|serve-segments|serve-reads|dist-p4 --seed N
//             --seconds S --trace 0|1 --workdir DIR [--git-sha SHA]
//
// Stdout ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics for --trace 0, the per-layer metrics
// for --trace 1. Earlier lines carry the host stamp and run details.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

/// Every per-layer metric a traced run prints. A workload whose path does
/// not run a layer reports that layer's metrics as 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"core.minimizer.scan_ns", "ns"},
    {"core.sketch.jem_ns", "ns"},
    {"core.flat_index.probe_ns", "ns"},
    {"core.mapper.map_segment_ns", "ns"},
    {"core.mapper.vote_ns", "ns"},
    {"core.mapper.minimizers_per_seg", "count"},
    {"core.sketch.hash_evals_per_seg", "count"},
    {"core.mapper.lookup_hit_ratio", "ratio"},
    {"core.flat_index.slots_per_lookup", "count"},
    {"core.mapper.candidates_per_seg", "count"},
    {"core.sketch_table.sketch_s", "s"},
    {"core.sketch_table.freeze_s", "s"},
    {"core.sketch_table.entries", "count"},
    {"core.flat_index.bytes", "bytes"},
    {"core.index_serde.load_s", "s"},
    {"core.index_serde.bytes", "bytes"},
    {"core.engine.seg_per_s_1t", "segments/s"},
    {"core.engine.parallel_eff", "ratio"},
    {"core.engine.busy_s", "s"},
    {"core.engine.worker_util", "ratio"},
    {"core.engine.cold_pass_s", "s"},
    {"io.fasta.read_subjects_s", "s"},
    {"io.fasta.read_queries_s", "s"},
    {"io.fasta.read_queries_mb_per_s", "MB/s"},
    {"io.mapping_writer.write_s", "s"},
    {"serve.http.parse_ns", "ns"},
    {"serve.http.serialize_ns", "ns"},
    {"core.service.map_ns", "ns"},
    {"serve.client.rtt_p50_ms", "ms"},
    {"serve.server.overhead_ms", "ms"},
    {"serve.server.batch_size_mean", "count"},
    {"serve.lru_cache.hit_ratio", "ratio"},
    {"serve.server.shed", "count"},
    {"serve.server.deadline_exceeded", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"core.distributed.s1_s", "s"},
    {"core.distributed.s2_sketch_s", "s"},
    {"core.distributed.s3_build_s", "s"},
    {"core.distributed.s4_map_s", "s"},
    {"mpisim.communicator.allgather_s", "s"},
    {"mpisim.communicator.allgather_bytes", "bytes"},
    {"core.distributed.s2_imbalance", "ratio"},
    {"core.distributed.s4_imbalance", "ratio"},
    {"trace.stage_sum_ratio", "ratio"},
    {"trace.kernel_busy_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--workdir") options.workdir = value;
      else if (flag == "--git-sha") options.git_sha = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workdir.empty()) usage("--workdir is required");
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  return options;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string metrics_json(const std::map<std::string, Report::Metric>& metrics,
                         bool& finite) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    double value = metric.value;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    out += "\"" + jem::obs::json::escape(name) + "\": {\"value\": " +
           number(value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "bulk") {
      perfbench::run_bulk(options, report);
    } else if (options.workload == "serve-segments") {
      perfbench::run_serve(options, /*whole_reads=*/false, report);
    } else if (options.workload == "serve-reads") {
      perfbench::run_serve(options, /*whole_reads=*/true, report);
    } else if (options.workload == "dist-p4") {
      perfbench::run_dist(options, report);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  if (report.end_to_end.find("peak_rss_mb") == report.end_to_end.end()) {
    report.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  }
  for (const auto& [name, unit] : kPerLayer) {
    if (report.per_layer.find(name) == report.per_layer.end()) {
      report.layer(name, 0.0, unit);
    }
  }

  std::cout << "{\"host\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << jem::obs::json::escape(cpu_model())
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"git_sha\": \"" << jem::obs::json::escape(options.git_sha)
            << "\"}, \"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed << "}\n";
  std::cout << "{\"detail\": {";
  bool first = true;
  for (const auto& [name, value] : report.detail) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": " << number(std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::cout << "}}\n";
  for (const std::string& problem : report.problems) {
    std::cerr << "perfbench: verification: " << problem << "\n";
  }

  bool correct = report.failed == 0 && report.problems.empty();
  for (const auto& [name, metric] : report.end_to_end) {
    if (!(metric.value > 0.0)) {
      std::cerr << "perfbench: end-to-end metric " << name
                << " is not positive\n";
      correct = false;
    }
  }
  bool finite = true;
  const std::string metrics = metrics_json(
      options.trace ? report.per_layer : report.end_to_end, finite);
  correct = correct && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return 0;
}
