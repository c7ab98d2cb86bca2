// bench_serve — serving-path benchmark (docs/serve.md): stands up an
// in-process MappingServer over the demo subject set, fires concurrent /map
// requests through the real loopback client, and reports request latency
// percentiles (p50/p99) and throughput.
//
// The default run is deliberately small so the check.sh bench sweep stays
// fast; scripts/bench_serve.sh drives the real measurement and writes
// BENCH_serve.json.
//
//   bench_serve [--requests 200] [--clients 4] [--workers 4]
//               [--cache 1024] [--seed N] [--out BENCH_serve.json]
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

namespace {

double percentile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, const char** argv) {
  using namespace jem;

  std::uint64_t requests = 200;
  std::uint64_t clients = 4;
  std::uint64_t workers = 4;
  std::uint64_t cache = 1024;
  std::uint64_t seed = 20230517;
  std::string out_path;

  util::Options options;
  options.add_uint("requests", requests, "total /map requests (default 200)");
  options.add_uint("clients", clients, "concurrent client threads (default 4)");
  options.add_uint("workers", workers, "server worker threads (default 4)");
  options.add_uint("cache", cache, "LRU cache entries, 0 disables");
  options.add_uint("seed", seed, "demo dataset seed");
  options.add_string("out", out_path, "write a JSON summary here");
  try {
    (void)options.parse(argc, argv);
  } catch (const util::OptionError& error) {
    std::cerr << error.what() << '\n' << options.usage("bench_serve");
    return 2;
  }

  io::SequenceSet subjects;
  io::SequenceSet reads;
  cli::make_demo_dataset(seed, subjects, reads);
  const std::size_t num_subjects = subjects.size();

  const core::ServiceConfig config = core::ServiceConfig::make().seed(seed).build();
  util::WallTimer index_timer;
  const core::MappingService service(std::move(subjects), config);
  const double index_s = index_timer.elapsed_s();

  serve::ServerConfig server_config;
  server_config.port = 0;
  server_config.workers = workers;
  server_config.cache_capacity = cache;
  serve::MappingServer server(service, server_config);
  server.start();

  std::vector<std::string> bodies;
  bodies.reserve(reads.size());
  for (io::SeqId id = 0; id < reads.size(); ++id) {
    bodies.emplace_back(reads.bases(id));
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> failures{0};
  std::mutex latencies_mutex;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(requests);

  util::WallTimer wall;
  std::vector<std::thread> pool;
  const std::uint64_t nclients = std::max<std::uint64_t>(1, clients);
  pool.reserve(nclients);
  for (std::uint64_t c = 0; c < nclients; ++c) {
    pool.emplace_back([&] {
      std::vector<double> local_ms;
      while (true) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= requests) break;
        const std::string& body = bodies[i % bodies.size()];
        util::WallTimer timer;
        try {
          const serve::HttpResponse response =
              serve::http_post("127.0.0.1", server.port(), "/map", body);
          if (response.status != 200) failures.fetch_add(1);
        } catch (const serve::ClientError&) {
          failures.fetch_add(1);
        }
        local_ms.push_back(timer.elapsed_s() * 1e3);
      }
      std::lock_guard lock(latencies_mutex);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double elapsed_s = wall.elapsed_s();
  server.stop();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = percentile_ms(latencies_ms, 0.50);
  const double p99 = percentile_ms(latencies_ms, 0.99);
  const double throughput =
      elapsed_s > 0.0 ? static_cast<double>(requests) / elapsed_s : 0.0;

  const auto snapshot = server.registry().snapshot();
  const auto metric = [&](const char* name) -> std::uint64_t {
    const auto* entry = snapshot.find(name);
    return entry != nullptr ? entry->value : 0;
  };
  const std::uint64_t cache_hits = metric("serve.cache.hits");
  const std::uint64_t shed = metric("serve.http.shed");

  std::cout << "bench_serve: " << requests << " requests, " << nclients
            << " clients, " << num_subjects << " subjects (index " << index_s
            << " s)\n"
            << "  p50 " << p50 << " ms, p99 " << p99 << " ms, "
            << throughput << " req/s\n"
            << "  " << cache_hits << " cache hits, " << shed << " shed, " << failures.load()
            << " failures\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"benchmark\": \"serve\",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"clients\": " << nclients << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << "  \"subjects\": " << num_subjects << ",\n"
        << "  \"index_s\": " << index_s << ",\n"
        << "  \"p50_ms\": " << p50 << ",\n"
        << "  \"p99_ms\": " << p99 << ",\n"
        << "  \"throughput_rps\": " << throughput << ",\n"
        << "  \"cache_hits\": " << cache_hits << ",\n"
        << "  \"shed\": " << shed << ",\n"
        << "  \"failures\": " << failures.load() << "\n"
        << "}\n";
    if (!out) {
      std::cerr << "error: cannot write " << out_path << '\n';
      return 1;
    }
    std::cout << "wrote " << out_path << '\n';
  }
  return failures.load() == 0 ? 0 : 1;
}
