// serve-segments / serve-reads: an in-process MappingServer driven over
// loopback HTTP, first by an open-loop sender at a fixed rate, then closed
// loop for capacity.
//
// The open-loop sender keeps at most `threads` requests in flight. Request
// i is due at start + i / rate whatever happened to earlier requests, and
// its latency is timed from that due time, so a stall is charged to every
// request it delays (no coordinated omission). A non-200 status, a
// transport failure or a body that differs from MappingService::map on the
// same bytes is a failed request and counts as infinitely late.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "common.hpp"
#include "core/end_segments.hpp"
#include "core/index_serde.hpp"
#include "eval/metrics.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "util/zipf.hpp"

namespace perfbench {

using namespace jem;

namespace {

constexpr char kHost[] = "127.0.0.1";

/// The fixed offered rates (requests/s) of the open-loop phase.
constexpr double kSegmentsRps = 1000.0;
constexpr double kReadsRps = 100.0;

/// The request bodies of one run, named by a running key.
///  * segments: key k is the k-th Zipf(s=1) draw over every end segment
///    (rank -> segment through a seeded permutation), so popular segments
///    repeat and the server's LRU sees hits.
///  * reads: key k is read perm[k % n] with its first k / n bases dropped,
///    so no body is ever sent twice and every request misses the LRU.
class Bodies {
 public:
  Bodies(const io::SequenceSet& reads, std::uint32_t segment_length,
         bool whole_reads, std::uint64_t seed)
      : reads_(reads), whole_reads_(whole_reads) {
    std::mt19937_64 rng(seed ^ 0x626f646965ULL);
    if (whole_reads_) {
      order_.resize(reads.size());
      std::iota(order_.begin(), order_.end(), 0);
      std::shuffle(order_.begin(), order_.end(), rng);
      return;
    }
    for (io::SeqId read = 0; read < reads.size(); ++read) {
      for (const core::EndSegment& segment :
           core::extract_end_segments(read, reads.bases(read), segment_length)) {
        segments_.push_back(segment);
      }
    }
    std::vector<std::uint32_t> by_rank(segments_.size());
    std::iota(by_rank.begin(), by_rank.end(), 0);
    std::shuffle(by_rank.begin(), by_rank.end(), rng);
    util::zipf_distribution<std::uint64_t> zipf(segments_.size(), 1.0);
    order_.resize(std::size_t{1} << 20);
    for (std::uint32_t& item : order_) item = by_rank[zipf(rng) - 1];
  }

  /// The body id of key `key`: a segment index, or the key itself.
  [[nodiscard]] std::uint64_t item(std::uint64_t key) const {
    return whole_reads_ ? key : order_[key % order_.size()];
  }

  [[nodiscard]] std::string_view text(std::uint64_t item) const {
    if (!whole_reads_) return segments_[item].bases;
    const std::string_view read = reads_.bases(this->read(item));
    return read.substr(std::min<std::size_t>(item / order_.size(),
                                             read.size() / 2));
  }

  /// Whole reads: the read a body came from.
  [[nodiscard]] io::SeqId read(std::uint64_t item) const {
    return order_[item % order_.size()];
  }

  /// End segments: the segment a body is.
  [[nodiscard]] const core::EndSegment& segment(std::uint64_t item) const {
    return segments_[item];
  }

 private:
  const io::SequenceSet& reads_;
  bool whole_reads_;
  std::vector<core::EndSegment> segments_;
  std::vector<std::uint32_t> order_;
};

struct Sent {
  std::uint64_t item = 0;
  double due_s = 0.0;  // seconds from the phase start
  double send_s = 0.0;
  double done_s = 0.0;
  int status = 0;  // HTTP status; -1 = transport failure
  std::string body;  // 200 responses only
};

/// Sends round(rate * seconds) requests, request i due at i / rate.
std::vector<Sent> open_loop(std::uint16_t port, const Bodies& bodies,
                            std::uint64_t& next_key, double rate,
                            double seconds, int senders) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * seconds)));
  std::vector<Sent> sent(n);
  const std::uint64_t first_key = next_key;
  next_key += n;
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto offset = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  const auto sender = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(i) / rate));
      // Yield instead of sleeping: on a small VM an idle vCPU takes
      // milliseconds to wake, which would be charged to the server.
      while (Clock::now() < due) std::this_thread::yield();
      Sent& out = sent[i];
      out.item = bodies.item(first_key + i);
      const auto send = Clock::now();
      try {
        serve::HttpResponse response =
            serve::http_post(kHost, port, "/map", bodies.text(out.item),
                             std::chrono::milliseconds(2000));
        out.status = response.status;
        if (response.status == 200) out.body = std::move(response.body);
      } catch (const serve::ClientError&) {
        out.status = -1;
      }
      out.done_s = offset(Clock::now());
      out.send_s = offset(send);
      out.due_s = offset(due);
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < senders; ++i) threads.emplace_back(sender);
  for (std::thread& thread : threads) thread.join();
  return sent;
}

/// `senders` clients each send their next request as soon as the previous
/// one completes, for `seconds` (a request is due when it is sent).
std::vector<Sent> closed_loop(std::uint16_t port, const Bodies& bodies,
                              std::uint64_t& next_key, double seconds,
                              int senders) {
  std::atomic<std::uint64_t> key{next_key};
  std::vector<std::vector<Sent>> parts(static_cast<std::size_t>(senders));
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      while (Clock::now() < deadline) {
        Sent out;
        out.item = bodies.item(key.fetch_add(1));
        out.due_s = out.send_s = since(start);
        try {
          serve::HttpResponse response =
              serve::http_post(kHost, port, "/map", bodies.text(out.item),
                               std::chrono::milliseconds(2000));
          out.status = response.status;
          if (response.status == 200) out.body = std::move(response.body);
        } catch (const serve::ClientError&) {
          out.status = -1;
        }
        out.done_s = since(start);
        parts[static_cast<std::size_t>(t)].push_back(std::move(out));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  next_key = key.load();
  std::vector<Sent> sent;
  for (auto& part : parts) {
    sent.insert(sent.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  return sent;
}

struct Window {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  double rtt_p50_ms = 0.0;
  std::uint64_t failures = 0;
};

/// Requests per p99 chunk: the 99th percentile of 1000 samples has ten
/// samples beyond it.
constexpr std::size_t kChunk = 1000;

/// Latency from the due time; a failed request counts as infinitely late.
/// p50 and p99 are taken per chunk of kChunk consecutive requests, chunks
/// starting every kChunk/4 requests, and the median over chunks is
/// reported, so a stall of the host moves the chunks it hits rather than
/// the result.
Window summarize(const std::vector<Sent>& sent) {
  Window window;
  std::vector<double> latency;
  std::vector<double> late;
  std::vector<double> rtt;
  for (const Sent& s : sent) {
    const bool ok = s.status == 200;
    if (!ok) ++window.failures;
    latency.push_back(ok ? (s.done_s - s.due_s) * 1e3 : HUGE_VAL);
    late.push_back((s.send_s - s.due_s) * 1e3);
    if (ok) rtt.push_back((s.done_s - s.send_s) * 1e3);
  }
  std::vector<double> chunk_p50;
  std::vector<double> chunk_p99;
  const std::size_t span = std::min(kChunk, latency.size());
  for (std::size_t first = 0;; first += kChunk / 4) {
    // The last chunk ends at the last request.
    first = std::min(first, latency.size() - span);
    const auto begin = latency.begin() + static_cast<std::ptrdiff_t>(first);
    const std::vector<double> chunk(begin, begin + static_cast<std::ptrdiff_t>(span));
    chunk_p50.push_back(percentile(chunk, 0.50));
    chunk_p99.push_back(percentile(chunk, 0.99));
    if (first + span == latency.size()) break;
  }
  window.p50_ms = median(std::move(chunk_p50));
  window.p99_ms = median(std::move(chunk_p99));
  window.late_p99_ms = percentile(late, 0.99);
  window.rtt_p50_ms = median(rtt);
  return window;
}

/// The /map response the server must send for `response` (docs/serve.md).
std::string expected_body(const core::MapServiceResponse& response,
                          bool cache_hit) {
  std::string out = "{\"mapped\":";
  out += response.mapped() ? "true" : "false";
  out += ",\"trials\":" + std::to_string(response.trials);
  out += cache_hit ? ",\"cache\":\"hit\"" : ",\"cache\":\"miss\"";
  out += ",\"hits\":[";
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"subject\":\"" + obs::json::escape(response.hits[i].subject_name) +
           "\",\"votes\":" + std::to_string(response.hits[i].votes) + '}';
  }
  return out + "]}";
}

double registry_counter(serve::MappingServer& server, std::string_view name) {
  const obs::MetricsSnapshot snapshot = server.registry().snapshot();
  const obs::MetricValue* value = snapshot.find(name);
  return value != nullptr ? static_cast<double>(value->value) : 0.0;
}

struct ServerCounters {
  double hits = 0.0;
  double misses = 0.0;
  double batches = 0.0;
  double shed = 0.0;
  double deadline = 0.0;

  static ServerCounters read(serve::MappingServer& server) {
    return {registry_counter(server, "serve.cache.hits"),
            registry_counter(server, "serve.cache.misses"),
            registry_counter(server, "serve.batches"),
            registry_counter(server, "serve.http.shed"),
            registry_counter(server, "serve.deadline.expired")};
  }
  ServerCounters operator-(const ServerCounters& o) const {
    return {hits - o.hits, misses - o.misses, batches - o.batches,
            shed - o.shed, deadline - o.deadline};
  }
};

}  // namespace

void run_serve(const Options& options, bool whole_reads, Report& report) {
  const core::ServiceConfig config = service_config();
  const core::MapParams& params = config.params;
  const std::string index_path = options.workdir + "/index.jemidx";
  serve::ServerConfig server_config;
  server_config.workers = static_cast<std::size_t>(kThreads);
  const double fixed_rps = whole_reads ? kReadsRps : kSegmentsRps;

  // Set-up, repeated: generate, build the index and write the JEMIDX1
  // artifact, load it through MappingService::from_index, start the server.
  std::vector<double> rep_s;
  std::vector<double> build_s;
  std::vector<double> load_s;
  sim::Dataset dataset;
  std::shared_ptr<const core::MappingService> service;
  std::unique_ptr<serve::MappingServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->stop();
    server.reset();
    service.reset();
    const auto start = Clock::now();
    dataset = {};  // one dataset in memory at a time
    dataset = make_dataset(options.seed);
    auto stage = Clock::now();
    {
      const core::MappingService built(dataset.contigs.contigs, config);
      build_s.push_back(since(stage));
      core::save_index(index_path, built.engine().mapper().table(), params,
                       config.scheme, built.subjects());
    }
    stage = Clock::now();
    service = std::make_shared<const core::MappingService>(
        core::MappingService::from_index(index_path, dataset.contigs.contigs,
                                         config));
    load_s.push_back(since(stage));
    if (!service->load_report().loaded_from_artifact) {
      report.fail(1, "index artifact rejected: " +
                         service->load_report().rejection);
    }
    server = std::make_unique<serve::MappingServer>(service, server_config);
    server->start();
    rep_s.push_back(since(start));
    release_free_memory();
  }
  const Bodies bodies(dataset.reads.reads, params.segment_length, whole_reads,
                      options.seed);
  const std::uint16_t port = server->port();
  std::uint64_t next_key = 0;
  std::vector<std::vector<Sent>> phases;

  // The batcher's kernel: MappingService::map on a fixed sample of this
  // workload's bodies, one thread, warm scratch. The traced run's kernel
  // probe uses the head of the same sample.
  std::vector<std::string> sample;
  for (std::size_t i = 0; sample.size() < (whole_reads ? 256u : 1024u); ++i) {
    sample.emplace_back(bodies.text(bodies.item(i * 7919)));
  }
  core::MapScratch scratch = service->make_scratch();
  core::MapServiceRequest request;
  std::uint64_t sink = 0;

  // Warm-up: one second at the fixed rate (fills the LRU, ramps threads).
  const auto warm_start = Clock::now();
  phases.push_back(open_loop(port, bodies, next_key, fixed_rps, 1.0,
                             kThreads));
  const double warmup_s = since(warm_start);

  // Timed phase: 0.6 * seconds at the fixed offered rate, then rounds of a
  // closed-loop capacity window and a pass of the batcher's kernel over a
  // fixed body sample until `seconds` are up; capacity and kernel rate are
  // medians over the rounds. The capacity windows come last: their
  // connection churn would otherwise slow the latency window after them.
  const auto timed_start = Clock::now();
  const ServerCounters before = ServerCounters::read(*server);
  std::vector<Sent> fixed = open_loop(port, bodies, next_key, fixed_rps,
                                      0.6 * options.seconds, kThreads);
  const ServerCounters counters = ServerCounters::read(*server) - before;
  std::vector<double> capacity_rps;
  std::vector<double> kernel_ns;
  while (capacity_rps.size() < 5 || since(timed_start) < options.seconds) {
    auto start = Clock::now();
    std::vector<Sent> closed = closed_loop(port, bodies, next_key,
                                           options.seconds / 40.0, kThreads);
    capacity_rps.push_back(
        static_cast<double>(std::count_if(closed.begin(), closed.end(),
                                          [](const Sent& s) { return s.status == 200; })) /
        since(start));
    phases.push_back(std::move(closed));
    start = Clock::now();
    for (const std::string& body : sample) {
      request.sequence = body;
      sink += service->map(request, scratch).hits.size();
    }
    kernel_ns.push_back(since(start) * 1e9 / static_cast<double>(sample.size()));
  }
  const Window steady = summarize(fixed);
  phases.push_back(std::move(fixed));
  const std::size_t fixed_phase = phases.size() - 1;

  // Two more index builds, so index_build_s is a median of five.
  for (int i = 0; i < 2; ++i) {
    release_free_memory();
    const auto start = Clock::now();
    const core::MappingService built(service->subjects(), config);
    build_s.push_back(since(start));
  }

  // Verification: every 200 body equals MappingService::map of its bytes.
  std::vector<std::uint64_t> items;
  for (const auto& phase : phases) {
    for (const Sent& s : phase) {
      if (s.status == 200) items.push_back(s.item);
    }
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  std::vector<core::MapServiceResponse> expected(items.size());
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        core::MapScratch scratch = service->make_scratch();
        core::MapServiceRequest request;
        for (std::size_t j = static_cast<std::size_t>(t); j < items.size();
             j += static_cast<std::size_t>(kThreads)) {
          request.sequence = std::string(bodies.text(items[j]));
          expected[j] = service->map(request, scratch);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const auto expected_of = [&](std::uint64_t item) -> const core::MapServiceResponse& {
    return expected[static_cast<std::size_t>(
        std::lower_bound(items.begin(), items.end(), item) - items.begin())];
  };
  // Every request of every phase is an operation: a non-200, a transport
  // failure or a wrong body fails it.
  double client_hits = 0.0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const Sent& s : phases[p]) {
      ++report.attempted;
      if (s.status != 200) {
        report.fail(1, "request for body " + std::to_string(s.item) +
                           " got status " + std::to_string(s.status));
        continue;
      }
      const core::MapServiceResponse& want = expected_of(s.item);
      const bool hit = s.body == expected_body(want, true);
      if (p == fixed_phase && hit) ++client_hits;
      if (!hit && s.body != expected_body(want, false)) {
        report.fail(1, "wrong /map body for body " + std::to_string(s.item));
      }
    }
  }

  // Quality of what was served, against the simulator truth.
  const eval::TruthSet truth(dataset.contigs.truth, dataset.reads.truth,
                             params.segment_length,
                             static_cast<std::uint32_t>(params.k));
  eval::QualityCounts quality;
  if (!whole_reads) {
    std::vector<core::SegmentMapping> served;
    for (std::size_t j = 0; j < items.size(); ++j) {
      const core::EndSegment& segment = bodies.segment(items[j]);
      core::SegmentMapping mapping{segment.read, segment.end, segment.offset,
                                   static_cast<std::uint32_t>(segment.bases.size()),
                                   {}};
      if (expected[j].mapped()) {
        mapping.result = {expected[j].hits[0].subject, expected[j].hits[0].votes};
      }
      served.push_back(mapping);
    }
    quality = eval::evaluate(served, truth);
  } else {
    // A whole-read body is right when its hit overlaps the read (the same
    // tp/fp/fn/tn rule eval::evaluate applies to end segments).
    for (std::size_t j = 0; j < items.size(); ++j) {
      const io::SeqId read = bodies.read(items[j]);
      const std::vector<io::SeqId> truths = truth.true_subjects_whole_read(read);
      ++quality.segments;
      if (expected[j].mapped()) {
        ++quality.mapped;
        if (std::binary_search(truths.begin(), truths.end(),
                               expected[j].hits[0].subject)) {
          ++quality.tp;
        } else {
          ++quality.fp;
          if (!truths.empty()) ++quality.fn;
        }
      } else {
        ++(truths.empty() ? quality.tn : quality.fn);
      }
    }
  }

  const double map_ns = median(kernel_ns);
  report.detail["serve.capacity_rounds"] = static_cast<double>(capacity_rps.size());

  report.e2e("setup_s", median(rep_s) + warmup_s, "s");
  report.e2e("throughput_per_s", median(capacity_rps), "1/s");
  report.e2e("map_seg_per_s", 1e9 / map_ns, "segments/s");
  report.e2e("latency_p50_ms", steady.p50_ms, "ms");
  report.e2e("index_build_s", median(build_s), "s");
  time_index_loads(index_path, service->subjects(), config, 8, load_s, report);
  report.e2e("index_load_s", median(load_s), "s");
  report.e2e("precision", quality.precision(), "ratio");
  report.e2e("recall", quality.recall(), "ratio");
  report.detail["serve.latency_p99_ms"] = steady.p99_ms;
  report.detail["serve.fixed_rps"] = fixed_rps;
  report.detail["serve.fixed_requests"] = static_cast<double>(phases[fixed_phase].size());
  report.detail["serve.fixed_failures"] = static_cast<double>(steady.failures);
  report.detail["serve.distinct_bodies"] = static_cast<double>(items.size());
  report.detail["serve.client_hit_ratio"] =
      client_hits / static_cast<double>(phases[fixed_phase].size());
  report.detail["serve.warmup_s"] = warmup_s;
  report.detail["serve.setup_rep_median_s"] = median(rep_s);
  report.detail["serve.sink"] = static_cast<double>(sink % 1000);

  if (options.trace) {
    // HTTP layer on the exact bodies and responses of the fixed window.
    std::vector<std::string> requests;
    std::vector<serve::HttpResponse> responses;
    for (const Sent& s : phases[fixed_phase]) {
      if (s.status != 200 || requests.size() == 512) continue;
      serve::HttpRequest http;
      http.method = "POST";
      http.target = http.path = "/map";
      http.version = "HTTP/1.1";
      http.body = std::string(bodies.text(s.item));
      requests.push_back(serve::serialize_request(http, kHost));
      serve::HttpResponse response;
      response.body = s.body;
      responses.push_back(std::move(response));
    }
    const double parse_ns = per_call_ns(requests.size(), [&](std::size_t i) {
      sink += serve::parse_request(requests[i]).consumed;
    });
    const double serialize_ns =
        per_call_ns(responses.size(), [&](std::size_t i) {
          sink += serve::serialize_response(responses[i]).size();
        });
    const double lookups = counters.hits + counters.misses;
    const double hit_ratio = lookups > 0.0 ? counters.hits / lookups : 0.0;
    report.layer("serve.http.parse_ns", parse_ns, "ns");
    report.layer("serve.http.serialize_ns", serialize_ns, "ns");
    report.layer("core.service.map_ns", map_ns, "ns");
    report.layer("serve.client.rtt_p50_ms", steady.rtt_p50_ms, "ms");
    report.layer("serve.server.overhead_ms",
                 steady.rtt_p50_ms -
                     (parse_ns + serialize_ns + (1.0 - hit_ratio) * map_ns) * 1e-6,
                 "ms");
    report.layer("serve.server.batch_size_mean",
                 counters.batches > 0.0 ? counters.misses / counters.batches : 0.0,
                 "count");
    report.layer("serve.lru_cache.hit_ratio", hit_ratio, "ratio");
    report.layer("serve.server.shed", counters.shed, "count");
    report.layer("serve.server.deadline_exceeded", counters.deadline, "count");
    report.layer("loadgen.late_p99_ms", steady.late_p99_ms, "ms");
    // The request path carries no benchmark tracing: every serve probe
    // above runs after the traffic, on recorded bodies and responses.
    report.layer("trace.overhead_pct", 0.0, "%");

    probe_index_build(service->subjects(), config, report);
    probe_index_serde(index_path, service->subjects(), config, report);
    const std::size_t probed = whole_reads ? 64 : 512;
    const std::vector<std::string_view> views(
        sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(probed));
    probe_kernel(service->engine().mapper(), views, report);
  }
  server->stop();
}

}  // namespace perfbench
