// MappingServer — the always-on mapping service (ROADMAP item 1): a
// long-lived process that loads the frozen index once (via MappingService)
// and serves mapping requests over a local HTTP/1.1 socket.
//
// Pipeline, in the same shape as the streaming engine (reader -> bounded
// queue -> workers), but request-oriented:
//
//   acceptor thread ──try-push──► admission queue ──► worker threads
//        │ (full? shed: 503 + Retry-After)  (fd + the       │ parse + route;
//        ▼                                   accept() stamp) ▼ /map: cache probe,
//   connections never stall the listener       then MappingService::map with
//                                              the worker's own warm MapScratch
//
// Each worker maps the /map request it read, on its own thread, as the
// paper's S4 maps every query independently. A worker's MapScratch is
// sized by the subject count, so it belongs to one serving epoch and is
// rebuilt when a reload changes the epoch.
//
// Admission control: the accept queue is a util::BoundedQueue and the only
// queue in the pipeline; a full queue sheds the connection immediately with
// `503 Service Unavailable` and a `Retry-After` header — overload degrades
// to fast rejections, never to an unbounded backlog or a stalled accept
// loop.
//
// Deadlines: every /map request carries an absolute expiry (its
// `deadline_ms` or the server default), measured from admission — the
// accept() stamp that travels with the connection through the queue, so
// queueing counts against the budget. Expiry is checked right before the
// (uninterruptible) map kernel runs and surfaces as a structured `504` JSON
// body — the HTTP projection of kDeadlineExceeded.
//
// Caching: responses for repeated (sequence, top_x, min_votes) keys come
// from an LruCache keyed by the full composite key (digest picks the
// bucket, byte-compare confirms — collision-safe).
//
// Fault injection (docs/robustness.md): when ServerConfig::fault_plan is
// set, the pipeline queries a util::FaultInjector at five named sites —
// serve.accept, serve.read, serve.write, serve.map, serve.cache — mapping
// the plan's delay/drop/abort taxonomy onto network failure modes:
// injected latency, connection resets, truncated responses, dropped
// requests, and worker aborts. Every decision is keyed by (site,
// invocation) so the same seed replays the same schedule.
//
// Supervision: worker threads run under a supervisor. A worker that dies
// (injected abort or a genuine bug) answers its in-flight request with a
// structured 500 — never a hung client — is joined, and is respawned while
// the server keeps serving; /healthz reports the restart count.
//
// Hot swap: reload_index() (HTTP: POST /admin/reload; CLI: SIGHUP) loads a
// new JEMIDX1 artifact in the background, validates it against the running
// params fingerprint and subject set (core::index_serde's structured
// errors), then atomically publishes a new MappingService epoch behind a
// shared_ptr. In-flight requests finish on the index they started with;
// the response cache is invalidated only after a successful swap. A
// corrupt or mismatched artifact leaves the old index serving and surfaces
// the ArtifactError text — zero downtime either way.
//
// Endpoints:
//   POST /map            body = query bases; ?top_x=&min_votes=&deadline_ms=
//   GET  /healthz        liveness + provenance + windowed SLO percentiles
//   GET  /metrics        JSON by default; OpenMetrics text under
//                        `Accept: application/openmetrics-text`
//   GET  /debug/requests flight-recorder ring (newest-first JSON;
//                        ?status=&min_latency_ms=&limit=)
//   POST /admin/reload   hot-swap the index (?path= overrides the default)
//
// Observability (docs/observability.md): per-endpoint latency histograms,
// queue-depth and cache gauges, shed/deadline/reject counters, chaos
// tallies, supervisor restart counts and the index epoch in the registry;
// per-request trace propagation (W3C `traceparent` in, `x-jem-request-id`
// out, ids stamped on every log line, error body and tracer span); a
// flight-recorder ring of per-request timing records; and sliding-window
// latency/error/shed SLOs behind /healthz and the OpenMetrics exposition.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "obs/window.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/http.hpp"
#include "serve/lru_cache.hpp"
#include "util/bounded_queue.hpp"
#include "util/fault_plan.hpp"
#include "util/log.hpp"

namespace jem::serve {

/// Fatal server-lifecycle failure (bind/listen/thread start). Per-request
/// conditions never throw this — they become HTTP status codes.
class ServeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (read the bound port via port())

  std::size_t workers = 4;           // threads that read, map and answer
  std::size_t queue_capacity = 64;   // admission (accepted-connection) queue

  /// Applied to /map requests that carry no deadline_ms, measured from
  /// admission. zero = none.
  std::chrono::milliseconds default_deadline{0};

  /// Socket receive/send timeout — a stalled client cannot pin a worker.
  std::chrono::milliseconds io_timeout{5000};

  std::size_t cache_capacity = 1024;  // LRU entries; 0 disables the cache
  int retry_after_s = 1;              // Retry-After hint on 503 sheds

  /// Metrics registry the server publishes to and /metrics serves. Null =
  /// the server owns a private registry.
  obs::Registry* metrics = nullptr;

  /// Span tracer for per-request span trees (client/request/queue-wait/
  /// map/serialize, all tagged with the request's trace id). Null =
  /// no tracing; the request path then skips every span allocation.
  obs::Tracer* tracer = nullptr;

  /// Flight-recorder ring capacity (per-request records behind
  /// GET /debug/requests). 0 disables the recorder and the endpoint.
  std::size_t flight_recorder_size = 256;

  /// Requests slower than this are logged as slow-request exemplars with
  /// their full span breakdown (queue-wait/map/serialize). 0 = disabled.
  /// Microsecond granularity so tests can arm it below real map latency.
  std::chrono::microseconds slow_threshold{0};

  /// Aging granularity of the windowed SLO metrics: /healthz's "10s"/"1m"/
  /// "5m" tiers cover 10/60/300 frames of this width. The production
  /// default (1 s) makes the labels literal; tests shrink it to script
  /// decay quickly.
  std::chrono::milliseconds slo_frame{1000};

  /// Deterministic network chaos: when set (and non-empty), the serve.*
  /// fault sites consult this plan. Not owned; must outlive the server.
  const util::FaultPlan* fault_plan = nullptr;

  /// Default artifact path for /admin/reload without ?path= and for the
  /// CLI's SIGHUP handler. Empty = reload requires an explicit path.
  std::string reload_index_path;
};

class MappingServer {
 public:
  using Clock = core::MappingService::Clock;

  /// Non-owning: the service must outlive the server. Hot-swap is still
  /// available — the original service simply remains owned by the caller
  /// while new epochs are owned by the server.
  MappingServer(const core::MappingService& service, ServerConfig config);

  /// Owning (shared): the server participates in the service's lifetime,
  /// the natural shape when reload_index() will retire epochs.
  MappingServer(std::shared_ptr<const core::MappingService> service,
                ServerConfig config);
  ~MappingServer();

  MappingServer(const MappingServer&) = delete;
  MappingServer& operator=(const MappingServer&) = delete;

  /// Binds, listens and starts the acceptor/worker/supervisor
  /// threads. Throws ServeError on bind/listen failure. Idempotent once
  /// running.
  void start();

  /// Graceful drain: stop accepting, serve every admitted connection,
  /// join all threads. Idempotent; also run by ~MappingServer.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound port (after start(); the ephemeral port when config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The registry /metrics serves (the configured one or the private one).
  [[nodiscard]] obs::Registry& registry() noexcept { return *registry_; }

  /// The routing core, socket-free: exactly what a worker runs after
  /// parsing a request, but on the caller's thread with a one-shot map
  /// scratch, so it needs no start(). Exposed for in-process callers and
  /// tests.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Result of one hot-swap attempt.
  struct ReloadOutcome {
    bool success = false;
    std::uint64_t epoch = 0;   // the serving epoch after the attempt
    std::string error;         // ArtifactError text when !success
  };

  /// Loads the JEMIDX1 artifact at `path` (empty = the configured
  /// reload_index_path), validates it against the running parameters and
  /// subject set, and atomically swaps the serving epoch. In-flight
  /// requests finish on their original index; the LRU cache is cleared
  /// only on success. On any validation/IO failure the old index keeps
  /// serving and the structured error text is returned. Thread-safe;
  /// concurrent reloads serialize.
  [[nodiscard]] ReloadOutcome reload_index(const std::string& path);

  /// Serving epoch: 0 at start, +1 per successful reload.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Supervisor tally (workers respawned after an abort).
  [[nodiscard]] std::uint64_t worker_restarts() const noexcept {
    return worker_restarts_.load(std::memory_order_relaxed);
  }

  /// The flight-recorder ring (never null when flight_recorder_size > 0;
  /// null otherwise). Exposed for the SIGUSR1 dump and tests.
  [[nodiscard]] const FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }

  /// Human-readable flight-recorder dump (the SIGUSR1 payload). Empty
  /// string when the recorder is disabled.
  [[nodiscard]] std::string flight_recorder_text(std::size_t limit = 64) const;

 private:
  /// An accepted connection, stamped at accept(). The stamp travels with
  /// the fd through the admission queue: the request deadline,
  /// queue_wait_ns and serve.queue.wait[id] all measure from it.
  struct Admission {
    int fd = -1;
    Clock::time_point at{};
    std::uint64_t trace_ns = 0;       ///< Tracer clock at accept (0 = off).
    std::uint64_t queue_wait_ns = 0;  ///< accept() -> worker pickup.
  };

  /// The serving epoch: its service and number, read together.
  struct Serving {
    std::shared_ptr<const core::MappingService> service;
    std::uint64_t epoch = 0;
  };

  /// A worker's map scratch. It is sized by the subject count, so it must
  /// never cross services: it is rebuilt whenever the serving epoch changes.
  struct WorkerScratch {
    std::uint64_t epoch = 0;
    std::optional<core::MapScratch> scratch;

    core::MapScratch& for_epoch(const Serving& serving) {
      if (!scratch || epoch != serving.epoch) {
        scratch.emplace(serving.service->make_scratch());
        epoch = serving.epoch;
      }
      return *scratch;
    }
  };

  /// Per-request state threaded through route().
  struct RequestContext {
    obs::TraceContext trace;  ///< Server ids: trace_id + fresh request span id.
    Clock::time_point start{};
    Clock::time_point admitted{};      ///< Deadline origin.
    WorkerScratch* scratch = nullptr;  ///< Null = map with a one-shot scratch.
    FlightRecord record;
  };

  void acceptor_loop();
  void worker_main(std::size_t slot);
  void worker_loop();
  void supervisor_loop();
  void note_death(std::size_t slot);
  void serve_connection(const Admission& conn, WorkerScratch& scratch);

  /// Current serving epoch (service never null once constructed).
  [[nodiscard]] Serving serving() const;

  /// handle() for an admitted request; `scratch` is the calling worker's.
  [[nodiscard]] HttpResponse route(const HttpRequest& request,
                                   const Admission& admission,
                                   WorkerScratch* scratch);
  [[nodiscard]] HttpResponse handle_map(const HttpRequest& request,
                                        RequestContext& ctx);
  [[nodiscard]] HttpResponse handle_healthz();
  [[nodiscard]] HttpResponse handle_metrics(const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_debug_requests(const HttpRequest& request);
  [[nodiscard]] HttpResponse handle_reload(const HttpRequest& request);

  /// Windowed SLO section of /healthz ("slo":{...}) — shared with the
  /// OpenMetrics exposition via slo_openmetrics().
  [[nodiscard]] std::string slo_json();
  [[nodiscard]] std::string slo_openmetrics();

  ServerConfig config_;

  // Guards service_ and writes to epoch_, so serving() reads a matching pair.
  mutable std::mutex service_mutex_;
  std::shared_ptr<const core::MappingService> service_;
  std::atomic<std::uint64_t> epoch_{0};

  std::mutex reload_mutex_;  // serializes reload_index()
  std::atomic<std::uint64_t> reloads_{0};

  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;

  // Metric handles (resolved once; updates are lock-free).
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* responses_2xx_ = nullptr;
  obs::Counter* responses_4xx_ = nullptr;
  obs::Counter* responses_5xx_ = nullptr;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* deadline_expired_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Counter* cache_evictions_ = nullptr;
  obs::Counter* rejected_head_ = nullptr;
  obs::Counter* rejected_body_ = nullptr;
  obs::Counter* rejected_malformed_ = nullptr;
  obs::Counter* chaos_delay_ = nullptr;
  obs::Counter* chaos_reset_ = nullptr;
  obs::Counter* chaos_partial_ = nullptr;
  obs::Counter* chaos_abort_ = nullptr;
  obs::Counter* chaos_cache_bypass_ = nullptr;
  obs::Counter* chaos_map_drop_ = nullptr;
  obs::Counter* reload_success_ = nullptr;
  obs::Counter* reload_rejected_ = nullptr;
  obs::Counter* restarts_worker_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* cache_size_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Histogram* map_latency_ns_ = nullptr;
  obs::Histogram* healthz_latency_ns_ = nullptr;
  obs::Histogram* metrics_latency_ns_ = nullptr;

  util::FaultInjector injector_;

  // Request-scoped observability (docs/observability.md).
  std::unique_ptr<FlightRecorder> flight_;
  obs::WindowedHistogram win_latency_;   // /map total latency per request
  obs::WindowedCounter win_requests_;    // /map requests
  obs::WindowedCounter win_errors_;      // /map 5xx
  obs::WindowedCounter win_shed_;        // 503 admission sheds
  util::LogRateLimiter worker_died_limit_;

  /// Synthetic tracer track carrying per-request queue-wait spans, recorded
  /// with explicit times: a wait starts on the acceptor and ends on a
  /// worker, so it belongs to neither thread's track.
  static constexpr std::uint32_t kRequestTrack = 0xFFFF0000u;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};

  std::unique_ptr<util::BoundedQueue<Admission>> conn_queue_;

  std::mutex cache_mutex_;
  std::unique_ptr<LruCache<std::string, core::MapServiceResponse>> cache_;

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Supervisor state: dead slots awaiting join/respawn, plus the drain
  // bookkeeping stop() waits on. All guarded by lifecycle_mutex_.
  std::mutex lifecycle_mutex_;
  std::condition_variable death_cv_;    // supervisor wakes on deaths
  std::condition_variable drained_cv_;  // stop() waits for worker drain
  std::vector<std::size_t> dead_;
  bool supervising_ = false;
  bool respawn_enabled_ = false;
  std::size_t workers_active_ = 0;
  std::size_t respawn_in_flight_ = 0;
  std::thread supervisor_;
  std::atomic<std::uint64_t> worker_restarts_{0};

  Clock::time_point started_at_{};
};

}  // namespace jem::serve
