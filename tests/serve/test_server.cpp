#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dna.hpp"
#include "core/service.hpp"
#include "serve/client.hpp"
#include "util/fault_plan.hpp"
#include "util/prng.hpp"

namespace jem::serve {
namespace {

using core::MapServiceRequest;
using core::MapServiceResponse;

std::string random_dna(util::Xoshiro256ss& rng, std::size_t length) {
  std::string seq(length, 'A');
  for (char& c : seq) {
    c = core::code_base(static_cast<std::uint8_t>(rng.bounded(4)));
  }
  return seq;
}

/// The /map body a cache miss of `response` must carry, byte for byte.
std::string expected_miss_body(const MapServiceResponse& response) {
  std::string body = "{\"mapped\":";
  body += response.mapped() ? "true" : "false";
  body += ",\"trials\":" + std::to_string(response.trials) +
          ",\"cache\":\"miss\",\"hits\":[";
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"subject\":\"" + response.hits[i].subject_name +
            "\",\"votes\":" + std::to_string(response.hits[i].votes) + "}";
  }
  return body + "]}";
}

/// Polls `done` for up to ~2 s.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int i = 0; i < 2000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// A small service + live loopback server per fixture. Every test talks to
/// it through the real client, so the socket path is exercised end to end.
class MappingServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Xoshiro256ss rng(321);
    genome_ = random_dna(rng, 30'000);
    io::SequenceSet subjects;
    for (int i = 0; i < 6; ++i) {
      subjects.add("contig_" + std::to_string(i),
                   genome_.substr(static_cast<std::size_t>(i) * 5000, 5000));
    }
    config_ = core::ServiceConfig::make()
                  .k(16)
                  .window(20)
                  .trials(16)
                  .segment_length(800)
                  .seed(11)
                  .build();
    service_.emplace(std::move(subjects), config_);

    util::Xoshiro256ss query_rng(17);
    for (int i = 0; i < 8; ++i) {
      const std::size_t pos = query_rng.bounded(25'000);
      queries_.push_back(genome_.substr(pos, 800));
    }
  }

  void start_server(ServerConfig config = {}) {
    config.port = 0;  // ephemeral
    server_.emplace(*service_, config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  [[nodiscard]] HttpResponse post_map(const std::string& sequence,
                                      const std::string& params = "") {
    return http_post("127.0.0.1", server_->port(), "/map" + params, sequence);
  }

  [[nodiscard]] std::uint64_t metric(const std::string& name) {
    const auto snapshot = server_->registry().snapshot();
    const auto* value = snapshot.find(name);
    return value != nullptr ? value->value : 0;
  }

  std::string genome_;
  core::ServiceConfig config_;
  std::optional<core::MappingService> service_;
  std::optional<MappingServer> server_;
  std::vector<std::string> queries_;
};

TEST_F(MappingServerTest, HealthzReportsServiceState) {
  start_server();
  const HttpResponse response =
      http_get("127.0.0.1", server_->port(), "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"subjects\":6"), std::string::npos);
  EXPECT_NE(response.body.find("\"index\":\"rebuilt\""), std::string::npos);
}

TEST_F(MappingServerTest, MetricsServeTheRegistrySnapshot) {
  start_server();
  (void)post_map(queries_[0]);
  const HttpResponse response =
      http_get("127.0.0.1", server_->port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(response.body.find("serve.http.requests"), std::string::npos);
  EXPECT_NE(response.body.find("serve.endpoint.map.latency_ns"),
            std::string::npos);
}

TEST_F(MappingServerTest, MapResponseMatchesSingleShotService) {
  start_server();
  for (const std::string& query : queries_) {
    const MapServiceResponse expected =
        service_->map(MapServiceRequest::make().sequence(query).build());
    const HttpResponse response = post_map(query);
    ASSERT_EQ(response.status, 200);
    if (expected.mapped()) {
      const std::string fragment =
          "{\"subject\":\"" + expected.hits[0].subject_name +
          "\",\"votes\":" + std::to_string(expected.hits[0].votes) + "}";
      EXPECT_NE(response.body.find(fragment), std::string::npos)
          << response.body;
      EXPECT_NE(response.body.find("\"mapped\":true"), std::string::npos);
    } else {
      EXPECT_NE(response.body.find("\"mapped\":false"), std::string::npos);
    }
  }
}

TEST_F(MappingServerTest, ConcurrentResponsesMatchSingleShotService) {
  ServerConfig config;
  config.cache_capacity = 0;  // every answer comes from a worker's kernel
  start_server(config);

  // Fire every query concurrently, so several workers map at once with
  // their own warm scratches, then check each body byte for byte against
  // the single-shot service answer.
  std::vector<HttpResponse> responses(queries_.size());
  std::vector<std::thread> clients;
  clients.reserve(queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = post_map(queries_[i], "?top_x=3"); });
  }
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < queries_.size(); ++i) {
    ASSERT_EQ(responses[i].status, 200) << responses[i].body;
    const MapServiceResponse expected = service_->map(
        MapServiceRequest::make().sequence(queries_[i]).top_x(3).build());
    EXPECT_EQ(responses[i].body, expected_miss_body(expected));
  }
}

TEST_F(MappingServerTest, HandleWithoutStartMatchesAStartedServer) {
  // handle() on a server that was never started maps on the caller's
  // thread with a one-shot scratch.
  MappingServer idle(*service_, ServerConfig{});
  start_server();
  for (const std::string top_x : {"1", "3"}) {
    for (const std::string& query : queries_) {
      HttpRequest request;
      request.method = "POST";
      request.path = "/map";
      request.target = "/map?top_x=" + top_x;
      request.query = {{"top_x", top_x}};
      request.body = query;
      const HttpResponse direct = idle.handle(request);
      const HttpResponse served = post_map(query, "?top_x=" + top_x);
      ASSERT_EQ(direct.status, 200) << direct.body;
      EXPECT_EQ(direct.status, served.status);
      EXPECT_EQ(direct.body, served.body);
    }
  }
  EXPECT_FALSE(idle.running());
}

TEST_F(MappingServerTest, RoutingErrorsAreStructured) {
  start_server();
  const HttpResponse missing =
      http_get("127.0.0.1", server_->port(), "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("\"error\":\"invalid-argument\""),
            std::string::npos);

  const HttpResponse wrong_method =
      http_get("127.0.0.1", server_->port(), "/map");
  EXPECT_EQ(wrong_method.status, 405);

  const HttpResponse empty_body = post_map("");
  EXPECT_EQ(empty_body.status, 400);
  EXPECT_NE(empty_body.body.find("\"field\":\"sequence\""), std::string::npos);

  const HttpResponse bad_param = post_map(queries_[0], "?top_x=banana");
  EXPECT_EQ(bad_param.status, 400);
  EXPECT_NE(bad_param.body.find("\"field\":\"top_x\""), std::string::npos);
}

TEST_F(MappingServerTest, ExpiredDeadlineIsGatewayTimeout) {
  // One worker, held 300 ms reading the first connection: the other
  // request waits in the admission queue past its 1 ms deadline, which runs
  // from accept(), so it expires before its kernel would run.
  util::FaultPlan plan;
  plan.delay_at(util::FaultPlan::kAnyRank, "serve.read", 0,
                std::chrono::milliseconds(300));
  ServerConfig config;
  config.workers = 1;
  config.fault_plan = &plan;
  start_server(config);

  std::thread held([&] { (void)post_map(queries_[0]); });
  ASSERT_TRUE(eventually(
      [&] { return metric("serve.chaos.injected.delay") >= 1; }));
  const HttpResponse response = post_map(queries_[1], "?deadline_ms=1");
  held.join();
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("\"error\":\"deadline-exceeded\""),
            std::string::npos);
  EXPECT_GE(metric("serve.deadline.expired"), 1u);
}

TEST_F(MappingServerTest, FullAdmissionQueueShedsWith503RetryAfter) {
  // One worker, held 2 s reading connection A; B fills the capacity-1
  // admission queue, so the acceptor must shed C on the spot.
  util::FaultPlan plan;
  plan.delay_at(util::FaultPlan::kAnyRank, "serve.read", 0,
                std::chrono::milliseconds(2000));
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.retry_after_s = 7;
  config.fault_plan = &plan;
  start_server(config);

  std::thread first([&] { (void)post_map(queries_[0]); });
  // A is picked up once the worker's injected read delay has started.
  ASSERT_TRUE(eventually(
      [&] { return metric("serve.chaos.injected.delay") >= 1; }));
  std::thread second([&] { (void)post_map(queries_[1]); });
  // B's admission is visible as the queue-depth gauge going to 1.
  const auto depth_is_one = [&] {
    const auto snapshot = server_->registry().snapshot();
    const auto* depth = snapshot.find("serve.queue.depth");
    return depth != nullptr && depth->level >= 1;
  };
  ASSERT_TRUE(eventually(depth_is_one));

  const HttpResponse shed = post_map(queries_[2]);
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("\"error\":\"overloaded\""), std::string::npos);
  bool has_retry_after = false;
  for (const auto& [name, value] : shed.headers) {
    if (name == "retry-after") {
      has_retry_after = true;
      EXPECT_EQ(value, "7");
    }
  }
  EXPECT_TRUE(has_retry_after);

  first.join();
  second.join();
  EXPECT_GE(metric("serve.http.shed"), 1u);
}

TEST_F(MappingServerTest, CacheHitsEvictionsAndCollisionKeying) {
  ServerConfig config;
  config.cache_capacity = 2;
  start_server(config);

  const HttpResponse miss = post_map(queries_[0]);
  ASSERT_EQ(miss.status, 200);
  EXPECT_NE(miss.body.find("\"cache\":\"miss\""), std::string::npos);

  const HttpResponse hit = post_map(queries_[0]);
  ASSERT_EQ(hit.status, 200);
  EXPECT_NE(hit.body.find("\"cache\":\"hit\""), std::string::npos);
  // Apart from the cache marker, hit and miss answers are byte-identical.
  std::string normalized_miss = miss.body;
  std::string normalized_hit = hit.body;
  const auto strip = [](std::string& text) {
    const std::size_t at = text.find("\"cache\":\"");
    const std::size_t end = text.find('"', at + 9);
    text.erase(at, end - at + 1);
  };
  strip(normalized_miss);
  strip(normalized_hit);
  EXPECT_EQ(normalized_miss, normalized_hit);

  // Same sequence, different top_x: a distinct cache key, so no false hit.
  const HttpResponse other_key = post_map(queries_[0], "?top_x=3");
  ASSERT_EQ(other_key.status, 200);
  EXPECT_NE(other_key.body.find("\"cache\":\"miss\""), std::string::npos);

  // Capacity 2: two more distinct keys evict the oldest entry.
  (void)post_map(queries_[1]);
  const HttpResponse evicted = post_map(queries_[0]);
  EXPECT_NE(evicted.body.find("\"cache\":\"miss\""), std::string::npos);

  const auto snapshot = server_->registry().snapshot();
  const auto* hits = snapshot.find("serve.cache.hits");
  const auto* evictions = snapshot.find("serve.cache.evictions");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(evictions, nullptr);
  EXPECT_GE(hits->value, 1u);
  EXPECT_GE(evictions->value, 1u);
}

/// Many clients, mixed endpoints, while every worker maps — the test the
/// TSan configuration leans on for the serve layer's thread safety.
TEST_F(MappingServerTest, ConcurrentClientsAllSucceed) {
  ServerConfig config;
  config.workers = 4;
  start_server(config);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        try {
          if (i % 3 == 2) {
            const HttpResponse response =
                http_get("127.0.0.1", server_->port(), "/healthz");
            if (response.status != 200) failures.fetch_add(1);
          } else {
            const HttpResponse response = post_map(
                queries_[static_cast<std::size_t>(t + i) % queries_.size()]);
            if (response.status != 200) failures.fetch_add(1);
          }
        } catch (const ClientError&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(MappingServerTest, StopIsGracefulAndIdempotent) {
  start_server();
  ASSERT_TRUE(server_->running());
  (void)post_map(queries_[0]);
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->stop();  // idempotent
  // The port is released: a fresh server can bind and serve again.
  server_.reset();
  start_server();
  EXPECT_EQ(post_map(queries_[0]).status, 200);
}

}  // namespace
}  // namespace jem::serve
