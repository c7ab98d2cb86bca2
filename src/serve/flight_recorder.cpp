#include "serve/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace jem::serve {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

bool matches(const FlightRecord& record, const FlightFilter& f) {
  if (f.status != 0 && record.status != f.status) return false;
  if (record.total_ns < f.min_total_ns) return false;
  return true;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)), shards_(kShards) {
  // Spread capacity across shards; every shard holds at least one slot so a
  // tiny recorder still accepts records from every stripe.
  const std::size_t per_shard = (capacity_ + kShards - 1) / kShards;
  for (Shard& shard : shards_) shard.ring.resize(std::max<std::size_t>(per_shard, 1));
}

void FlightRecorder::push(FlightRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = shards_[obs::this_thread_stripe() % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.ring[shard.next] = std::move(record);
  shard.next = (shard.next + 1) % shard.ring.size();
  shard.used = std::min(shard.used + 1, shard.ring.size());
}

std::vector<FlightRecord> FlightRecorder::dump(const FlightFilter& filter) const {
  std::vector<FlightRecord> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i = 0; i < shard.used; ++i) {
      const FlightRecord& record = shard.ring[i];
      if (matches(record, filter)) out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > filter.limit) out.resize(filter.limit);
  return out;
}

std::string FlightRecorder::to_json(const FlightFilter& filter) const {
  const std::vector<FlightRecord> records = dump(filter);
  std::string out;
  out.reserve(256 + records.size() * 256);
  out += "{\"capacity\":";
  append_u64(out, capacity_);
  out += ",\"recorded\":";
  append_u64(out, recorded());
  out += ",\"requests\":[";
  bool first = true;
  for (const FlightRecord& r : records) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":";
    append_u64(out, r.seq);
    out += ",\"trace_id\":\"";
    out += obs::json::escape(r.trace_id);
    out += "\",\"request_id\":\"";
    out += obs::json::escape(r.request_id);
    out += "\",\"endpoint\":\"";
    out += obs::json::escape(r.endpoint);
    out += "\",\"status\":";
    append_u64(out, static_cast<std::uint64_t>(r.status));
    out += ",\"cache_hit\":";
    out += r.cache_hit ? "true" : "false";
    out += ",\"queue_wait_ns\":";
    append_u64(out, r.queue_wait_ns);
    out += ",\"map_ns\":";
    append_u64(out, r.map_ns);
    out += ",\"serialize_ns\":";
    append_u64(out, r.serialize_ns);
    out += ",\"total_ns\":";
    append_u64(out, r.total_ns);
    out += ",\"annotation\":\"";
    out += obs::json::escape(r.annotation);
    out += "\"}";
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::to_text(std::size_t limit) const {
  FlightFilter filter;
  filter.limit = limit;
  const std::vector<FlightRecord> records = dump(filter);
  std::string out = "flight recorder: ";
  append_u64(out, recorded());
  out += " recorded, showing ";
  append_u64(out, records.size());
  out += " (newest first)\n";
  for (const FlightRecord& r : records) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  #%-6" PRIu64 " %s-%s %-16s %3d %s wait=%" PRIu64
                  "us map=%" PRIu64 "us ser=%" PRIu64 "us total=%" PRIu64
                  "us%s%s\n",
                  r.seq, r.trace_id.c_str(), r.request_id.c_str(),
                  r.endpoint.c_str(), r.status, r.cache_hit ? "hit " : "miss",
                  r.queue_wait_ns / 1000, r.map_ns / 1000,
                  r.serialize_ns / 1000, r.total_ns / 1000,
                  r.annotation.empty() ? "" : " ",
                  r.annotation.c_str());
    out += line;
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  return seq_.load(std::memory_order_relaxed);
}

}  // namespace jem::serve
