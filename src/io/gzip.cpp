#include "io/gzip.hpp"

#include <zlib.h>

#include <stdexcept>

#include "io/file.hpp"
#include "obs/metrics.hpp"

namespace jem::io {

std::string_view gzip_reason_name(GzipReason reason) noexcept {
  switch (reason) {
    case GzipReason::kInitFailed: return "init-failed";
    case GzipReason::kTruncated: return "truncated";
    case GzipReason::kBadData: return "bad-data";
    case GzipReason::kBadCrc: return "bad-crc";
    case GzipReason::kBadLength: return "bad-length";
    case GzipReason::kTrailingGarbage: return "trailing-garbage";
  }
  return "unknown";
}

bool is_gzip(std::string_view data) noexcept {
  return data.size() >= 2 && static_cast<unsigned char>(data[0]) == 0x1f &&
         static_cast<unsigned char>(data[1]) == 0x8b;
}

namespace {

/// zlib reports trailer failures as Z_DATA_ERROR with a fixed msg string —
/// the only channel that distinguishes a corrupt deflate block from a
/// CRC32 or ISIZE mismatch in the member trailer.
GzipReason classify_data_error(const char* msg) noexcept {
  const std::string_view text = msg == nullptr ? "" : msg;
  if (text == "incorrect data check") return GzipReason::kBadCrc;
  if (text == "incorrect length check") return GzipReason::kBadLength;
  return GzipReason::kBadData;
}

}  // namespace

std::string gzip_decompress(std::string_view data) {
  z_stream stream{};
  // 15 window bits + 16 selects gzip decoding (zlib then verifies each
  // member's CRC32 + ISIZE trailer against the inflated bytes).
  if (inflateInit2(&stream, 15 + 16) != Z_OK) {
    throw GzipError(GzipReason::kInitFailed, "inflateInit2 failed");
  }

  std::string out;
  std::string buffer(1 << 16, '\0');
  stream.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(data.data()));
  stream.avail_in = static_cast<uInt>(data.size());

  // Outer loop: one iteration per gzip member (`cat a.gz b.gz` decodes to
  // the concatenation, as gzip(1) does).
  for (;;) {
    int rc = Z_OK;
    do {
      stream.next_out = reinterpret_cast<Bytef*>(buffer.data());
      stream.avail_out = static_cast<uInt>(buffer.size());
      rc = inflate(&stream, Z_NO_FLUSH);
      if (rc == Z_DATA_ERROR) {
        const GzipReason reason = classify_data_error(stream.msg);
        const std::string detail =
            stream.msg != nullptr ? stream.msg : "corrupt deflate stream";
        inflateEnd(&stream);
        throw GzipError(reason, detail);
      }
      if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
        inflateEnd(&stream);
        throw GzipError(GzipReason::kBadData,
                        "inflate rc=" + std::to_string(rc));
      }
      out.append(buffer.data(), buffer.size() - stream.avail_out);
      // All input consumed without reaching the member's end: the file was
      // cut off mid-member (a crash or partial download).
      if (rc != Z_STREAM_END && stream.avail_in == 0) {
        inflateEnd(&stream);
        throw GzipError(GzipReason::kTruncated,
                        "input ends mid-member after " +
                            std::to_string(out.size()) + " bytes of output");
      }
    } while (rc != Z_STREAM_END);

    if (stream.avail_in == 0) break;  // clean end of the last member
    const std::string_view rest(
        reinterpret_cast<const char*>(stream.next_in), stream.avail_in);
    if (!is_gzip(rest)) {
      const std::size_t extra = rest.size();
      inflateEnd(&stream);
      throw GzipError(GzipReason::kTrailingGarbage,
                      std::to_string(extra) +
                          " bytes after the final gzip member");
    }
    if (inflateReset(&stream) != Z_OK) {
      inflateEnd(&stream);
      throw GzipError(GzipReason::kInitFailed, "inflateReset failed");
    }
  }

  inflateEnd(&stream);
  obs::Registry& registry = obs::default_registry();
  registry.counter("io.gzip.streams").add(1);
  registry.counter("io.gzip.in_bytes", obs::Unit::kBytes).add(data.size());
  registry.counter("io.gzip.out_bytes", obs::Unit::kBytes).add(out.size());
  return out;
}

std::string gzip_compress(std::string_view data, int level) {
  z_stream stream{};
  if (deflateInit2(&stream, level, Z_DEFLATED, 15 + 16, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("gzip: deflateInit2 failed");
  }

  std::string out;
  std::string buffer(1 << 16, '\0');
  stream.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(data.data()));
  stream.avail_in = static_cast<uInt>(data.size());

  int rc = Z_OK;
  do {
    stream.next_out = reinterpret_cast<Bytef*>(buffer.data());
    stream.avail_out = static_cast<uInt>(buffer.size());
    rc = deflate(&stream, Z_FINISH);
    if (rc == Z_STREAM_ERROR) {
      deflateEnd(&stream);
      throw std::runtime_error("gzip: deflate failed");
    }
    out.append(buffer.data(), buffer.size() - stream.avail_out);
  } while (rc != Z_STREAM_END);

  deflateEnd(&stream);
  return out;
}

std::string read_file_auto(const std::string& path) {
  std::optional<std::string> raw = read_file(path);
  if (!raw) throw std::runtime_error("cannot open file: " + path);
  std::string data = std::move(*raw);
  obs::Registry& registry = obs::default_registry();
  registry.counter("io.file.reads").add(1);
  registry.counter("io.file.bytes", obs::Unit::kBytes).add(data.size());
  if (is_gzip(data)) return gzip_decompress(data);
  return data;
}

}  // namespace jem::io
