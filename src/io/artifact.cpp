#include "io/artifact.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "io/file.hpp"

namespace jem::io {

// ---------------------------------------------------------------------------
// XXH64 (reference constants; Collet's xxHash, BSD-licensed algorithm).

namespace {

constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

std::uint64_t read_u64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian platform (enforced by the format docs)
}

std::uint32_t read_u32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t round_step(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kPrime2;
  acc = rotl(acc, 31);
  return acc * kPrime1;
}

std::uint64_t merge_round(std::uint64_t acc, std::uint64_t val) noexcept {
  acc ^= round_step(0, val);
  return acc * kPrime1 + kPrime4;
}

std::uint64_t finalize(std::uint64_t h, const unsigned char* p,
                       std::size_t len) noexcept {
  while (len >= 8) {
    h ^= round_step(0, read_u64(p));
    h = rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    h ^= static_cast<std::uint64_t>(read_u32(p)) * kPrime1;
    h = rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    len -= 4;
  }
  while (len > 0) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = rotl(h, 11) * kPrime1;
    ++p;
    --len;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace

std::uint64_t xxh64(std::string_view data, std::uint64_t seed) noexcept {
  Xxh64Stream stream(seed);
  stream.update(data);
  return stream.digest();
}

Xxh64Stream::Xxh64Stream(std::uint64_t seed) noexcept : seed_(seed) {
  acc_[0] = seed + kPrime1 + kPrime2;
  acc_[1] = seed + kPrime2;
  acc_[2] = seed;
  acc_[3] = seed - kPrime1;
}

void Xxh64Stream::update(std::string_view data) noexcept {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t len = data.size();
  total_ += len;

  if (buffered_ > 0) {
    const std::size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) return;
    for (int i = 0; i < 4; ++i) {
      acc_[i] = round_step(acc_[i], read_u64(buffer_ + 8 * i));
    }
    buffered_ = 0;
  }

  while (len >= sizeof(buffer_)) {
    for (int i = 0; i < 4; ++i) {
      acc_[i] = round_step(acc_[i], read_u64(p + 8 * i));
    }
    p += sizeof(buffer_);
    len -= sizeof(buffer_);
  }

  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }
}

std::uint64_t Xxh64Stream::digest() const noexcept {
  std::uint64_t h;
  if (total_ >= sizeof(buffer_)) {
    h = rotl(acc_[0], 1) + rotl(acc_[1], 7) + rotl(acc_[2], 12) +
        rotl(acc_[3], 18);
    for (int i = 0; i < 4; ++i) h = merge_round(h, acc_[i]);
  } else {
    h = seed_ + kPrime5;
  }
  h += total_;
  return finalize(h, buffer_, buffered_);
}

// ---------------------------------------------------------------------------
// Container framing.

std::string_view artifact_reason_name(ArtifactReason reason) noexcept {
  switch (reason) {
    case ArtifactReason::kOpenFailed: return "open-failed";
    case ArtifactReason::kBadMagic: return "bad-magic";
    case ArtifactReason::kBadVersion: return "bad-version";
    case ArtifactReason::kTruncated: return "truncated";
    case ArtifactReason::kChecksumMismatch: return "checksum-mismatch";
    case ArtifactReason::kBadSection: return "bad-section";
    case ArtifactReason::kParamsMismatch: return "params-mismatch";
    case ArtifactReason::kStaleJournal: return "stale-journal";
    case ArtifactReason::kIoError: return "io-error";
  }
  return "unknown";
}

std::uint64_t artifact_tag(std::string_view tag) {
  if (tag.empty() || tag.size() > 8) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "section tag must be 1..8 bytes: '" +
                            std::string(tag) + "'");
  }
  std::uint64_t value = 0;
  std::memcpy(&value, tag.data(), tag.size());
  return value;
}

namespace {

constexpr std::size_t kHeaderSize = 16;       // magic + version + count
constexpr std::size_t kSectionHeader = 24;    // tag + size + checksum
// Sanity cap so a corrupted section_count cannot drive a giant loop: no
// artifact in this codebase has more than a handful of sections.
constexpr std::uint32_t kMaxSections = 4096;

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

void ArtifactWriter::add_section(std::string_view tag,
                                 std::span<const std::byte> payload) {
  add_section(tag, std::string_view(
                       reinterpret_cast<const char*>(payload.data()),
                       payload.size()));
}

void ArtifactWriter::add_section(std::string_view tag,
                                 std::string_view payload) {
  sections_.push_back({artifact_tag(tag), std::string(payload)});
}

std::string ArtifactWriter::serialize() const {
  std::string out;
  std::size_t total = kHeaderSize;
  for (const Section& s : sections_) total += kSectionHeader + s.payload.size();
  out.reserve(total);

  append_u64(out, magic_);
  append_u32(out, version_);
  append_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    append_u64(out, s.tag);
    append_u64(out, static_cast<std::uint64_t>(s.payload.size()));
    append_u64(out, xxh64(s.payload));
    out.append(s.payload);
  }
  return out;
}

void ArtifactWriter::save(const std::string& path) const {
  atomic_write_file(path, serialize());
}

ArtifactReader::ArtifactReader(std::string bytes, std::uint64_t expected_magic,
                               std::uint32_t expected_version)
    : bytes_(std::move(bytes)) {
  const auto* data = reinterpret_cast<const unsigned char*>(bytes_.data());
  if (bytes_.size() < kHeaderSize) {
    throw ArtifactError(ArtifactReason::kTruncated,
                        "file shorter than the artifact header (" +
                            std::to_string(bytes_.size()) + " bytes)");
  }
  const std::uint64_t magic = read_u64(data);
  if (magic != expected_magic) {
    throw ArtifactError(ArtifactReason::kBadMagic,
                        "magic mismatch (not this artifact kind)");
  }
  const std::uint32_t version = read_u32(data + 8);
  if (version != expected_version) {
    throw ArtifactError(ArtifactReason::kBadVersion,
                        "format version " + std::to_string(version) +
                            ", expected " + std::to_string(expected_version));
  }
  const std::uint32_t count = read_u32(data + 12);
  if (count > kMaxSections) {
    throw ArtifactError(ArtifactReason::kTruncated,
                        "implausible section count " + std::to_string(count));
  }

  std::size_t cursor = kHeaderSize;
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (bytes_.size() - cursor < kSectionHeader) {
      throw ArtifactError(ArtifactReason::kTruncated,
                          "file ends inside section header " +
                              std::to_string(i));
    }
    const std::uint64_t tag = read_u64(data + cursor);
    const std::uint64_t size = read_u64(data + cursor + 8);
    const std::uint64_t checksum = read_u64(data + cursor + 16);
    cursor += kSectionHeader;
    if (bytes_.size() - cursor < size) {
      throw ArtifactError(ArtifactReason::kTruncated,
                          "file ends inside section payload " +
                              std::to_string(i) + " (need " +
                              std::to_string(size) + " bytes, have " +
                              std::to_string(bytes_.size() - cursor) + ")");
    }
    const std::string_view payload(bytes_.data() + cursor,
                                   static_cast<std::size_t>(size));
    if (xxh64(payload) != checksum) {
      throw ArtifactError(ArtifactReason::kChecksumMismatch,
                          "section " + std::to_string(i) +
                              " payload fails its XXH64 checksum");
    }
    sections_.push_back({tag, cursor, static_cast<std::size_t>(size)});
    cursor += size;
  }
  if (cursor != bytes_.size()) {
    throw ArtifactError(ArtifactReason::kTruncated,
                        "trailing bytes after the last section");
  }
}

ArtifactReader ArtifactReader::open(const std::string& path,
                                    std::uint64_t expected_magic,
                                    std::uint32_t expected_version) {
  std::optional<std::string> raw = read_file(path);
  if (!raw) {
    throw ArtifactError(ArtifactReason::kOpenFailed,
                        "cannot open artifact: " + path);
  }
  return ArtifactReader(std::move(*raw), expected_magic, expected_version);
}

bool ArtifactReader::has_section(std::string_view tag) const noexcept {
  std::uint64_t value = 0;
  if (tag.empty() || tag.size() > 8) return false;
  std::memcpy(&value, tag.data(), tag.size());
  for (const Entry& e : sections_) {
    if (e.tag == value) return true;
  }
  return false;
}

std::string_view ArtifactReader::section(std::string_view tag) const {
  const std::uint64_t value = artifact_tag(tag);
  for (const Entry& e : sections_) {
    if (e.tag == value) return {bytes_.data() + e.offset, e.size};
  }
  throw ArtifactError(ArtifactReason::kBadSection,
                      "required section missing: '" + std::string(tag) + "'");
}

std::string_view ArtifactReader::section(std::string_view tag,
                                         std::size_t expected_size) const {
  const std::string_view payload = section(tag);
  if (payload.size() != expected_size) {
    throw ArtifactError(ArtifactReason::kBadSection,
                        "section '" + std::string(tag) + "' has " +
                            std::to_string(payload.size()) +
                            " bytes, expected " +
                            std::to_string(expected_size));
  }
  return payload;
}

// ---------------------------------------------------------------------------
// Atomic publish.

void atomic_write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw ArtifactError(ArtifactReason::kIoError,
                        "cannot create temp file " + tmp + ": " +
                            std::strerror(errno));
  }
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw ArtifactError(ArtifactReason::kIoError,
                          "write to " + tmp + " failed: " +
                              std::strerror(err));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw ArtifactError(ArtifactReason::kIoError,
                        "fsync/close of " + tmp + " failed: " +
                            std::strerror(err));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw ArtifactError(ArtifactReason::kIoError,
                        "rename " + tmp + " -> " + path + " failed: " +
                            std::strerror(err));
  }
  // Durability of the rename itself: fsync the containing directory.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);  // best-effort; some filesystems reject dir fsync
    ::close(dfd);
  }
}

}  // namespace jem::io
