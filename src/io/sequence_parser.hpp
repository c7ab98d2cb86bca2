// The one FASTA/FASTQ record grammar, shared by the whole-file loader
// (io/fasta.cpp: load_into, read_fasta/read_fastq/read_sequences) and the
// incremental SequenceStreamReader, so the two cannot drift apart.
// RecordReader is a template over a line source (BufferLines scans an
// in-memory file with memchr; StreamLines wraps std::getline), and its
// next() over a sink (RecordSink fills a SequenceRecord; SetSink appends
// bases straight into a SequenceSet's arena). Internal to jem_io.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <string>
#include <string_view>
#include <utility>

#include "io/fasta.hpp"
#include "io/sequence.hpp"
#include "io/sequence_set.hpp"
#include "util/string_util.hpp"

namespace jem::io::detail {

/// The "C"-locale isspace bytes, as a 256-entry table: the bytes dropped
/// from base lines.
inline constexpr std::array<bool, 256> kSpace = [] {
  std::array<bool, 256> table{};
  for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[c] = true;
  }
  return table;
}();

[[nodiscard]] inline bool is_space(char c) noexcept {
  return kSpace[static_cast<unsigned char>(c)];
}

/// "C"-locale toupper.
[[nodiscard]] constexpr char to_upper(char c) noexcept {
  const auto byte = static_cast<unsigned char>(c);
  return static_cast<char>(byte >= 'a' && byte <= 'z' ? byte - ('a' - 'A')
                                                      : byte);
}

/// Appends `line` to `dst`, uppercased, whitespace dropped.
inline void append_bases(std::string& dst, std::string_view line) {
  const std::size_t old = dst.size();
  dst.resize(old + line.size());
  char* out = dst.data() + old;
  // Every whitespace byte is <= ' ', and base lines rarely hold any: then
  // the copy is a plain (vectorizable) uppercase map.
  unsigned char lowest = 0xff;
  for (const char c : line) {
    lowest = std::min(lowest, static_cast<unsigned char>(c));
  }
  if (lowest > ' ') {
    for (std::size_t i = 0; i < line.size(); ++i) out[i] = to_upper(line[i]);
    return;
  }
  std::size_t n = 0;
  for (const char c : line) {
    out[n] = to_upper(c);
    n += is_space(c) ? 0 : 1;
  }
  dst.resize(old + n);
}

/// The name (up to the first space or tab) of a header line's text.
[[nodiscard]] inline std::string_view header_name(std::string_view header) {
  return header.substr(0, header.find_first_of(" \t"));
}

/// The comment (the trimmed text after the name) of a header line's text.
[[nodiscard]] inline std::string_view header_comment(std::string_view header) {
  const std::size_t ws = header.find_first_of(" \t");
  if (ws == std::string_view::npos) return {};
  return util::trim(header.substr(ws + 1));
}

/// skip_space()'s end-of-input marker (distinct from every byte value).
inline constexpr int kEnd = std::char_traits<char>::eof();

/// Drops one trailing '\r' (CRLF input).
[[nodiscard]] inline std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Lines of an in-memory buffer, '\n'-terminated, CR stripped; a final line
/// without '\n' counts, an empty one after the last '\n' does not (the
/// std::getline convention).
class BufferLines {
 public:
  explicit BufferLines(std::string_view data) : rest_(data) {}

  [[nodiscard]] bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const void* newline = std::memchr(rest_.data(), '\n', rest_.size());
    const std::size_t length =
        newline == nullptr
            ? rest_.size()
            : static_cast<std::size_t>(static_cast<const char*>(newline) -
                                       rest_.data());
    line = strip_cr(rest_.substr(0, length));
    rest_.remove_prefix(newline == nullptr ? length : length + 1);
    return true;
  }

  /// Drops leading whitespace; returns the first remaining byte, or kEnd
  /// at end of input.
  [[nodiscard]] int skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
    return rest_.empty() ? kEnd : static_cast<unsigned char>(rest_.front());
  }

 private:
  std::string_view rest_;
};

/// Lines of a std::istream via std::getline, CR stripped. A returned view
/// is valid until the next call.
class StreamLines {
 public:
  explicit StreamLines(std::istream& in) : in_(in) {}

  [[nodiscard]] bool next(std::string_view& line) {
    if (!std::getline(in_, buffer_)) return false;
    line = strip_cr(buffer_);
    return true;
  }

  /// Drops leading whitespace; returns the first remaining byte, or kEnd
  /// at end of input.
  [[nodiscard]] int skip_space() {
    int c = in_.peek();
    while (c != kEnd && is_space(static_cast<char>(c))) {
      in_.get();
      c = in_.peek();
    }
    return c;
  }

 private:
  std::istream& in_;
  std::string buffer_;
};

/// Fills one SequenceRecord (name, comment, bases, quality).
struct RecordSink {
  SequenceRecord& record;

  void start(std::string_view header) {
    record.name.assign(header_name(header));
    record.comment.assign(header_comment(header));
    record.bases.clear();
    record.quality.clear();
  }
  [[nodiscard]] const std::string& name() const { return record.name; }
  [[nodiscard]] std::string& bases() { return record.bases; }
  [[nodiscard]] std::size_t length() const { return record.bases.size(); }
  void quality(std::string_view line) { record.quality.assign(line); }
};

/// Appends bases straight into a SequenceSet's arena; the caller closes
/// each record with set.add_pending(sink.name()). Comments and qualities
/// are not kept.
struct SetSink {
  SequenceSet& set;
  std::string current;

  void start(std::string_view header) { current.assign(header_name(header)); }
  [[nodiscard]] const std::string& name() const { return current; }
  [[nodiscard]] std::string& bases() { return set.pending_bases(); }
  [[nodiscard]] std::size_t length() const { return set.pending_size(); }
  void quality(std::string_view /*line*/) {}
};

enum class Format { kAuto, kFasta, kFastq };

/// The record grammar over a line source: next(sink) parses one record
/// into `sink` and returns false at end of input; a malformed record
/// throws ParseError. kAuto picks FASTA or FASTQ from the first
/// non-whitespace byte ('>' or '@') when constructed.
template <class Lines>
class RecordReader {
 public:
  RecordReader(Lines lines, Format format)
      : lines_(std::move(lines)), format_(format) {
    if (format_ != Format::kAuto) return;
    const int first = lines_.skip_space();
    if (first == kEnd) {
      done_ = true;
    } else if (first == '>') {
      format_ = Format::kFasta;
    } else if (first == '@') {
      format_ = Format::kFastq;
    } else {
      throw ParseError("input is neither FASTA ('>') nor FASTQ ('@')");
    }
  }

  template <class Sink>
  [[nodiscard]] bool next(Sink& sink) {
    if (done_) return false;
    const bool got =
        format_ == Format::kFastq ? next_fastq(sink) : next_fasta(sink);
    if (!got) done_ = true;
    return got;
  }

 private:
  /// The next non-blank line; false at end of input.
  [[nodiscard]] bool next_nonblank(std::string_view& line) {
    while (lines_.next(line)) {
      if (!line.empty()) return true;
    }
    return false;
  }

  template <class Sink>
  [[nodiscard]] bool next_fastq(Sink& sink) {
    std::string_view line;
    if (!next_nonblank(line)) return false;
    if (line.front() != '@') {
      throw ParseError("FASTQ record does not start with '@': " +
                       std::string(line));
    }
    sink.start(line.substr(1));
    if (sink.name().empty()) {
      throw ParseError("FASTQ header with empty sequence name");
    }
    if (!lines_.next(line)) {
      throw ParseError("FASTQ record '" + sink.name() +
                       "' truncated (no bases)");
    }
    append_bases(sink.bases(), line);
    if (!lines_.next(line) || line.empty() || line.front() != '+') {
      throw ParseError("FASTQ record '" + sink.name() + "' missing '+' line");
    }
    if (!lines_.next(line)) {
      throw ParseError("FASTQ record '" + sink.name() +
                       "' truncated (no quality)");
    }
    if (line.size() != sink.length()) {
      throw ParseError("FASTQ record '" + sink.name() +
                       "': quality length != sequence length");
    }
    sink.quality(line);
    return true;
  }

  /// A FASTA record runs from its header to the next '>' line, whose text
  /// is kept as the following record's header.
  template <class Sink>
  [[nodiscard]] bool next_fasta(Sink& sink) {
    std::string_view line;
    if (!has_header_) {
      if (!next_nonblank(line)) return false;
      if (line.front() != '>') {
        throw ParseError("FASTA input does not start with '>'");
      }
      header_.assign(line.substr(1));
    }
    sink.start(header_);
    if (sink.name().empty()) {
      throw ParseError("FASTA header with empty sequence name");
    }
    has_header_ = false;
    while (lines_.next(line)) {
      if (line.empty()) continue;
      if (line.front() == '>') {
        header_.assign(line.substr(1));
        has_header_ = true;
        break;
      }
      append_bases(sink.bases(), line);
    }
    if (sink.length() == 0) {
      throw ParseError("FASTA record '" + sink.name() + "' has no sequence");
    }
    if (!has_header_) done_ = true;
    return true;
  }

  Lines lines_;
  Format format_;
  bool done_ = false;
  std::string header_;  // FASTA: the current record's header text
  bool has_header_ = false;
};

}  // namespace jem::io::detail
