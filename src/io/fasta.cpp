#include "io/fasta.hpp"

#include <fstream>
#include <iterator>

#include "io/gzip.hpp"
#include "io/sequence_parser.hpp"

namespace jem::io {

namespace {

using detail::Format;

std::vector<SequenceRecord> parse_records(std::string_view data,
                                          Format format) {
  detail::RecordReader reader(detail::BufferLines(data), format);
  std::vector<SequenceRecord> records;
  SequenceRecord record;
  detail::RecordSink sink{record};
  while (reader.next(sink)) records.push_back(std::move(record));
  return records;
}

/// The whole (gunzipped) file; every failure is a ParseError.
std::string read_input(const std::string& path) {
  try {
    return read_file_auto(path);
  } catch (const std::exception& error) {
    throw ParseError(error.what());
  }
}

std::string slurp(std::istream& in) {
  return {std::istreambuf_iterator<char>(in), {}};
}

}  // namespace

std::vector<SequenceRecord> read_fasta(std::istream& in) {
  return parse_records(slurp(in), Format::kFasta);
}

std::vector<SequenceRecord> read_fastq(std::istream& in) {
  return parse_records(slurp(in), Format::kFastq);
}

std::vector<SequenceRecord> read_sequences(std::istream& in) {
  return parse_records(slurp(in), Format::kAuto);
}

std::vector<SequenceRecord> read_sequences_file(const std::string& path) {
  return parse_records(read_input(path), Format::kAuto);
}

void load_into(const std::string& path, SequenceSet& out) {
  const std::string data = read_input(path);
  const std::size_t committed = out.size();
  // Bases never outnumber the file's bytes: one reservation, no regrowth.
  out.reserve(committed, out.total_bases() + data.size());
  try {
    detail::RecordReader reader(detail::BufferLines(data), Format::kAuto);
    detail::SetSink sink{out, {}};
    while (reader.next(sink)) (void)out.add_pending(sink.name());
  } catch (...) {
    out.truncate(committed);  // a malformed file adds nothing
    throw;
  }
}

namespace {
void write_wrapped(std::ostream& out, std::string_view bases,
                   std::size_t line_width) {
  if (line_width == 0) {
    out << bases << '\n';
    return;
  }
  for (std::size_t pos = 0; pos < bases.size(); pos += line_width) {
    out << bases.substr(pos, line_width) << '\n';
  }
}
}  // namespace

void write_fasta(std::ostream& out, std::span<const SequenceRecord> records,
                 std::size_t line_width) {
  for (const SequenceRecord& rec : records) {
    out << '>' << rec.name;
    if (!rec.comment.empty()) out << ' ' << rec.comment;
    out << '\n';
    write_wrapped(out, rec.bases, line_width);
  }
}

void write_fasta(std::ostream& out, const SequenceSet& set,
                 std::size_t line_width) {
  for (SeqId id = 0; id < set.size(); ++id) {
    out << '>' << set.name(id) << '\n';
    write_wrapped(out, set.bases(id), line_width);
  }
}

void write_fasta_file(const std::string& path,
                      std::span<const SequenceRecord> records,
                      std::size_t line_width) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open file for writing: " + path);
  write_fasta(out, records, line_width);
}

void write_fastq(std::ostream& out, std::span<const SequenceRecord> records) {
  for (const SequenceRecord& rec : records) {
    out << '@' << rec.name;
    if (!rec.comment.empty()) out << ' ' << rec.comment;
    out << '\n' << rec.bases << "\n+\n";
    if (rec.quality.size() == rec.bases.size()) {
      out << rec.quality << '\n';
    } else {
      out << std::string(rec.bases.size(), 'I') << '\n';
    }
  }
}

}  // namespace jem::io
