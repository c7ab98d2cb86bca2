// FASTA/FASTQ readers and writers.
//
// The readers are strict about structure (a FASTA record must start with '>',
// a FASTQ record with '@' and have a matching-length quality string) but
// tolerant of formatting noise: multi-line sequences, CRLF endings, blank
// trailing lines, whitespace inside base lines (dropped), and lowercase
// bases (normalized to uppercase). Every reader here and
// SequenceStreamReader share one record grammar (io/sequence_parser.hpp).
// Non-ACGTN IUPAC codes are preserved by the reader; the core module treats
// anything outside ACGT as an ambiguous base.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "io/sequence.hpp"
#include "io/sequence_set.hpp"

namespace jem::io {

/// Thrown on malformed input files.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses an entire FASTA stream.
[[nodiscard]] std::vector<SequenceRecord> read_fasta(std::istream& in);

/// Parses an entire FASTQ stream.
[[nodiscard]] std::vector<SequenceRecord> read_fastq(std::istream& in);

/// Auto-detects FASTA vs FASTQ from the first non-blank byte ('>' vs '@').
[[nodiscard]] std::vector<SequenceRecord> read_sequences(std::istream& in);

/// File-path conveniences (throw ParseError when the file cannot be opened).
[[nodiscard]] std::vector<SequenceRecord> read_sequences_file(
    const std::string& path);

/// Appends every record of the (possibly gzip-compressed) FASTA/FASTQ file
/// to `out`. The file is read once and parsed in place — bases go straight
/// into `out`'s arena, with no per-record copies — by the same parser as
/// read_sequences, so the records and every ParseError are the same. On a
/// ParseError `out` is left as it was.
void load_into(const std::string& path, SequenceSet& out);

/// Writes FASTA with the given line width (0 = single line per record).
void write_fasta(std::ostream& out, std::span<const SequenceRecord> records,
                 std::size_t line_width = 80);
void write_fasta(std::ostream& out, const SequenceSet& set,
                 std::size_t line_width = 80);
void write_fasta_file(const std::string& path,
                      std::span<const SequenceRecord> records,
                      std::size_t line_width = 80);

/// Writes FASTQ ('I' quality filled in when a record has none).
void write_fastq(std::ostream& out, std::span<const SequenceRecord> records);

}  // namespace jem::io
