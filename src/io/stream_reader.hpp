// SequenceStreamReader — incremental FASTA/FASTQ parsing for batch
// processing. The paper's query sets reach 4.4 Gbp; loading them whole
// costs more memory than the sketch table itself. The mapping phase is
// embarrassingly parallel over reads, so the CLI can stream: read a batch,
// map it, emit, discard (jem_map --batch).
//
// The record grammar is the whole-file readers' own (io/sequence_parser.hpp):
// same tolerances (multi-line FASTA, CRLF, lowercase normalization), same
// ParseError messages on malformed records.
#pragma once

#include <istream>
#include <string>

#include "io/fasta.hpp"
#include "io/sequence.hpp"
#include "io/sequence_parser.hpp"
#include "io/sequence_set.hpp"

namespace jem::io {

class SequenceStreamReader {
 public:
  /// The stream must outlive the reader. Format is detected from the first
  /// non-blank byte.
  explicit SequenceStreamReader(std::istream& in);

  /// Parses the next record into `record` (contents overwritten). Returns
  /// false at end of input. Throws ParseError on malformed input.
  [[nodiscard]] bool next(SequenceRecord& record);

  /// Reads up to `max_records` records into a fresh SequenceSet; an empty
  /// set signals end of input.
  [[nodiscard]] SequenceSet next_batch(std::size_t max_records);

  /// Records returned so far.
  [[nodiscard]] std::uint64_t records_read() const noexcept {
    return records_read_;
  }

 private:
  detail::RecordReader<detail::StreamLines> reader_;
  std::uint64_t records_read_ = 0;
};

}  // namespace jem::io
