#include "io/stream_reader.hpp"

namespace jem::io {

SequenceStreamReader::SequenceStreamReader(std::istream& in)
    : reader_(detail::StreamLines(in), detail::Format::kAuto) {}

bool SequenceStreamReader::next(SequenceRecord& record) {
  detail::RecordSink sink{record};
  if (!reader_.next(sink)) {
    record = {};
    return false;
  }
  ++records_read_;
  return true;
}

SequenceSet SequenceStreamReader::next_batch(std::size_t max_records) {
  SequenceSet batch;
  SequenceRecord record;
  for (std::size_t i = 0; i < max_records; ++i) {
    if (!next(record)) break;
    batch.add(record.name, record.bases);
  }
  return batch;
}

}  // namespace jem::io
