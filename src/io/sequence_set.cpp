#include "io/sequence_set.hpp"

#include <cmath>
#include <stdexcept>

namespace jem::io {

SeqId SequenceSet::add(std::string_view name, std::string_view bases) {
  arena_.append(bases);
  return add_pending(name);
}

SeqId SequenceSet::add_pending(std::string_view name) {
  if (names_.size() >= kInvalidSeqId) {
    arena_.resize(static_cast<std::size_t>(total_bases()));
    throw std::length_error("SequenceSet: too many sequences");
  }
  names_.emplace_back(name);
  offsets_.push_back(arena_.size());
  return static_cast<SeqId>(names_.size() - 1);
}

void SequenceSet::truncate(std::size_t count) {
  if (count < names_.size()) {
    names_.resize(count);
    offsets_.resize(count);
  }
  arena_.resize(static_cast<std::size_t>(total_bases()));
}

void SequenceSet::add_all(std::span<const SequenceRecord> records) {
  for (const SequenceRecord& rec : records) add(rec.name, rec.bases);
}

std::string_view SequenceSet::name(SeqId id) const {
  return names_.at(id);
}

std::string_view SequenceSet::bases(SeqId id) const {
  if (id >= names_.size()) {
    throw std::out_of_range("SequenceSet::bases: bad id");
  }
  const std::uint64_t begin = id == 0 ? 0 : offsets_[id - 1];
  const std::uint64_t end = offsets_[id];
  return std::string_view(arena_).substr(begin, end - begin);
}

std::size_t SequenceSet::length(SeqId id) const {
  if (id >= names_.size()) {
    throw std::out_of_range("SequenceSet::length: bad id");
  }
  const std::uint64_t begin = id == 0 ? 0 : offsets_[id - 1];
  return static_cast<std::size_t>(offsets_[id] - begin);
}

SequenceSet::LengthStats SequenceSet::length_stats() const noexcept {
  LengthStats stats;
  if (names_.empty()) return stats;
  stats.min = length(0);
  stats.max = length(0);
  double sum = 0.0;
  for (SeqId id = 0; id < names_.size(); ++id) {
    const std::size_t len = length(id);
    sum += static_cast<double>(len);
    stats.min = std::min(stats.min, len);
    stats.max = std::max(stats.max, len);
  }
  stats.mean = sum / static_cast<double>(names_.size());
  double ss = 0.0;
  for (SeqId id = 0; id < names_.size(); ++id) {
    const double d = static_cast<double>(length(id)) - stats.mean;
    ss += d * d;
  }
  stats.stddev = std::sqrt(ss / static_cast<double>(names_.size()));
  return stats;
}

SeqId SequenceSet::find(std::string_view name) const noexcept {
  for (SeqId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  return kInvalidSeqId;
}

void SequenceSet::reserve(std::size_t sequences, std::uint64_t bases) {
  names_.reserve(sequences);
  offsets_.reserve(sequences);
  arena_.reserve(bases);
}

std::vector<std::pair<SeqId, SeqId>> partition_by_bases(
    const SequenceSet& set, SeqId begin, SeqId end, std::size_t parts) {
  if (parts == 0) {
    throw std::invalid_argument("partition_by_bases: parts must be >= 1");
  }
  std::vector<std::pair<SeqId, SeqId>> ranges(parts);
  std::uint64_t range_bases = 0;
  for (SeqId id = begin; id < end; ++id) range_bases += set.length(id);

  const double total = static_cast<double>(range_bases);
  SeqId cursor = begin;
  std::uint64_t consumed = 0;
  for (std::size_t r = 0; r < parts; ++r) {
    const SeqId first = cursor;
    // Advance until this part's cumulative share reaches (r+1)/parts of the
    // total bases; the last part absorbs any floating-point remainder.
    const double target =
        total * static_cast<double>(r + 1) / static_cast<double>(parts);
    while (cursor < end && static_cast<double>(consumed) < target) {
      consumed += set.length(cursor);
      ++cursor;
    }
    ranges[r] = {first, cursor};
  }
  ranges.back().second = end;
  return ranges;
}

}  // namespace jem::io
