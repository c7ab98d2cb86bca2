// SequenceSet: an append-only, cache-friendly container of DNA sequences.
//
// Bases are stored contiguously in one arena (one byte per base, uppercase
// ACGTN) with an offsets table, so a set of 100k contigs costs two big
// allocations instead of 100k small strings. Views returned by `bases(id)`
// remain valid until the set is destroyed (the arena never shrinks, and
// growing uses reserve-doubling on a std::string whose data pointer may move —
// so views are invalidated by further appends; take views only after loading
// completes, which is how every driver uses it).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/sequence.hpp"

namespace jem::io {

class SequenceSet {
 public:
  SequenceSet() = default;

  /// Appends a sequence; returns its id (dense, starting at 0).
  SeqId add(std::string_view name, std::string_view bases);

  /// Appends every record of `records`.
  void add_all(std::span<const SequenceRecord> records);

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }
  [[nodiscard]] bool empty() const noexcept { return names_.empty(); }

  /// Total bases across all sequences.
  [[nodiscard]] std::uint64_t total_bases() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  [[nodiscard]] std::string_view name(SeqId id) const;
  [[nodiscard]] std::string_view bases(SeqId id) const;
  [[nodiscard]] std::size_t length(SeqId id) const;

  /// Mean and population standard deviation of sequence lengths (Table I).
  struct LengthStats {
    double mean = 0.0;
    double stddev = 0.0;
    std::size_t min = 0;
    std::size_t max = 0;
  };
  [[nodiscard]] LengthStats length_stats() const noexcept;

  /// Id lookup by exact name; returns kInvalidSeqId when absent. O(n) —
  /// intended for tests and small sets, not hot paths.
  [[nodiscard]] SeqId find(std::string_view name) const noexcept;

  /// Reserve arena capacity up front when the total load size is known.
  void reserve(std::size_t sequences, std::uint64_t bases);

  /// Copy-free loading (io::load_into): a parser appends the next
  /// sequence's bases to the end of pending_bases() — the arena, whose
  /// committed prefix it must not touch — and add_pending(name) then closes
  /// them into a sequence, returning its id like add().
  [[nodiscard]] std::string& pending_bases() noexcept { return arena_; }
  [[nodiscard]] std::size_t pending_size() const noexcept {
    return arena_.size() - static_cast<std::size_t>(total_bases());
  }
  SeqId add_pending(std::string_view name);

  /// Drops sequences [count, size()) and any pending bases.
  void truncate(std::size_t count);

 private:
  std::vector<std::string> names_;
  std::vector<std::uint64_t> offsets_;  // offsets_[i] = end of sequence i
  std::string arena_;
};

/// Splits ids [begin, end) into `parts` contiguous ranges of near-equal
/// total bases (a range may be empty); the ranges cover [begin, end) in
/// order. Throws std::invalid_argument when parts is 0.
[[nodiscard]] std::vector<std::pair<SeqId, SeqId>> partition_by_bases(
    const SequenceSet& set, SeqId begin, SeqId end, std::size_t parts);

}  // namespace jem::io
