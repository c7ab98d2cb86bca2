// A test-local oracle for the sketch index: an ordered map from
// (trial, kmer) to the sorted, duplicate-free subjects of a SketchEntry
// list, built without any of the production index code. Every flat-index
// lookup (single-key and batched) must agree with it exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sketch_table.hpp"

namespace jem::core::testing_support {

class ReferenceTable {
 public:
  explicit ReferenceTable(std::span<const SketchEntry> entries) {
    for (const SketchEntry& entry : entries) {
      postings_[{entry.trial, entry.kmer}].push_back(entry.subject);
    }
    for (auto& [key, subjects] : postings_) {
      std::sort(subjects.begin(), subjects.end());
      subjects.erase(std::unique(subjects.begin(), subjects.end()),
                     subjects.end());
      entries_ += subjects.size();
    }
  }

  /// Subjects of `kmer` in `trial` (empty if absent).
  [[nodiscard]] std::vector<io::SeqId> lookup(int trial, KmerCode kmer) const {
    const auto it = postings_.find({static_cast<std::uint32_t>(trial), kmer});
    return it == postings_.end() ? std::vector<io::SeqId>{} : it->second;
  }

  /// The distinct k-mers stored in `trial`, in ascending order.
  [[nodiscard]] std::vector<KmerCode> kmers(int trial) const {
    std::vector<KmerCode> out;
    for (const auto& [key, subjects] : postings_) {
      if (key.first == static_cast<std::uint32_t>(trial)) {
        out.push_back(key.second);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t key_count() const { return postings_.size(); }
  [[nodiscard]] std::size_t size() const { return entries_; }

 private:
  std::map<std::pair<std::uint32_t, KmerCode>, std::vector<io::SeqId>>
      postings_;
  std::size_t entries_ = 0;
};

inline std::vector<io::SeqId> to_vector(std::span<const io::SeqId> span) {
  return {span.begin(), span.end()};
}

/// lookup(t, kmer) and lookup_many(t, kmers) of `table` equal the reference
/// for every trial and every k-mer in `kmers` (present or absent).
inline void expect_lookups_match(const SketchTable& table,
                                 std::span<const SketchEntry> entries,
                                 std::span<const KmerCode> kmers,
                                 const std::string& what) {
  const ReferenceTable reference(entries);
  const FlatSketchIndex& index = table.flat();
  std::vector<std::span<const io::SeqId>> batched(kmers.size());
  for (int t = 0; t < table.trials(); ++t) {
    index.lookup_many(t, kmers, batched);
    for (std::size_t i = 0; i < kmers.size(); ++i) {
      const std::vector<io::SeqId> want = reference.lookup(t, kmers[i]);
      ASSERT_EQ(to_vector(index.lookup(t, kmers[i])), want)
          << what << ": trial " << t << " kmer " << kmers[i];
      ASSERT_EQ(to_vector(batched[i]), want)
          << what << ": lookup_many trial " << t << " kmer " << kmers[i];
    }
  }
}

/// The whole table equals the reference built from `entries`: the same
/// entry and key totals, every stored key's postings, and a miss on k-mers
/// absent from a trial (every trial is probed with every stored k-mer).
inline void expect_matches_reference(const SketchTable& table,
                                     std::span<const SketchEntry> entries,
                                     const std::string& what) {
  const ReferenceTable reference(entries);
  EXPECT_EQ(table.size(), reference.size()) << what;
  EXPECT_EQ(table.key_count(), reference.key_count()) << what;
  EXPECT_EQ(table.flat().key_count(), reference.key_count()) << what;
  EXPECT_GE(table.flat().capacity(), 2 * reference.key_count()) << what;
  std::vector<KmerCode> kmers;
  for (int t = 0; t < table.trials(); ++t) {
    const std::vector<KmerCode> stored = reference.kmers(t);
    kmers.insert(kmers.end(), stored.begin(), stored.end());
  }
  std::sort(kmers.begin(), kmers.end());
  kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
  expect_lookups_match(table, entries, kmers, what);
}

}  // namespace jem::core::testing_support
