#include "core/flat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/sketch_table.hpp"
#include "reference_table.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

using testing_support::expect_lookups_match;
using testing_support::expect_matches_reference;

/// `entries` random (trial, kmer, subject) triples, keys drawn from a pool
/// of `distinct_keys` so postings lists get multiple subjects.
std::vector<SketchEntry> random_entries(util::Xoshiro256ss& rng, int trials,
                                        std::size_t entries,
                                        std::size_t distinct_keys,
                                        std::size_t subjects) {
  std::vector<KmerCode> pool(distinct_keys);
  for (auto& kmer : pool) kmer = rng();
  std::vector<SketchEntry> out;
  for (std::size_t i = 0; i < entries; ++i) {
    out.push_back({pool[rng.bounded(pool.size())],
                   static_cast<std::uint32_t>(
                       rng.bounded(static_cast<std::uint64_t>(trials))),
                   static_cast<io::SeqId>(rng.bounded(subjects))});
  }
  return out;
}

TEST(FlatSketchIndex, MatchesReferenceOnRandomTables) {
  util::Xoshiro256ss rng(11);
  for (int round = 0; round < 20; ++round) {
    const int trials = 1 + static_cast<int>(rng.bounded(8));
    const std::size_t keys = 1 + rng.bounded(300);
    const std::vector<SketchEntry> entries = random_entries(
        rng, trials, 10 + rng.bounded(2000), keys, 1 + rng.bounded(50));
    const SketchTable table = SketchTable::from_entries(trials, entries);
    expect_matches_reference(table, entries, "round " + std::to_string(round));

    // Random absent keys miss.
    std::vector<KmerCode> absent(200);
    for (auto& kmer : absent) kmer = rng();
    expect_lookups_match(table, entries, absent,
                         "absent, round " + std::to_string(round));
  }
}

TEST(FlatSketchIndex, LookupManyMatchesSingleLookups) {
  util::Xoshiro256ss rng(12);
  const SketchTable table =
      SketchTable::from_entries(4, random_entries(rng, 4, 3000, 400, 64));
  const FlatSketchIndex& index = table.flat();

  for (int t = 0; t < 4; ++t) {
    // A mix of present and absent keys, long enough to engage prefetching.
    std::vector<KmerCode> kmers;
    for (int i = 0; i < 500; ++i) kmers.push_back(rng());
    for (const SketchEntry& entry : table.to_entries()) {
      if (static_cast<int>(entry.trial) == t) kmers.push_back(entry.kmer);
    }

    std::vector<std::span<const io::SeqId>> out(kmers.size());
    index.lookup_many(t, kmers, out);
    for (std::size_t i = 0; i < kmers.size(); ++i) {
      const auto single = index.lookup(t, kmers[i]);
      ASSERT_EQ(single.size(), out[i].size());
      ASSERT_EQ(single.data(), out[i].data());
    }
  }
}

TEST(FlatSketchIndex, EmptyTrialsLookupCleanly) {
  // Trials 0, 1, 3 and 4 stay empty.
  const std::vector<SketchEntry> entries{{77, 2, 9}};
  const SketchTable table = SketchTable::from_entries(5, entries);
  const FlatSketchIndex& index = table.flat();
  EXPECT_EQ(index.trials(), 5);
  for (int t = 0; t < 5; ++t) {
    if (t == 2) {
      ASSERT_EQ(index.lookup(t, 77).size(), 1u);
      EXPECT_EQ(index.lookup(t, 77)[0], 9u);
    } else {
      EXPECT_TRUE(index.lookup(t, 77).empty());
    }
    EXPECT_TRUE(index.lookup(t, 78).empty());
  }
  const KmerCode probes[] = {77, 78, 0};
  expect_lookups_match(table, entries, probes, "empty trials");
}

TEST(FlatSketchIndex, BuildFromSortedRunsMatchesFromEntries) {
  // FlatSketchIndex::build over hand-made sorted runs gives the same bytes
  // as SketchTable::from_entries over the same postings, shuffled and
  // duplicated.
  util::Xoshiro256ss rng(13);
  std::vector<SketchEntry> entries = random_entries(rng, 3, 1500, 200, 32);
  std::vector<std::vector<FlatSketchIndex::Posting>> runs(3);
  for (const SketchEntry& entry : entries) {
    runs[entry.trial].emplace_back(entry.kmer, entry.subject);
  }
  std::vector<std::span<const FlatSketchIndex::Posting>> views;
  for (auto& run : runs) {
    std::sort(run.begin(), run.end());
    run.erase(std::unique(run.begin(), run.end()), run.end());
    views.emplace_back(run);
  }
  const FlatSketchIndex built = FlatSketchIndex::build(views, 2);

  entries.insert(entries.end(), entries.begin(), entries.begin() + 100);
  std::reverse(entries.begin(), entries.end());
  const SketchTable table = SketchTable::from_entries(3, entries);
  EXPECT_TRUE(std::ranges::equal(built.slots(), table.flat().slots()));
  EXPECT_TRUE(std::ranges::equal(built.subjects(), table.flat().subjects()));
  EXPECT_TRUE(std::ranges::equal(built.bases(), table.flat().bases()));
  EXPECT_TRUE(std::ranges::equal(built.masks(), table.flat().masks()));
  EXPECT_EQ(built.key_count(), table.key_count());
  expect_matches_reference(table, entries, "shuffled");
}

TEST(FlatSketchIndex, AdversarialKeysCollidingInLowBits) {
  // Keys equal modulo a small power of two all hash to nearby home slots
  // only if mix64 fails to spread them; either way linear probing must
  // resolve every key.
  std::vector<SketchEntry> entries;
  for (std::uint64_t i = 0; i < 256; ++i) {
    entries.push_back({i << 32, 0, static_cast<io::SeqId>(i)});
  }
  const SketchTable table = SketchTable::from_entries(1, entries);
  const FlatSketchIndex& index = table.flat();
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto postings = index.lookup(0, i << 32);
    ASSERT_EQ(postings.size(), 1u);
    EXPECT_EQ(postings[0], static_cast<io::SeqId>(i));
  }
  expect_matches_reference(table, entries, "low-bit collisions");
}

}  // namespace
}  // namespace jem::core
