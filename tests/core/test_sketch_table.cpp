#include "core/sketch_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/index_serde.hpp"
#include "core/mapper.hpp"
#include "reference_table.hpp"

namespace jem::core {
namespace {

using testing_support::expect_matches_reference;

SketchTable table_of(int trials, const std::vector<SketchEntry>& entries) {
  return SketchTable::from_entries(trials, entries);
}

TEST(SketchTable, RejectsNonPositiveTrials) {
  EXPECT_THROW((void)SketchTable::from_entries(0, {}), std::invalid_argument);
}

TEST(SketchTable, StartsEmpty) {
  const SketchTable table = SketchTable::from_entries(5, {});
  EXPECT_EQ(table.trials(), 5);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.key_count(), 0u);
  EXPECT_TRUE(table.flat().lookup(0, 123).empty());
  EXPECT_TRUE(table.to_entries().empty());
}

TEST(SketchTable, InsertAndLookupSingleEntry) {
  const SketchTable table = table_of(3, {{0xdeadu, 1, 7}});
  const auto subjects = table.flat().lookup(1, 0xdeadu);
  ASSERT_EQ(subjects.size(), 1u);
  EXPECT_EQ(subjects[0], 7u);
  // Other trials are unaffected.
  EXPECT_TRUE(table.flat().lookup(0, 0xdeadu).empty());
  EXPECT_TRUE(table.flat().lookup(2, 0xdeadu).empty());
}

TEST(SketchTable, CollapsesDuplicateTriples) {
  const SketchTable table = table_of(2, {{42, 0, 1}, {42, 0, 1}, {42, 0, 1}});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.flat().lookup(0, 42).size(), 1u);
}

TEST(SketchTable, CollapsesOutOfOrderDuplicates) {
  const SketchTable table = table_of(1, {{42, 0, 1}, {42, 0, 5}, {42, 0, 1}});
  EXPECT_EQ(table.size(), 2u);
}

TEST(SketchTable, KeepsDistinctSubjectsPerKey) {
  // Postings come out sorted by subject id whatever the entry order.
  const SketchTable table = table_of(1, {{42, 0, 3}, {42, 0, 1}, {42, 0, 2}});
  const auto subjects = table.flat().lookup(0, 42);
  ASSERT_EQ(subjects.size(), 3u);
  EXPECT_EQ(subjects[0], 1u);
  EXPECT_EQ(subjects[2], 3u);
}

TEST(SketchTable, InsertSketchInsertsAllTrials) {
  // A subject's sketch enters the table as one entry per (trial, k-mer):
  // every trial of it is found under that subject.
  io::SequenceSet subjects;
  subjects.add("c0", "ACGTTGCATTGACCAGTACCGATTACAGGATCCATGACGTAGGCTTAACG");
  const MapParams params = MapParams::make().k(8).window(4).trials(3).build();
  const HashFamily hashes(params.trials, params.seed);
  const SketchTable table = SketchTable::from_entries(
      params.trials,
      sketch_entries(subjects, 0, 1, params, SketchScheme::kJem, hashes, 1));
  const Sketch sketch =
      make_sketch(subjects.bases(0), params, SketchScheme::kJem, hashes);
  std::size_t kmers = 0;
  for (int t = 0; t < params.trials; ++t) {
    for (const KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      const auto subjects_of = table.flat().lookup(t, kmer);
      ASSERT_EQ(subjects_of.size(), 1u) << "trial " << t;
      EXPECT_EQ(subjects_of[0], 0u);
      ++kmers;
    }
  }
  EXPECT_GT(kmers, 0u);
  EXPECT_EQ(table.size(), kmers);
}

TEST(SketchTable, InsertSketchRejectsTrialMismatch) {
  // Entries of a two-trial sketch do not fit a one-trial table.
  Sketch sketch;
  sketch.per_trial = {{1}, {2}};
  std::vector<SketchEntry> entries;
  for (std::uint32_t t = 0; t < 2; ++t) {
    for (const KmerCode kmer : sketch.per_trial[t]) {
      entries.push_back({kmer, t, 0});
    }
  }
  EXPECT_THROW((void)SketchTable::from_entries(1, entries),
               std::invalid_argument);
}

TEST(SketchTable, EntriesRoundTrip) {
  const std::vector<SketchEntry> entries{
      {100, 0, 1}, {100, 0, 2}, {200, 1, 3}, {300, 2, 1}};
  const SketchTable table = table_of(3, entries);

  const auto flattened = table.to_entries();
  EXPECT_EQ(flattened.size(), 4u);
  expect_matches_reference(table, flattened, "to_entries");

  const SketchTable rebuilt = SketchTable::from_entries(3, flattened);
  EXPECT_EQ(rebuilt.size(), table.size());
  expect_matches_reference(rebuilt, entries, "rebuilt");
}

TEST(SketchTable, FromEntriesRejectsBadTrial) {
  const std::vector<SketchEntry> entries{{1, 5, 0}};
  EXPECT_THROW((void)SketchTable::from_entries(3, entries),
               std::invalid_argument);
}

TEST(SketchTable, FromEntriesMergesMultipleRanksDeduplicated) {
  // Two "ranks" contributing overlapping entries (a subject split across
  // boundary should not duplicate).
  std::vector<SketchEntry> rank0{{7, 0, 1}, {8, 0, 1}};
  std::vector<SketchEntry> rank1{{7, 0, 2}, {7, 0, 1}};
  std::vector<SketchEntry> all;
  all.insert(all.end(), rank0.begin(), rank0.end());
  all.insert(all.end(), rank1.begin(), rank1.end());
  const SketchTable merged = SketchTable::from_entries(1, all);
  EXPECT_EQ(merged.flat().lookup(0, 7).size(), 2u);
  EXPECT_EQ(merged.flat().lookup(0, 8).size(), 1u);
}

TEST(SketchTable, KeyCountCountsDistinctKeys) {
  const SketchTable table = table_of(2, {{1, 0, 0},
                                         {1, 0, 1},    // same key
                                         {2, 0, 0},
                                         {1, 1, 0}});  // other trial
  EXPECT_EQ(table.key_count(), 3u);
}

TEST(SketchTableFrozen, FreezeIsIdempotentAndPreservesLookups) {
  // freeze() is a no-op: a table is query-ready as built.
  SketchTable table = table_of(2, {{10, 0, 1}, {10, 0, 2}, {20, 1, 3}});
  const std::vector<FlatSketchIndex::Slot> before(table.flat().slots().begin(),
                                                  table.flat().slots().end());
  table.freeze();
  table.freeze();
  EXPECT_TRUE(std::ranges::equal(table.flat().slots(), before));
  EXPECT_EQ(table.flat().lookup(0, 10).size(), 2u);
  EXPECT_EQ(table.flat().lookup(1, 20).size(), 1u);
  EXPECT_TRUE(table.flat().lookup(0, 99).empty());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.key_count(), 2u);
  EXPECT_EQ(table.trials(), 2);
}

TEST(SketchTableFrozen, FromEntriesProducesFrozenTable) {
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 2}, {7, 0, 0}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.flat().trials(), 1);
  EXPECT_EQ(table.flat().lookup(0, 5).size(), 2u);
  EXPECT_EQ(table.flat().lookup(0, 7).size(), 1u);
}

TEST(SketchTableFrozen, FromEntriesCollapsesDuplicateTriples) {
  const std::vector<SketchEntry> entries{{5, 0, 1}, {5, 0, 1}, {5, 0, 1}};
  const SketchTable table = SketchTable::from_entries(1, entries);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.flat().lookup(0, 5).size(), 1u);
}

TEST(SketchTableFrozen, FrozenAndHashFormsAgreeOnRandomData) {
  // Property: the flat index and the test-local reference (an ordered map
  // built from the same entries) answer every key identically, present or
  // absent.
  std::uint64_t state = 7;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  };
  std::vector<SketchEntry> entries;
  for (int i = 0; i < 2000; ++i) {
    entries.push_back({next() % 97, static_cast<std::uint32_t>(next() % 4),
                       static_cast<io::SeqId>(next() % 23)});
  }
  const SketchTable table = SketchTable::from_entries(4, entries);
  expect_matches_reference(table, entries, "random");
  std::vector<KmerCode> every_kmer(97);
  for (KmerCode kmer = 0; kmer < 97; ++kmer) every_kmer[kmer] = kmer;
  testing_support::expect_lookups_match(table, entries, every_kmer, "dense");
}

TEST(SketchTableFrozen, ToEntriesRoundTripsThroughFrozenForm) {
  const SketchTable table = table_of(2, {{100, 0, 1}, {200, 1, 2}});
  const auto entries = table.to_entries();
  EXPECT_EQ(entries.size(), 2u);
  const SketchTable rebuilt = SketchTable::from_entries(2, entries);
  EXPECT_EQ(rebuilt.flat().lookup(0, 100).size(), 1u);
  EXPECT_EQ(rebuilt.flat().lookup(1, 200).size(), 1u);
  EXPECT_TRUE(std::ranges::equal(rebuilt.flat().slots(), table.flat().slots()));
}

// --- Persistence: the JEMIDX artifact is the table's one on-disk form ------

class SketchTablePersistence : public ::testing::Test {
 protected:
  void SetUp() override {
    subjects_.add("c0", "ACGTACGTTTGACCA");
    subjects_.add("c1", "GGGTACCATTGACAA");
    params_ = MapParams::make().trials(3).build();
  }

  [[nodiscard]] SketchTable round_trip(const SketchTable& table) const {
    return deserialize_index(
        serialize_index(table, params_, SketchScheme::kJem, subjects_),
        params_, SketchScheme::kJem, subjects_);
  }

  [[nodiscard]] io::ArtifactReason reason_of(std::string bytes) const {
    try {
      (void)deserialize_index(std::move(bytes), params_, SketchScheme::kJem,
                              subjects_);
    } catch (const io::ArtifactError& error) {
      return error.reason();
    }
    ADD_FAILURE() << "expected an ArtifactError";
    return io::ArtifactReason::kIoError;
  }

  io::SequenceSet subjects_;
  MapParams params_;
};

TEST_F(SketchTablePersistence, SaveLoadRoundTrips) {
  const std::vector<SketchEntry> entries{
      {100, 0, 1}, {100, 0, 0}, {200, 1, 1}, {300, 2, 0}};
  const SketchTable table = table_of(3, entries);
  const std::string path = ::testing::TempDir() + "/jem_table_rt.jemidx";
  save_index(path, table, params_, SketchScheme::kJem, subjects_);
  const SketchTable loaded =
      load_index(path, params_, SketchScheme::kJem, subjects_);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.trials(), 3);
  EXPECT_EQ(loaded.size(), table.size());
  EXPECT_TRUE(std::ranges::equal(loaded.flat().slots(), table.flat().slots()));
  expect_matches_reference(loaded, entries, "loaded");
}

TEST_F(SketchTablePersistence, SaveLoadEmptyTable) {
  const SketchTable loaded = round_trip(SketchTable::from_entries(3, {}));
  EXPECT_EQ(loaded.trials(), 3);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.key_count(), 0u);
  for (int t = 0; t < 3; ++t) EXPECT_TRUE(loaded.flat().lookup(t, 1).empty());
}

TEST_F(SketchTablePersistence, LoadRejectsGarbage) {
  EXPECT_EQ(reason_of("this is not a sketch table at all............"),
            io::ArtifactReason::kBadMagic);
}

TEST_F(SketchTablePersistence, LoadRejectsTruncation) {
  const std::string full =
      serialize_index(table_of(3, {{1, 0, 0}, {2, 1, 1}}), params_,
                      SketchScheme::kJem, subjects_);
  EXPECT_EQ(reason_of(full.substr(0, full.size() - 8)),
            io::ArtifactReason::kTruncated);
}

TEST(SketchEntry, WireSizeIsStable) {
  // The allgatherv volume accounting assumes 16-byte entries.
  EXPECT_EQ(sizeof(SketchEntry), 16u);
}

}  // namespace
}  // namespace jem::core
