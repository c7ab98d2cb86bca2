// The sort-based index build (sketch_entries -> SketchTable::from_entries)
// must agree with an independent reference — a test-local ordered map built
// by inserting every subject's sketch (reference_table.hpp) — and give
// byte-identical flat indexes (slots, postings, region geometry) for every
// thread count, sketch scheme and minimizer ordering. That covers both
// production callers: sketch_subjects (JemMapper, the engine) and the
// distributed S2 -> allgather -> S3 composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/distributed.hpp"
#include "core/mapper.hpp"
#include "core/sketch_table.hpp"
#include "reference_table.hpp"
#include "util/prng.hpp"

namespace jem::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 7};

io::SequenceSet make_subjects() {
  util::Xoshiro256ss rng(4242);
  constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  io::SequenceSet subjects;
  std::string previous;
  for (int i = 0; i < 48; ++i) {
    std::string bases;
    if (i % 11 == 5) {
      bases = previous;  // a duplicate contig: shared postings
    } else {
      const std::size_t length = i % 13 == 0 ? 10 : 300 + rng.bounded(4000);
      for (std::size_t j = 0; j < length; ++j) {
        bases.push_back(rng.bounded(50) == 0 ? 'N' : kBases[rng.bounded(4)]);
      }
    }
    subjects.add("c" + std::to_string(i), bases);
    previous = bases;
  }
  return subjects;
}

void expect_identical(const SketchTable& got, const SketchTable& want,
                      const std::string& what) {
  ASSERT_EQ(got.trials(), want.trials()) << what;
  EXPECT_EQ(got.size(), want.size()) << what;
  const FlatSketchIndex& fa = got.flat();
  const FlatSketchIndex& fb = want.flat();
  EXPECT_TRUE(std::ranges::equal(fa.slots(), fb.slots())) << what;
  EXPECT_TRUE(std::ranges::equal(fa.subjects(), fb.subjects())) << what;
  EXPECT_TRUE(std::ranges::equal(fa.bases(), fb.bases())) << what;
  EXPECT_TRUE(std::ranges::equal(fa.masks(), fb.masks())) << what;
  EXPECT_EQ(fa.key_count(), fb.key_count()) << what;
}

/// Every subject's sketch as wire entries, made one subject at a time from
/// make_sketch — independent of sketch_entries' parallel partitioning.
std::vector<SketchEntry> inserted_entries(const io::SequenceSet& subjects,
                                          const MapParams& params,
                                          SketchScheme scheme,
                                          const HashFamily& hashes) {
  std::vector<SketchEntry> entries;
  for (io::SeqId id = 0; id < subjects.size(); ++id) {
    const Sketch sketch = make_sketch(subjects.bases(id), params, scheme,
                                      hashes);
    for (std::uint32_t t = 0; t < sketch.per_trial.size(); ++t) {
      for (const KmerCode kmer : sketch.per_trial[t]) {
        entries.push_back({kmer, t, id});
      }
    }
  }
  return entries;
}

class IndexBuildParity
    : public ::testing::TestWithParam<
          std::tuple<SketchScheme, MinimizerOrdering>> {
 protected:
  void SetUp() override {
    params_.k = 15;
    params_.w = 20;
    params_.trials = 12;
    params_.segment_length = 500;
    params_.ordering = std::get<1>(GetParam());
    scheme_ = std::get<0>(GetParam());
    hashes_.emplace(params_.trials, params_.seed);
    subjects_ = make_subjects();
    inserted_ = inserted_entries(subjects_, params_, scheme_, hashes());
    ASSERT_FALSE(inserted_.empty());
    serial_ = std::make_unique<SketchTable>(
        SketchTable::from_entries(params_.trials, inserted_));
    testing_support::expect_matches_reference(*serial_, inserted_, "serial");
  }

  /// Equal to the reference, and byte-identical to the one-thread build.
  void expect_reference(const SketchTable& table, const std::string& what) {
    testing_support::expect_matches_reference(table, inserted_, what);
    expect_identical(table, *serial_, what);
  }

  [[nodiscard]] const HashFamily& hashes() const { return *hashes_; }
  [[nodiscard]] io::SeqId count() const {
    return static_cast<io::SeqId>(subjects_.size());
  }

  MapParams params_;
  SketchScheme scheme_ = SketchScheme::kJem;
  std::optional<HashFamily> hashes_;
  io::SequenceSet subjects_;
  std::vector<SketchEntry> inserted_;
  std::unique_ptr<SketchTable> serial_;
};

TEST_P(IndexBuildParity, SketchSubjectsMatchesInsertAndFreeze) {
  for (const std::size_t threads : kThreadCounts) {
    const SketchTable table = sketch_subjects(subjects_, 0, count(), params_,
                                              scheme_, hashes(), threads);
    expect_reference(table, "threads=" + std::to_string(threads));
  }
}

TEST_P(IndexBuildParity, DistributedS2S3MatchesInsertAndFreeze) {
  // Each rank sketches its base-balanced subject range straight into its
  // allgather vector; the union (rank order) rebuilds the global table.
  for (const int ranks : {1, 2, 4}) {
    for (const std::size_t threads : kThreadCounts) {
      std::vector<SketchEntry> global;
      for (const auto& [begin, end] : partition_by_bases(subjects_, ranks)) {
        const std::vector<SketchEntry> local = sketch_entries(
            subjects_, begin, end, params_, scheme_, hashes(), threads);
        global.insert(global.end(), local.begin(), local.end());
      }
      const SketchTable table =
          SketchTable::from_entries(params_.trials, global, threads);
      expect_reference(table, "ranks=" + std::to_string(ranks) +
                                  " threads=" + std::to_string(threads));
    }
  }
}

TEST_P(IndexBuildParity, SketchEntriesDoNotDependOnThreadCount) {
  const std::vector<SketchEntry> serial =
      sketch_entries(subjects_, 0, count(), params_, scheme_, hashes(), 1);
  ASSERT_EQ(serial.size(), serial_->size());
  // Subject-major in id order.
  EXPECT_TRUE(std::ranges::is_sorted(
      serial, {}, [](const SketchEntry& e) { return e.subject; }));
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(sketch_entries(subjects_, 0, count(), params_, scheme_,
                             hashes(), threads),
              serial)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndOrderings, IndexBuildParity,
    ::testing::Combine(::testing::Values(SketchScheme::kJem,
                                         SketchScheme::kClassicMinhash),
                       ::testing::Values(MinimizerOrdering::kLexicographic,
                                         MinimizerOrdering::kRandomHash)));

TEST(IndexBuild, SketchEntriesCoverOnlyTheRange) {
  const io::SequenceSet subjects = make_subjects();
  const MapParams params;
  const HashFamily hashes(params.trials, params.seed);
  const auto entries =
      sketch_entries(subjects, 7, 19, params, SketchScheme::kJem, hashes, 3);
  ASSERT_FALSE(entries.empty());
  for (const SketchEntry& entry : entries) {
    EXPECT_GE(entry.subject, 7u);
    EXPECT_LT(entry.subject, 19u);
  }
  EXPECT_TRUE(sketch_entries(subjects, 5, 5, params, SketchScheme::kJem,
                             hashes, 4)
                  .empty());
}

TEST(IndexBuild, FromEntriesIgnoresOrderAndDuplicatesOnAnyThreadCount) {
  util::Xoshiro256ss rng(7);
  std::vector<SketchEntry> entries;
  for (int i = 0; i < 3000; ++i) {
    const SketchEntry entry{rng.bounded(400),
                            static_cast<std::uint32_t>(rng.bounded(5)),
                            static_cast<io::SeqId>(rng.bounded(60))};
    entries.push_back(entry);
    if (i % 3 == 0) entries.push_back(entry);  // duplicate triples collapse
  }
  const SketchTable serial = SketchTable::from_entries(5, entries);
  testing_support::expect_matches_reference(serial, entries, "serial");
  std::vector<SketchEntry> reversed(entries.rbegin(), entries.rend());
  for (const std::size_t threads : kThreadCounts) {
    const std::string what = "threads=" + std::to_string(threads);
    expect_identical(SketchTable::from_entries(5, entries, threads), serial,
                     what);
    expect_identical(SketchTable::from_entries(5, reversed, threads), serial,
                     what + " reversed");
  }
}

TEST(IndexBuild, BuiltMapperTableIsFrozen) {
  // The self-sketching JemMapper's table is query-ready as built and holds
  // exactly the subjects' sketches.
  const io::SequenceSet subjects = make_subjects();
  const MapParams params;
  const JemMapper mapper(subjects, params);
  EXPECT_GT(mapper.table().flat().key_count(), 0u);
  testing_support::expect_matches_reference(
      mapper.table(),
      inserted_entries(subjects, params, SketchScheme::kJem, mapper.hashes()),
      "mapper");
}

}  // namespace
}  // namespace jem::core
