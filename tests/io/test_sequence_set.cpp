#include "io/sequence_set.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace jem::io {
namespace {

TEST(SequenceSet, StartsEmpty) {
  SequenceSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.total_bases(), 0u);
}

TEST(SequenceSet, AddReturnsDenseIds) {
  SequenceSet set;
  EXPECT_EQ(set.add("a", "ACGT"), 0u);
  EXPECT_EQ(set.add("b", "GG"), 1u);
  EXPECT_EQ(set.add("c", "T"), 2u);
  EXPECT_EQ(set.size(), 3u);
}

TEST(SequenceSet, RetrievesNamesAndBases) {
  SequenceSet set;
  set.add("a", "ACGT");
  set.add("b", "GGCC");
  EXPECT_EQ(set.name(0), "a");
  EXPECT_EQ(set.bases(0), "ACGT");
  EXPECT_EQ(set.name(1), "b");
  EXPECT_EQ(set.bases(1), "GGCC");
}

TEST(SequenceSet, TracksLengthsAndTotals) {
  SequenceSet set;
  set.add("a", "ACGT");
  set.add("b", "GG");
  EXPECT_EQ(set.length(0), 4u);
  EXPECT_EQ(set.length(1), 2u);
  EXPECT_EQ(set.total_bases(), 6u);
}

TEST(SequenceSet, ThrowsOnBadId) {
  SequenceSet set;
  set.add("a", "ACGT");
  EXPECT_THROW((void)set.bases(1), std::out_of_range);
  EXPECT_THROW((void)set.length(5), std::out_of_range);
}

TEST(SequenceSet, FindLocatesByName) {
  SequenceSet set;
  set.add("alpha", "A");
  set.add("beta", "C");
  EXPECT_EQ(set.find("beta"), 1u);
  EXPECT_EQ(set.find("gamma"), kInvalidSeqId);
}

TEST(SequenceSet, LengthStatsMatchHandComputation) {
  SequenceSet set;
  set.add("a", std::string(2, 'A'));
  set.add("b", std::string(4, 'C'));
  set.add("c", std::string(6, 'G'));
  const auto stats = set.length_stats();
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
  EXPECT_NEAR(stats.stddev, 1.632993, 1e-5);  // population stddev
  EXPECT_EQ(stats.min, 2u);
  EXPECT_EQ(stats.max, 6u);
}

TEST(SequenceSet, LengthStatsEmptySetIsZero) {
  SequenceSet set;
  const auto stats = set.length_stats();
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(SequenceSet, AddAllCopiesRecords) {
  std::vector<SequenceRecord> records;
  records.push_back({"a", "", "AC", ""});
  records.push_back({"b", "", "GT", ""});
  SequenceSet set;
  set.add_all(records);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.bases(1), "GT");
}

TEST(SequenceSet, ViewsStableAfterLoadingCompletes) {
  SequenceSet set;
  set.reserve(3, 12);
  set.add("a", "AAAA");
  set.add("b", "CCCC");
  set.add("c", "GGGG");
  const auto view_a = set.bases(0);
  const auto view_c = set.bases(2);
  EXPECT_EQ(view_a, "AAAA");
  EXPECT_EQ(view_c, "GGGG");
}

TEST(SequenceSet, HandlesManySmallSequences) {
  SequenceSet set;
  for (int i = 0; i < 10000; ++i) {
    set.add("s" + std::to_string(i), "ACGT");
  }
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_EQ(set.total_bases(), 40000u);
  EXPECT_EQ(set.bases(9999), "ACGT");
}

TEST(SequenceSet, PendingBasesCloseIntoASequence) {
  SequenceSet set;
  set.add("a", "ACGT");
  set.pending_bases().append("GGT");
  EXPECT_EQ(set.pending_size(), 3u);
  EXPECT_EQ(set.total_bases(), 4u);
  EXPECT_EQ(set.add_pending("b"), 1u);
  EXPECT_EQ(set.pending_size(), 0u);
  EXPECT_EQ(set.bases(1), "GGT");
  EXPECT_EQ(set.name(1), "b");
  EXPECT_EQ(set.total_bases(), 7u);
}

TEST(SequenceSet, TruncateDropsLaterSequencesAndPendingBases) {
  SequenceSet set;
  set.add("a", "ACGT");
  set.add("b", "GG");
  set.pending_bases().append("TTT");
  set.truncate(1);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.total_bases(), 4u);
  EXPECT_EQ(set.pending_size(), 0u);
  EXPECT_EQ(set.add("c", "CC"), 1u);
  EXPECT_EQ(set.bases(1), "CC");
}

TEST(PartitionByBases, BalancesASubRangeByBases) {
  SequenceSet set;
  for (const std::size_t length : {50, 10, 10, 10, 10, 40, 5, 5}) {
    set.add("s", std::string(length, 'A'));
  }
  // Ids [1, 7): 10+10+10+10+40+5 = 85 bases in two parts.
  const auto ranges = partition_by_bases(set, 1, 7, 2);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].first, 1u);
  EXPECT_EQ(ranges[0].second, ranges[1].first);
  EXPECT_EQ(ranges[1].second, 7u);
  EXPECT_EQ(ranges[0].second, 6u);  // 80 >= 42.5 only once the 40 is in
  EXPECT_THROW((void)partition_by_bases(set, 0, 8, 0), std::invalid_argument);
}

TEST(PartitionByBases, MorePartsThanSequencesLeavesEmptyRanges) {
  SequenceSet set;
  set.add("a", "ACGT");
  set.add("b", "ACGT");
  const auto ranges = partition_by_bases(set, 0, 2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  std::size_t covered = 0;
  for (const auto& [begin, end] : ranges) covered += end - begin;
  EXPECT_EQ(covered, 2u);
  EXPECT_EQ(ranges.back().second, 2u);
}

}  // namespace
}  // namespace jem::io
