// Failure-injection / robustness tests: the parsers must never crash or
// hang on arbitrary input — every byte stream either parses or throws the
// module's error type.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "io/mapping_writer.hpp"
#include "io/paf.hpp"
#include "util/prng.hpp"

namespace jem::io {
namespace {

std::string random_bytes(util::Xoshiro256ss& rng, std::size_t length) {
  std::string data(length, '\0');
  for (char& c : data) c = static_cast<char>(rng.bounded(256));
  return data;
}

std::string random_printable(util::Xoshiro256ss& rng, std::size_t length) {
  // Bias toward the structural characters the parsers care about.
  constexpr std::string_view kAlphabet =
      ">@+ACGTN\t\n 0123456789abcdefPS*-";
  std::string data(length, ' ');
  for (char& c : data) {
    c = kAlphabet[rng.bounded(kAlphabet.size())];
  }
  return data;
}

TEST(ParserRobustness, SequencesParserNeverCrashesOnGarbage) {
  // Both whole-input entry points — read_sequences over a stream and
  // load_into over a file — parse or reject the same garbage identically.
  const std::string path = ::testing::TempDir() + "/jem_garbage.fa";
  util::Xoshiro256ss rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string data = trial % 2 == 0
                                 ? random_bytes(rng, rng.bounded(500))
                                 : random_printable(rng, rng.bounded(500));
    std::istringstream in(data);
    std::vector<SequenceRecord> records;
    std::string error;
    try {
      records = read_sequences(in);
      for (const SequenceRecord& rec : records) {
        EXPECT_FALSE(rec.name.empty());
      }
    } catch (const ParseError& e) {
      error = e.what();  // expected for malformed input
    }

    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    SequenceSet set;
    try {
      load_into(path, set);
      EXPECT_TRUE(error.empty()) << "load_into accepted what read_sequences "
                                    "rejected: "
                                 << error;
      ASSERT_EQ(set.size(), records.size());
      for (SeqId id = 0; id < set.size(); ++id) {
        EXPECT_EQ(set.name(id), records[id].name);
        EXPECT_EQ(set.bases(id), records[id].bases);
      }
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()), error);
      EXPECT_TRUE(set.empty());
    }
  }
}

TEST(ParserRobustness, MappingReaderNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::istringstream in(random_printable(rng, rng.bounded(400)));
    try {
      (void)read_mappings(in);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ParserRobustness, PafReaderNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::istringstream in(random_printable(rng, rng.bounded(400)));
    try {
      (void)read_paf(in);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ParserRobustness, GzipDecompressorNeverCrashesOnGarbage) {
  util::Xoshiro256ss rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    std::string data = random_bytes(rng, 10 + rng.bounded(300));
    // Half the trials lead with the gzip magic to exercise the inflater.
    if (trial % 2 == 0 && data.size() >= 2) {
      data[0] = '\x1f';
      data[1] = '\x8b';
    }
    if (is_gzip(data)) {
      EXPECT_THROW((void)gzip_decompress(data), std::runtime_error);
    }
  }
}

TEST(ParserRobustness, TruncatedFastqAlwaysThrows) {
  const std::string full = "@r1\nACGT\n+\nIIII\n";
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    try {
      const auto records = read_fastq(in);
      // A prefix that happens to parse must contain at most the one record.
      EXPECT_LE(records.size(), 1u);
    } catch (const ParseError&) {
    }
  }
}

TEST(ParserRobustness, TruncatedGzipThrowsAtEveryCutPoint) {
  const std::string payload = ">r1\nACGTACGTACGTACGT\n>r2\nTTTTGGGGCCCCAAAA\n";
  const std::string full = gzip_compress(payload);
  ASSERT_EQ(gzip_decompress(full), payload);
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    EXPECT_THROW((void)gzip_decompress(full.substr(0, cut)),
                 std::runtime_error)
        << "cut at byte " << cut << " of " << full.size();
  }
}

TEST(ParserRobustness, ReadSequencesFileOnTruncatedGzipThrowsParseError) {
  const std::string payload = ">r1\nACGTACGTACGT\n";
  const std::string full = gzip_compress(payload);
  const std::string path = ::testing::TempDir() + "/jem_truncated.fa.gz";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(full.data(),
              static_cast<std::streamsize>(full.size() / 2));  // cut in half
  }
  EXPECT_THROW((void)read_sequences_file(path), ParseError);
}

TEST(ParserRobustness, CrlfFastaAndFastqParseIdenticallyToLf) {
  std::istringstream fasta("  \r\n>r1 extra\r\nACGT\r\nTTTT\r\n>r2\r\nGGGG\r\n");
  const auto fa = read_sequences(fasta);
  ASSERT_EQ(fa.size(), 2u);
  EXPECT_EQ(fa[0].name, "r1");
  EXPECT_EQ(fa[0].bases, "ACGTTTTT");
  EXPECT_EQ(fa[1].bases, "GGGG");

  std::istringstream fastq("@q1\r\nACGT\r\n+\r\nIIII\r\n");
  const auto fq = read_sequences(fastq);
  ASSERT_EQ(fq.size(), 1u);
  EXPECT_EQ(fq[0].name, "q1");
  EXPECT_EQ(fq[0].bases, "ACGT");
}

TEST(ParserRobustness, MidRecordEofFastaThrowsNeverAborts) {
  // A header with no sequence — at the end or the middle — is an error the
  // caller can catch, not a crash or a silently empty record.
  for (const char* broken : {">r1\n", ">r1\nACGT\n>r2\n", ">r1\n>r2\nACGT\n"}) {
    std::istringstream in(broken);
    EXPECT_THROW((void)read_fasta(in), ParseError) << "input: " << broken;
  }
  // But a final record missing only the trailing newline is fine.
  std::istringstream ok(">r1\nACGT");
  const auto records = read_fasta(ok);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].bases, "ACGT");
}

}  // namespace
}  // namespace jem::io
