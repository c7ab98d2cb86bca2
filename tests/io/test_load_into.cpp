// io::load_into parses a whole file in place into a SequenceSet. It must
// agree exactly with read_sequences -> SequenceSet::add (and with the
// incremental SequenceStreamReader, which shares the record grammar) on
// every formatting variant the readers tolerate, plain and gzip-compressed,
// and must reject every malformed input with the same ParseError message.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/fasta.hpp"
#include "io/gzip.hpp"
#include "io/stream_reader.hpp"

namespace jem::io {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/jem_load_into_" + name;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The reference: read_sequences, then SequenceSet::add per record.
SequenceSet via_records(const std::string& text) {
  std::istringstream in(text);
  SequenceSet set;
  for (const SequenceRecord& record : read_sequences(in)) {
    set.add(record.name, record.bases);
  }
  return set;
}

SequenceSet via_stream_reader(const std::string& text) {
  std::istringstream in(text);
  SequenceStreamReader reader(in);
  return reader.next_batch(1'000'000);
}

void expect_same(const SequenceSet& got, const SequenceSet& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (SeqId id = 0; id < want.size(); ++id) {
    EXPECT_EQ(got.name(id), want.name(id)) << what << " record " << id;
    EXPECT_EQ(got.bases(id), want.bases(id)) << what << " record " << id;
  }
}

/// Formatting variants the readers accept: CRLF, lowercase, tabs and spaces
/// inside base lines, multi-line FASTA, blank lines, leading whitespace.
const std::vector<std::string>& accepted_inputs() {
  static const std::vector<std::string> inputs = {
      ">r1 first record\r\nACGT\r\nTTGA\r\n>r2\r\nGGCC\r\n",
      "@q1 meta\r\nACGTN\r\n+\r\nIIIII\r\n@q2\r\nGG\r\n+\r\nJJ\r\n",
      ">low\nacgtn\nAcGt\n",
      "@low\nacgt\n+\nIIII\n",
      ">ws\nAC GT\tTT\n  GG \t\n\tCC\n",
      "@ws\nAC\tGT\n+\nIIII\n",
      ">multi\nACGTACGTAC\nGTACGTACGT\nACG\n>next\nT\nT\nT\n",
      "\n\n>blank\n\nACGT\n\n\nTTTT\n\n>b2\nGG\n\n",
      "@a\nAA\n+\nII\n\n\n@b\nCC\n+\nJJ\n\n",
      "  \n\t \r\n>lead\nACGT\n",
      " \n@lead\nACGT\n+\nIIII\n",
      ">noeol\nACGT",
      "@noeol\nAC\n+\nII",
      "",
      "  \n \t\n",
  };
  return inputs;
}

TEST(LoadIntoParity, MatchesReadSequencesOnPlainFiles) {
  const std::string path = temp_path("plain.fa");
  for (const std::string& text : accepted_inputs()) {
    write_bytes(path, text);
    SequenceSet loaded;
    load_into(path, loaded);
    const SequenceSet want = via_records(text);
    expect_same(loaded, want, "input: " + text);
    expect_same(via_stream_reader(text), want, "stream reader: " + text);
  }
}

TEST(LoadIntoParity, MatchesReadSequencesOnSingleMemberGzip) {
  const std::string path = temp_path("single.fa.gz");
  for (const std::string& text : accepted_inputs()) {
    write_bytes(path, gzip_compress(text));
    SequenceSet loaded;
    load_into(path, loaded);
    expect_same(loaded, via_records(text), "gzip input: " + text);
  }
}

TEST(LoadIntoParity, MatchesReadSequencesOnMultiMemberGzip) {
  // `cat a.gz b.gz`: the members decode to one stream, whatever the cut.
  const std::string path = temp_path("multi.fq.gz");
  for (const std::string& text : accepted_inputs()) {
    for (const std::size_t cut : {std::size_t{0}, text.size() / 3,
                                  text.size() / 2, text.size()}) {
      write_bytes(path, gzip_compress(text.substr(0, cut)) +
                            gzip_compress(text.substr(cut)));
      SequenceSet loaded;
      load_into(path, loaded);
      expect_same(loaded, via_records(text),
                  "cut " + std::to_string(cut) + " of: " + text);
    }
  }
}

TEST(LoadIntoParity, AppendsAfterExistingSequences) {
  const std::string path = temp_path("append.fa");
  write_bytes(path, ">x\nacgt\n>y\nTT\n");
  SequenceSet set;
  set.add("first", "GGGG");
  load_into(path, set);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.name(0), "first");
  EXPECT_EQ(set.bases(0), "GGGG");
  EXPECT_EQ(set.bases(1), "ACGT");
  EXPECT_EQ(set.name(2), "y");
  EXPECT_EQ(set.bases(2), "TT");
  EXPECT_EQ(set.total_bases(), 10u);
}

/// Every malformed input of tests/io/test_fasta.cpp (and the mid-record EOF
/// cases of the robustness suite), as the auto-detecting readers see it.
const std::vector<std::string>& rejected_inputs() {
  static const std::vector<std::string> inputs = {
      "ACGT\n",                     // no header
      ">a\n>b\nACGT\n",             // empty record
      "> comment only\nACGT\n",     // empty FASTA name
      "@ x\nACGT\n+\nIIII\n",       // empty FASTQ name
      "@a\nACGT\n+\nII\n",          // quality length mismatch
      "@a\nACGT\nIIII\n",           // missing '+' line
      "@a\nACGT\n+\n",              // truncated: no quality
      "@a\n",                       // truncated: no bases
      "@a\nAC\n+\nII\nxyz\n",       // second record without '@'
      "#comment\nACGT\n",           // unknown format
      ">r1\n",                      // header at EOF
      ">r1\nACGT\n>r2\n",           // empty last record
      ">r1\n>r2\nACGT\n",           // empty first record
  };
  return inputs;
}

TEST(LoadIntoParity, RejectsEveryMalformedInputWithTheSameError) {
  const std::string path = temp_path("bad.fa");
  for (const std::string& text : rejected_inputs()) {
    std::string want;
    try {
      (void)via_records(text);
      ADD_FAILURE() << "read_sequences accepted: " << text;
    } catch (const ParseError& error) {
      want = error.what();
    }
    write_bytes(path, text);
    SequenceSet set;
    set.add("kept", "ACGT");
    try {
      load_into(path, set);
      ADD_FAILURE() << "load_into accepted: " << text;
    } catch (const ParseError& error) {
      EXPECT_EQ(std::string(error.what()), want) << "input: " << text;
    }
    // A failed load leaves the set as it was.
    ASSERT_EQ(set.size(), 1u) << text;
    EXPECT_EQ(set.total_bases(), 4u) << text;
    EXPECT_EQ(set.pending_size(), 0u) << text;

    try {
      (void)via_stream_reader(text);
      ADD_FAILURE() << "stream reader accepted: " << text;
    } catch (const ParseError& error) {
      EXPECT_EQ(std::string(error.what()), want) << "stream: " << text;
    }
  }
}

TEST(LoadIntoParity, ForcedFormatReadersKeepTheirErrors) {
  // read_fasta / read_fastq skip format detection; the test_fasta.cpp
  // failures must stay failures through them too.
  for (const char* text : {"ACGT\n", ">a\n>b\nACGT\n", "> comment\nACGT\n",
                           "@a\nACGT\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_fasta(in), ParseError) << text;
  }
  for (const char* text : {"@a\nACGT\n+\nII\n", "@a\nACGT\nIIII\n",
                           "@a\nACGT\n+\n", ">a\nACGT\n"}) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_fastq(in), ParseError) << text;
  }
}

TEST(LoadIntoParity, MissingAndCorruptFilesAreParseErrors) {
  SequenceSet set;
  EXPECT_THROW(load_into(temp_path("does_not_exist.fa"), set), ParseError);
  const std::string path = temp_path("cut.fa.gz");
  const std::string gz = gzip_compress(">r\nACGTACGTACGTACGT\n");
  write_bytes(path, gz.substr(0, gz.size() / 2));
  EXPECT_THROW(load_into(path, set), ParseError);
  EXPECT_TRUE(set.empty());
}

}  // namespace
}  // namespace jem::io
