#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "util/log.hpp"

namespace jem::cli {
namespace {

/// Runs a subcommand entry point with a shell-style argument list, capturing
/// log output so test runs stay quiet.
int run(int (*entry)(std::span<const char* const>, std::string_view),
        const std::vector<std::string>& args, std::string_view program,
        std::string* log = nullptr) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  (void)util::Log::begin_capture();
  const int exit_code = entry({argv.data(), argv.size()}, program);
  const std::string captured = util::Log::end_capture();
  if (log != nullptr) *log = captured;
  return exit_code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliDispatch, ListsCommandsAndRejectsUnknown) {
  EXPECT_FALSE(commands().empty());
  const std::string usage = main_usage();
  for (const Command& command : commands()) {
    EXPECT_NE(usage.find(command.name), std::string::npos);
  }
  const char* unknown[] = {"jem", "frobnicate"};
  EXPECT_EQ(dispatch(2, unknown), kExitUsage);
  const char* nothing[] = {"jem"};
  EXPECT_EQ(dispatch(1, nothing), kExitUsage);
  const char* help[] = {"jem", "--help"};
  EXPECT_EQ(dispatch(2, help), kExitOk);
}

TEST(CliExitCodes, UsageErrorsAreUniformlyTwo) {
  // Unknown option.
  EXPECT_EQ(run(run_map, {"--no-such-flag"}, "jem map"), kExitUsage);
  // Missing required inputs.
  EXPECT_EQ(run(run_map, {}, "jem map"), kExitUsage);
  EXPECT_EQ(run(run_build_index, {"--demo"}, "jem build-index"), kExitUsage);
  // Unknown enum values — the unified --ordering/--scheme contract: every
  // subcommand reports the structured diagnostic and exits 2, not 1.
  EXPECT_EQ(run(run_map, {"--demo", "--ordering", "zigzag"}, "jem map"),
            kExitUsage);
  EXPECT_EQ(run(run_map, {"--demo", "--scheme", "sha256"}, "jem map"),
            kExitUsage);
  EXPECT_EQ(run(run_build_index,
                {"--demo", "--output", "/tmp/x.idx", "--ordering", "zigzag"},
                "jem build-index"),
            kExitUsage);
  EXPECT_EQ(run(run_serve, {"--demo", "--scheme", "sha256"}, "jem serve"),
            kExitUsage);
  // Out-of-range numeric parameters go through the same validated builder.
  EXPECT_EQ(run(run_map, {"--demo", "--k", "99"}, "jem map"), kExitUsage);
  EXPECT_EQ(run(run_serve, {"--demo", "--port", "70000"}, "jem serve"),
            kExitUsage);
  EXPECT_EQ(run(run_probe, {"--port", "0"}, "jem probe"), kExitUsage);
}

TEST(CliMap, DemoRunWritesMappingsAndShimMatchesSubcommand) {
  const std::string dir = ::testing::TempDir();
  const std::string via_shim = dir + "/cli_shim.tsv";
  const std::string via_subcommand = dir + "/cli_subcommand.tsv";

  // The legacy jem_map binary and `jem map` are the same run_map body; a
  // demo run through each program name must produce identical mappings.
  ASSERT_EQ(run(run_map, {"--demo", "--output", via_shim}, "jem_map"),
            kExitOk);
  ASSERT_EQ(run(run_map, {"--demo", "--output", via_subcommand}, "jem map"),
            kExitOk);
  const std::string shim_bytes = read_file(via_shim);
  ASSERT_FALSE(shim_bytes.empty());
  EXPECT_EQ(shim_bytes, read_file(via_subcommand));
}

TEST(CliBuildIndex, ArtifactLoadsIntoTheService) {
  const std::string dir = ::testing::TempDir();
  const std::string index_path = dir + "/cli_demo.jemidx";
  ASSERT_EQ(run(run_build_index, {"--demo", "--output", index_path},
                "jem build-index"),
            kExitOk);

  // The artifact round-trips: from_index accepts it without rebuilding.
  io::SequenceSet subjects;
  io::SequenceSet reads;
  make_demo_dataset(20230517, subjects, reads);
  const core::ServiceConfig config = core::ServiceConfig::make().build();
  const core::MappingService service = core::MappingService::from_index(
      index_path, std::move(subjects), config);
  EXPECT_TRUE(service.load_report().loaded_from_artifact);
  EXPECT_TRUE(service.load_report().rejection.empty());
}

TEST(CliMap, VersionOneIndexIsRebuiltWithIdenticalOutput) {
  // An index artifact from format version 1 (which also carried a CSR copy
  // of the postings) is rejected as bad-version; `jem map` rebuilds from
  // the inputs and writes the same TSV as a run without --load-index.
  const std::string dir = ::testing::TempDir();
  const std::string index_path = dir + "/cli_v1.jemidx";
  const std::string fresh = dir + "/cli_v1_fresh.tsv";
  const std::string reloaded = dir + "/cli_v1_reloaded.tsv";
  ASSERT_EQ(run(run_build_index, {"--demo", "--output", index_path},
                "jem build-index"),
            kExitOk);
  std::string bytes = read_file(index_path);
  ASSERT_GT(bytes.size(), 16u);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 8, &v1, sizeof(v1));  // header: magic, version
  {
    std::ofstream out(index_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ASSERT_EQ(run(run_map, {"--demo", "--output", fresh}, "jem map"), kExitOk);
  std::string log;
  ASSERT_EQ(run(run_map,
                {"--demo", "--load-index", index_path, "--output", reloaded},
                "jem map", &log),
            kExitOk);
  EXPECT_NE(log.find("rejected"), std::string::npos) << log;
  EXPECT_NE(log.find("version 1"), std::string::npos) << log;
  const std::string fresh_bytes = read_file(fresh);
  ASSERT_FALSE(fresh_bytes.empty());
  EXPECT_EQ(read_file(reloaded), fresh_bytes);
}

TEST(CliDemoDataset, IsDeterministicPerSeed) {
  io::SequenceSet subjects_a;
  io::SequenceSet reads_a;
  make_demo_dataset(99, subjects_a, reads_a);
  io::SequenceSet subjects_b;
  io::SequenceSet reads_b;
  make_demo_dataset(99, subjects_b, reads_b);
  ASSERT_EQ(subjects_a.size(), subjects_b.size());
  ASSERT_EQ(reads_a.size(), reads_b.size());
  ASSERT_GT(subjects_a.size(), 0u);
  for (io::SeqId id = 0; id < subjects_a.size(); ++id) {
    EXPECT_EQ(subjects_a.bases(id), subjects_b.bases(id));
  }
}

}  // namespace
}  // namespace jem::cli
