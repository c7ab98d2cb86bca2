#include "io/file.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <string>
#include <thread>

namespace jem::io {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/jem_read_file_" + name;
}

std::string pattern(std::size_t size) {
  std::string data(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<char>((i * 131 + i / 7) & 0xff);
  }
  return data;
}

TEST(ReadFile, ReturnsTheWholeRegularFile) {
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{65536}, std::size_t{300001}}) {
    const std::string path = temp_path("regular.bin");
    const std::string data = pattern(size);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    const auto got = read_file(path);
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(*got, data) << size;
  }
}

TEST(ReadFile, MissingFileOrDirectoryIsNullopt) {
  EXPECT_FALSE(read_file(temp_path("missing.bin")).has_value());
  EXPECT_FALSE(read_file(::testing::TempDir()).has_value());
}

TEST(ReadFile, ReadsAPipeOfUnknownSizeInChunks) {
  const std::string path = temp_path("fifo");
  ::unlink(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string data = pattern(200'000);  // several 64 KiB chunks
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  });
  const auto got = read_file(path);
  writer.join();
  ::unlink(path.c_str());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

}  // namespace
}  // namespace jem::io
