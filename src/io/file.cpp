#include "io/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace jem::io {

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;

  // A regular file's size is known up front: the first read fills the
  // buffer exactly, and one more read confirms the end. Otherwise (or if
  // the file grew) the buffer grows in chunks.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  struct stat info {};
  std::size_t expected = 0;
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    expected = static_cast<std::size_t>(info.st_size);
  }
  std::string data(expected + 1, '\0');
  std::size_t used = 0;
  while (true) {
    if (used == data.size()) data.resize(data.size() + kChunk);
    const ssize_t got = ::read(fd, data.data() + used, data.size() - used);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    used += static_cast<std::size_t>(got);
  }
  ::close(fd);
  data.resize(used);
  return data;
}

}  // namespace jem::io
