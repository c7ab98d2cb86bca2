// Whole-file reads: one read into a buffer sized from the file, with a
// chunked fallback when the size is unknown (pipes, procfs), instead of a
// stream copy through a growing buffer.
#pragma once

#include <optional>
#include <string>

namespace jem::io {

/// The file's bytes; std::nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace jem::io
