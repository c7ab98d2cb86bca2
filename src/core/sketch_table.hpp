// The sketch data structure S of Algorithm 2: T hash tables, one per trial,
// mapping a minhash k-mer to the subjects that produced it. Includes the
// flat serialization used for the MPI_Allgatherv union step (S3).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/flat_index.hpp"
#include "core/kmer.hpp"
#include "io/sequence.hpp"

namespace jem::core {

/// One serialized table entry; trivially copyable for the allgatherv wire
/// format.
struct SketchEntry {
  KmerCode kmer = 0;
  std::uint32_t trial = 0;
  io::SeqId subject = 0;

  friend bool operator==(const SketchEntry&, const SketchEntry&) = default;
};
static_assert(sizeof(SketchEntry) == 16);

// The table has one form: a FlatSketchIndex, the open-addressing index every
// query path probes (O(1) per lookup, with batched prefetching) and the
// index artifact (core/index_serde) persists verbatim. It is built by
// from_entries — the wire entries are bucketed per trial with a counting
// pass, each trial is sorted and deduplicated (trials in parallel), and the
// sorted runs fill the flat index directly — or by from_flat, the artifact
// loader. A table is immutable once built.
class SketchTable {
 public:
  [[nodiscard]] int trials() const noexcept { return flat_.trials(); }

  /// A no-op kept for callers written against the former mutable table: a
  /// SketchTable is query-ready as built.
  void freeze() const noexcept {}

  /// The query index.
  [[nodiscard]] const FlatSketchIndex& flat() const noexcept { return flat_; }

  /// Number of stored (trial, kmer, subject) entries.
  [[nodiscard]] std::size_t size() const noexcept {
    return flat_.subjects().size();
  }

  /// Number of distinct (trial, kmer) keys.
  [[nodiscard]] std::size_t key_count() const noexcept {
    return flat_.key_count();
  }

  /// Flattens to the wire format (entries ordered by trial, then slot order
  /// of the flat index — order is irrelevant to reconstruction).
  [[nodiscard]] std::vector<SketchEntry> to_entries() const;

  /// Builds a table from concatenated per-rank entry lists, in any order.
  /// Duplicate triples across ranks are collapsed; `trials` == 0 or an entry
  /// with a trial id >= `trials` is std::invalid_argument. The trials are
  /// sorted on `threads` workers (0 = hardware concurrency); the result is
  /// byte-identical for every thread count. from_entries(trials, {}) is the
  /// empty table.
  [[nodiscard]] static SketchTable from_entries(
      int trials, std::span<const SketchEntry> entries,
      std::size_t threads = 1);

  /// Adopts a persisted flat index (the artifact load path: no re-sort, no
  /// re-hash). Throws std::invalid_argument unless it has `trials` trials;
  /// FlatSketchIndex::from_parts has already validated its geometry.
  [[nodiscard]] static SketchTable from_flat(int trials,
                                             FlatSketchIndex flat);

 private:
  explicit SketchTable(FlatSketchIndex flat) : flat_(std::move(flat)) {}

  FlatSketchIndex flat_;
};

}  // namespace jem::core
