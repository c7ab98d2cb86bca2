// The sketch data structure S of Algorithm 2: T hash tables, one per trial,
// mapping a minhash k-mer to the subjects that produced it. Includes the
// flat serialization used for the MPI_Allgatherv union step (S3).
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/flat_index.hpp"
#include "core/sketch.hpp"
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

// The table has three representations:
//  * a mutable hash-map form filled by insert() (tests and small incremental
//    builds; freeze() turns it into the frozen forms),
//  * a frozen CSR form — per trial, a position-sorted key array with a
//    postings array — matching the paper's description of S_global as
//    "T lists" (Fig 2). The production build path (sketch_subjects, the
//    distributed S3) is from_entries: the wire entries are bucketed per
//    trial with a counting pass, each trial is sorted (trials in
//    parallel) and emitted as CSR, with no hash maps at all; and
//  * a FlatSketchIndex built alongside the CSR form on freeze — the
//    open-addressing form the query hot path probes (O(1) per lookup, with
//    batched prefetching). lookup() keeps answering from the CSR arrays so
//    the two forms can be validated against each other; flat() exposes the
//    hash index JemMapper queries.
// freeze() and from_entries share one per-trial CSR emitter, so both give
// byte-identical arrays for the same entries. Freezing throws
// std::length_error if any trial's postings exceed the std::uint32_t offset
// range of the CSR layout (2^32 - 1 entries per trial) rather than
// silently truncating.
class SketchTable {
 public:
  /// One trial's frozen list: postings sorted by (kmer, subject); keys/
  /// offsets index the distinct k-mers (CSR layout). Public for the index
  /// artifact (core/index_serde), which persists the arrays verbatim.
  struct FrozenTrial {
    std::vector<KmerCode> keys;              // sorted distinct k-mers
    std::vector<std::uint32_t> offsets;      // keys.size() + 1 entries
    std::vector<io::SeqId> subjects;         // concatenated postings
  };

  /// Creates an empty (mutable) table with `trials` trial bins.
  explicit SketchTable(int trials);

  [[nodiscard]] int trials() const noexcept { return trials_; }

  /// Inserts every (trial, kmer) of `sketch` with value `subject`.
  /// Duplicate (trial, kmer, subject) triples are collapsed.
  /// Throws std::logic_error on a frozen table.
  void insert(const Sketch& sketch, io::SeqId subject);

  /// Inserts one entry. Throws std::logic_error on a frozen table.
  void insert(int trial, KmerCode kmer, io::SeqId subject);

  /// Converts the mutable form into the frozen CSR form (idempotent).
  void freeze();

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// Subjects that produced `kmer` in trial `t` (empty span if none).
  /// On a frozen table this is the CSR binary search; the hot path uses
  /// flat() instead.
  [[nodiscard]] std::span<const io::SeqId> lookup(int trial,
                                                  KmerCode kmer) const;

  /// The open-addressing query index (throws std::logic_error unless
  /// frozen). Lookups agree exactly with lookup() on a frozen table.
  [[nodiscard]] const FlatSketchIndex& flat() const;

  /// Number of stored (trial, kmer, subject) entries.
  [[nodiscard]] std::size_t size() const noexcept { return entries_; }

  /// Number of distinct (trial, kmer) keys.
  [[nodiscard]] std::size_t key_count() const noexcept;

  /// Flattens to the wire format (entries ordered by trial, then key order
  /// of the underlying map — order is irrelevant to reconstruction).
  [[nodiscard]] std::vector<SketchEntry> to_entries() const;

  /// Rebuilds a (frozen) table from concatenated per-rank entry lists, in
  /// any order. Duplicate triples across ranks are collapsed. The trials
  /// are sorted on `threads` workers (0 = hardware concurrency); the result
  /// is byte-identical for every thread count and equal to inserting the
  /// same entries and freezing.
  [[nodiscard]] static SketchTable from_entries(
      int trials, std::span<const SketchEntry> entries,
      std::size_t threads = 1);

  /// Legacy index persistence: a versioned binary dump (magic + trials +
  /// entry list), retained for wire-format compatibility. New code should
  /// use the checksummed artifact format in core/index_serde (save_index /
  /// load_index), which also persists the frozen CSR + flat-index forms so
  /// loading skips the freeze entirely. load() returns a frozen table.
  void save(std::ostream& out) const;
  [[nodiscard]] static SketchTable load(std::istream& in);

  /// One trial's frozen CSR arrays (throws std::logic_error unless frozen).
  [[nodiscard]] const FrozenTrial& frozen_trial(int trial) const;

  /// Reconstructs a frozen table directly from persisted per-trial CSR
  /// arrays and a pre-built flat index — the artifact load path: no re-sort,
  /// no re-hash, no freeze. Validates CSR shape consistency (offset array
  /// sizes, postings totals, sortedness of keys) and that the flat index
  /// agrees on trial and key counts; throws std::invalid_argument on any
  /// violation so a corrupted artifact cannot produce a malformed table.
  [[nodiscard]] static SketchTable from_frozen(
      int trials, std::vector<FrozenTrial> frozen_trials,
      FlatSketchIndex flat);

 private:
  using Bin = std::unordered_map<KmerCode, std::vector<io::SeqId>>;

  /// Builds flat_ from the frozen CSR arrays (last step of freezing).
  void build_flat_index(std::size_t threads);

  int trials_ = 0;
  std::vector<Bin> bins_;
  std::vector<FrozenTrial> frozen_trials_;
  FlatSketchIndex flat_;
  bool frozen_ = false;
  std::size_t entries_ = 0;
};

}  // namespace jem::core
