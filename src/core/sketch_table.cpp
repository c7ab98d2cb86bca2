#include "core/sketch_table.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace jem::core {

namespace {

using Posting = std::pair<KmerCode, io::SeqId>;

/// The one CSR construction: sorts one trial's postings by (kmer, subject),
/// collapses duplicate postings and emits the key/offset/subject arrays.
/// CSR offsets are std::uint32_t per trial: refuses a trial whose postings
/// would overflow them instead of silently truncating. Returns the number
/// of postings kept.
std::size_t emit_trial(std::span<Posting> postings,
                       SketchTable::FrozenTrial& frozen) {
  std::sort(postings.begin(), postings.end());
  const auto last = std::unique(postings.begin(), postings.end());
  const auto kept = static_cast<std::size_t>(last - postings.begin());
  if (kept > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "SketchTable: trial postings exceed the uint32 CSR offset range");
  }
  std::size_t keys = 0;
  for (auto it = postings.begin(); it != last; ++it) {
    keys += it == postings.begin() || std::prev(it)->first != it->first;
  }
  frozen.keys.reserve(keys);
  frozen.offsets.reserve(keys + 1);
  frozen.subjects.reserve(kept);
  for (auto it = postings.begin(); it != last; ++it) {
    const auto& [kmer, subject] = *it;
    if (frozen.keys.empty() || frozen.keys.back() != kmer) {
      frozen.keys.push_back(kmer);
      frozen.offsets.push_back(
          static_cast<std::uint32_t>(frozen.subjects.size()));
    }
    frozen.subjects.push_back(subject);
  }
  frozen.offsets.push_back(static_cast<std::uint32_t>(frozen.subjects.size()));
  return kept;
}

}  // namespace

SketchTable::SketchTable(int trials) : trials_(trials) {
  if (trials < 1) {
    throw std::invalid_argument("SketchTable: trials must be >= 1");
  }
  bins_.resize(static_cast<std::size_t>(trials));
}

void SketchTable::insert(const Sketch& sketch, io::SeqId subject) {
  if (sketch.trials() != trials()) {
    throw std::invalid_argument("SketchTable::insert: trial count mismatch");
  }
  for (int t = 0; t < trials(); ++t) {
    for (KmerCode kmer : sketch.per_trial[static_cast<std::size_t>(t)]) {
      insert(t, kmer, subject);
    }
  }
}

void SketchTable::insert(int trial, KmerCode kmer, io::SeqId subject) {
  if (frozen_) {
    throw std::logic_error("SketchTable::insert: table is frozen");
  }
  auto& postings = bins_[static_cast<std::size_t>(trial)][kmer];
  // Postings are kept sorted; subjects inserted in non-decreasing id order
  // (the usual case) append in O(1), and arbitrary-order inserts still
  // preserve set semantics via binary search.
  if (postings.empty() || postings.back() < subject) {
    postings.push_back(subject);
  } else {
    const auto it =
        std::lower_bound(postings.begin(), postings.end(), subject);
    if (it != postings.end() && *it == subject) return;
    postings.insert(it, subject);
  }
  ++entries_;
}

void SketchTable::freeze() {
  if (frozen_) return;
  frozen_trials_.resize(bins_.size());
  std::vector<Posting> postings;
  for (std::size_t t = 0; t < bins_.size(); ++t) {
    Bin& bin = bins_[t];
    std::size_t count = 0;
    for (const auto& entry : bin) count += entry.second.size();
    postings.clear();
    postings.reserve(count);
    for (const auto& [kmer, subjects] : bin) {
      for (const io::SeqId subject : subjects) {
        postings.emplace_back(kmer, subject);
      }
    }
    Bin().swap(bin);  // release the bin before its trial's CSR arrays grow
    (void)emit_trial(postings, frozen_trials_[t]);
  }
  bins_.clear();
  bins_.shrink_to_fit();
  build_flat_index(1);
  frozen_ = true;
}

void SketchTable::build_flat_index(std::size_t threads) {
  std::vector<FlatSketchIndex::TrialView> views;
  views.reserve(frozen_trials_.size());
  for (const FrozenTrial& frozen : frozen_trials_) {
    views.push_back({frozen.keys, frozen.offsets, frozen.subjects});
  }
  flat_ = FlatSketchIndex::build(views, threads);
}

const FlatSketchIndex& SketchTable::flat() const {
  if (!frozen_) {
    throw std::logic_error("SketchTable::flat: table is not frozen");
  }
  return flat_;
}

std::span<const io::SeqId> SketchTable::lookup(int trial,
                                               KmerCode kmer) const {
  if (frozen_) {
    const FrozenTrial& frozen =
        frozen_trials_[static_cast<std::size_t>(trial)];
    const auto it =
        std::lower_bound(frozen.keys.begin(), frozen.keys.end(), kmer);
    if (it == frozen.keys.end() || *it != kmer) return {};
    const auto index =
        static_cast<std::size_t>(std::distance(frozen.keys.begin(), it));
    const std::uint32_t begin = frozen.offsets[index];
    const std::uint32_t end = frozen.offsets[index + 1];
    return std::span<const io::SeqId>(frozen.subjects)
        .subspan(begin, end - begin);
  }
  const Bin& bin = bins_[static_cast<std::size_t>(trial)];
  const auto it = bin.find(kmer);
  if (it == bin.end()) return {};
  return it->second;
}

std::size_t SketchTable::key_count() const noexcept {
  std::size_t keys = 0;
  if (frozen_) {
    for (const FrozenTrial& frozen : frozen_trials_) {
      keys += frozen.keys.size();
    }
  } else {
    for (const Bin& bin : bins_) keys += bin.size();
  }
  return keys;
}

std::vector<SketchEntry> SketchTable::to_entries() const {
  std::vector<SketchEntry> entries;
  entries.reserve(entries_);
  for (int t = 0; t < trials(); ++t) {
    if (frozen_) {
      const FrozenTrial& frozen =
          frozen_trials_[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < frozen.keys.size(); ++i) {
        for (std::uint32_t j = frozen.offsets[i]; j < frozen.offsets[i + 1];
             ++j) {
          entries.push_back({frozen.keys[i], static_cast<std::uint32_t>(t),
                             frozen.subjects[j]});
        }
      }
    } else {
      for (const auto& [kmer, postings] :
           bins_[static_cast<std::size_t>(t)]) {
        for (io::SeqId subject : postings) {
          entries.push_back({kmer, static_cast<std::uint32_t>(t), subject});
        }
      }
    }
  }
  return entries;
}

SketchTable SketchTable::from_entries(int trials,
                                      std::span<const SketchEntry> entries,
                                      std::size_t threads) {
  SketchTable table(trials);
  const auto trial_count = static_cast<std::size_t>(trials);

  // Counting pass: bucket the entries per trial into one exactly-sized
  // postings array (no per-trial regrowth), then sort the trials in
  // parallel and emit each one's CSR arrays. Duplicate triples (a subject
  // whose sketches were computed by two ranks can never occur with
  // contiguous partitions, but the wire format does not forbid it)
  // collapse in the per-trial emit.
  std::vector<std::size_t> starts(trial_count + 1, 0);
  for (const SketchEntry& entry : entries) {
    if (entry.trial >= trial_count) {
      throw std::invalid_argument("SketchTable::from_entries: bad trial id");
    }
    ++starts[entry.trial + 1];
  }
  for (std::size_t t = 0; t < trial_count; ++t) starts[t + 1] += starts[t];
  std::vector<Posting> postings(entries.size());
  {
    std::vector<std::size_t> cursor(starts.begin(), starts.end() - 1);
    for (const SketchEntry& entry : entries) {
      postings[cursor[entry.trial]++] = {entry.kmer, entry.subject};
    }
  }

  table.frozen_trials_.resize(trial_count);
  std::vector<std::size_t> kept(trial_count, 0);
  const std::size_t workers = util::resolve_threads(threads);
  util::parallel_for_index(trial_count, workers, [&](std::size_t t) {
    kept[t] = emit_trial(
        std::span<Posting>(postings).subspan(starts[t],
                                             starts[t + 1] - starts[t]),
        table.frozen_trials_[t]);
  });
  postings = {};
  for (const std::size_t n : kept) table.entries_ += n;
  table.bins_.clear();
  table.build_flat_index(workers);
  table.frozen_ = true;
  return table;
}

const SketchTable::FrozenTrial& SketchTable::frozen_trial(int trial) const {
  if (!frozen_) {
    throw std::logic_error("SketchTable::frozen_trial: table is not frozen");
  }
  return frozen_trials_.at(static_cast<std::size_t>(trial));
}

SketchTable SketchTable::from_frozen(int trials,
                                     std::vector<FrozenTrial> frozen_trials,
                                     FlatSketchIndex flat) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("SketchTable::from_frozen: ") +
                                what);
  };
  if (trials < 1) fail("trials must be >= 1");
  if (frozen_trials.size() != static_cast<std::size_t>(trials)) {
    fail("trial count disagrees with the CSR arrays");
  }
  if (flat.trials() != trials) fail("flat index trial count mismatch");

  SketchTable table(trials);
  std::size_t keys = 0;
  for (const FrozenTrial& frozen : frozen_trials) {
    if (frozen.offsets.size() != frozen.keys.size() + 1) {
      fail("offset array size disagrees with key count");
    }
    if (frozen.offsets.front() != 0 ||
        frozen.offsets.back() != frozen.subjects.size()) {
      fail("offsets do not cover the postings array");
    }
    for (std::size_t i = 0; i + 1 < frozen.offsets.size(); ++i) {
      if (frozen.offsets[i] > frozen.offsets[i + 1]) {
        fail("offsets are not non-decreasing");
      }
    }
    for (std::size_t i = 1; i < frozen.keys.size(); ++i) {
      if (frozen.keys[i - 1] >= frozen.keys[i]) {
        fail("keys are not strictly increasing");
      }
    }
    keys += frozen.keys.size();
    table.entries_ += frozen.subjects.size();
  }
  if (flat.key_count() != keys) fail("flat index key count mismatch");

  table.frozen_trials_ = std::move(frozen_trials);
  table.flat_ = std::move(flat);
  table.bins_.clear();
  table.frozen_ = true;
  return table;
}

namespace {
constexpr std::uint64_t kTableMagic = 0x4a454d5f54424c31ULL;  // "JEM_TBL1"
}  // namespace

void SketchTable::save(std::ostream& out) const {
  const std::vector<SketchEntry> entries = to_entries();
  const std::uint64_t magic = kTableMagic;
  const auto trial_count = static_cast<std::uint64_t>(trials_);
  const auto entry_count = static_cast<std::uint64_t>(entries.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&trial_count), sizeof(trial_count));
  out.write(reinterpret_cast<const char*>(&entry_count), sizeof(entry_count));
  out.write(reinterpret_cast<const char*>(entries.data()),
            static_cast<std::streamsize>(entries.size() *
                                         sizeof(SketchEntry)));
  if (!out) throw std::runtime_error("SketchTable::save: write failed");
}

SketchTable SketchTable::load(std::istream& in) {
  std::uint64_t magic = 0;
  std::uint64_t trial_count = 0;
  std::uint64_t entry_count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&trial_count), sizeof(trial_count));
  in.read(reinterpret_cast<char*>(&entry_count), sizeof(entry_count));
  if (!in || magic != kTableMagic) {
    throw std::runtime_error("SketchTable::load: bad header (not a JEM "
                             "sketch table)");
  }
  if (trial_count == 0 || trial_count > 1'000'000) {
    throw std::runtime_error("SketchTable::load: implausible trial count");
  }
  std::vector<SketchEntry> entries(entry_count);
  in.read(reinterpret_cast<char*>(entries.data()),
          static_cast<std::streamsize>(entry_count * sizeof(SketchEntry)));
  if (!in) throw std::runtime_error("SketchTable::load: truncated file");
  return from_entries(static_cast<int>(trial_count), entries);
}

}  // namespace jem::core
