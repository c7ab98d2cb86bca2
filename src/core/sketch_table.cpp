#include "core/sketch_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace jem::core {

using Posting = FlatSketchIndex::Posting;

std::vector<SketchEntry> SketchTable::to_entries() const {
  std::vector<SketchEntry> entries;
  entries.reserve(size());
  const std::span<const FlatSketchIndex::Slot> slots = flat_.slots();
  const std::span<const io::SeqId> pool = flat_.subjects();
  for (std::size_t t = 0; t < flat_.bases().size(); ++t) {
    const std::size_t capacity = flat_.masks()[t] + 1;
    for (const FlatSketchIndex::Slot& slot :
         slots.subspan(flat_.bases()[t], capacity)) {
      for (const io::SeqId subject : pool.subspan(slot.offset, slot.count)) {
        entries.push_back({slot.kmer, static_cast<std::uint32_t>(t), subject});
      }
    }
  }
  return entries;
}

SketchTable SketchTable::from_entries(int trials,
                                      std::span<const SketchEntry> entries,
                                      std::size_t threads) {
  if (trials < 1) {
    throw std::invalid_argument("SketchTable: trials must be >= 1");
  }
  const auto trial_count = static_cast<std::size_t>(trials);

  // Counting pass: bucket the entries per trial into one exactly-sized
  // postings array (no per-trial regrowth), then sort and deduplicate the
  // trials in parallel. Duplicate triples (a subject whose sketches were
  // computed by two ranks can never occur with contiguous partitions, but
  // the wire format does not forbid it) collapse here.
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

  std::vector<std::span<const Posting>> runs(trial_count);
  const std::size_t workers = util::resolve_threads(threads);
  util::parallel_for_index(trial_count, workers, [&](std::size_t t) {
    const auto first = postings.begin() + static_cast<std::ptrdiff_t>(starts[t]);
    const auto last =
        postings.begin() + static_cast<std::ptrdiff_t>(starts[t + 1]);
    std::sort(first, last);
    runs[t] = {first, std::unique(first, last)};
  });
  return SketchTable(FlatSketchIndex::build(runs, workers));
}

SketchTable SketchTable::from_flat(int trials, FlatSketchIndex flat) {
  if (trials < 1 || flat.trials() != trials) {
    throw std::invalid_argument(
        "SketchTable::from_flat: flat index trial count mismatch");
  }
  return SketchTable(std::move(flat));
}

}  // namespace jem::core
