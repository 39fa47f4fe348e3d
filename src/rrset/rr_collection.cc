#include "rrset/rr_collection.h"

#include <algorithm>
#include <functional>

#include "util/thread_pool.h"

namespace timpp {

namespace {

// The one growth rule for the set arrays: an array that must grow gets
// capacity max(want, 2 · capacity), so appending up to a final size S
// copies fewer than 2·S elements however small the appends are. The
// reallocation stays out of line so an append that fits (nearly every
// per-set Add) costs one inlined capacity compare per array.
template <typename T>
[[gnu::noinline]] void Regrow(std::vector<T>* v, size_t want,
                              uint64_t* bytes_copied) {
  *bytes_copied += v->size() * sizeof(T);
  v->reserve(std::max(want, 2 * v->capacity()));
}

template <typename T>
void GrowFor(std::vector<T>* v, size_t want, uint64_t* bytes_copied) {
  if (want > v->capacity()) [[unlikely]] {
    Regrow(v, want, bytes_copied);
  }
}

template <typename T>
void TrimToSize(std::vector<T>* v, uint64_t* bytes_copied) {
  if (v->capacity() == v->size()) return;
  *bytes_copied += v->size() * sizeof(T);
  v->shrink_to_fit();
}

}  // namespace

RRSetId RRCollection::Add(std::span<const NodeId> nodes, uint64_t width) {
  // Reserve(1, nodes.size()), spelled out so the compares inline here.
  GrowFor(&offsets_, offsets_.size() + 1, &realloc_bytes_copied_);
  GrowFor(&widths_, widths_.size() + 1, &realloc_bytes_copied_);
  GrowFor(&nodes_, nodes_.size() + nodes.size(), &realloc_bytes_copied_);
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
  offsets_.push_back(nodes_.size());
  widths_.push_back(width);
  total_width_ += width;
  index_built_ = false;
  return static_cast<RRSetId>(num_sets() - 1);
}

void RRCollection::AppendRange(const RRCollection& src, size_t first,
                               size_t count) {
  first = std::min(first, src.num_sets());
  count = std::min(count, src.num_sets() - first);
  if (count == 0) return;
  const size_t base = nodes_.size();
  const EdgeIndex src_base = src.offsets_[first];
  Reserve(count, src.offsets_[first + count] - src_base);
  nodes_.insert(nodes_.end(), src.nodes_.begin() + src_base,
                src.nodes_.begin() + src.offsets_[first + count]);
  for (size_t i = first + 1; i <= first + count; ++i) {
    offsets_.push_back(base + (src.offsets_[i] - src_base));
  }
  widths_.insert(widths_.end(), src.widths_.begin() + first,
                 src.widths_.begin() + first + count);
  for (size_t i = first; i < first + count; ++i) {
    total_width_ += src.widths_[i];
  }
  index_built_ = false;
}

void RRCollection::AppendPacked(std::span<const NodeId> members,
                                std::span<const uint64_t> sizes,
                                std::span<const uint64_t> widths) {
  Reserve(sizes.size(), members.size());
  nodes_.insert(nodes_.end(), members.begin(), members.end());
  EdgeIndex end = offsets_.back();
  for (uint64_t size : sizes) offsets_.push_back(end += size);
  widths_.insert(widths_.end(), widths.begin(), widths.end());
  for (uint64_t width : widths) total_width_ += width;
  index_built_ = false;
}

void RRCollection::Reserve(size_t sets, size_t nodes) {
  GrowFor(&offsets_, offsets_.size() + sets, &realloc_bytes_copied_);
  GrowFor(&widths_, widths_.size() + sets, &realloc_bytes_copied_);
  GrowFor(&nodes_, nodes_.size() + nodes, &realloc_bytes_copied_);
}

void RRCollection::ShrinkToFit() {
  TrimToSize(&offsets_, &realloc_bytes_copied_);
  TrimToSize(&widths_, &realloc_bytes_copied_);
  TrimToSize(&nodes_, &realloc_bytes_copied_);
}

void RRCollection::BuildIndex(ThreadPool* pool) {
  const size_t sets = num_sets();
  const size_t members = nodes_.size();
  const size_t n = num_nodes_;
  size_t tasks = pool != nullptr ? pool->num_workers() + 1 : 1;
  tasks = std::max<size_t>(1, std::min({tasks, sets, members / (n + 1)}));
  const auto run = [&](const std::function<void(unsigned)>& task) {
    if (tasks == 1) {
      task(0);
    } else {
      pool->ParallelRun(static_cast<unsigned>(tasks), task);
    }
  };
  // Task t owns sets [first[t], first[t + 1]), about members / tasks
  // members, and the cursor row cursor[t · n, (t + 1) · n).
  std::vector<size_t> first(tasks + 1, sets);
  for (size_t t = 0; t < tasks; ++t) {
    first[t] = static_cast<size_t>(
        std::lower_bound(offsets_.begin(), offsets_.end(),
                         t * members / tasks) -
        offsets_.begin());
  }
  std::vector<EdgeIndex> cursor(tasks * n, 0);
  run([&](unsigned t) {
    EdgeIndex* count = cursor.data() + t * n;
    for (NodeId v : Members(first[t], first[t + 1])) ++count[v];
  });
  index_offsets_.resize(n + 1);
  EdgeIndex running = 0;
  for (size_t v = 0; v < n; ++v) {
    index_offsets_[v] = running;
    for (size_t t = 0; t < tasks; ++t) {
      const EdgeIndex count = cursor[t * n + v];
      cursor[t * n + v] = running;
      running += count;
    }
  }
  index_offsets_[n] = running;
  index_sets_.resize(members);
  run([&](unsigned t) {
    EdgeIndex* next = cursor.data() + t * n;
    for (size_t id = first[t]; id < first[t + 1]; ++id) {
      for (NodeId v : Set(static_cast<RRSetId>(id))) {
        index_sets_[next[v]++] = static_cast<RRSetId>(id);
      }
    }
  });
  index_built_ = true;
}

double RRCollection::CoveredFraction(std::span<const NodeId> seeds) const {
  if (num_sets() == 0) return 0.0;
  // Count distinct covered sets by merging the per-seed id lists through a
  // scratch bitmap sized by set count.
  std::vector<char> covered(num_sets(), 0);
  size_t count = 0;
  for (NodeId s : seeds) {
    for (RRSetId id : SetsContaining(s)) {
      if (!covered[id]) {
        covered[id] = 1;
        ++count;
      }
    }
  }
  return static_cast<double>(count) / static_cast<double>(num_sets());
}

size_t RRCollection::MemoryBytes() const {
  return offsets_.capacity() * sizeof(EdgeIndex) +
         nodes_.capacity() * sizeof(NodeId) +
         widths_.capacity() * sizeof(uint64_t) +
         index_offsets_.capacity() * sizeof(EdgeIndex) +
         index_sets_.capacity() * sizeof(RRSetId);
}

size_t RRCollection::DataBytes() const {
  return offsets_.size() * sizeof(EdgeIndex) +
         nodes_.size() * sizeof(NodeId) +
         widths_.size() * sizeof(uint64_t) +
         index_offsets_.size() * sizeof(EdgeIndex) +
         index_sets_.size() * sizeof(RRSetId);
}

void RRCollection::DropIndex() {
  index_built_ = false;
  index_offsets_.clear();
  index_sets_.clear();
}

void RRCollection::TruncateTo(size_t num_sets) {
  if (num_sets >= this->num_sets()) return;
  for (size_t id = num_sets; id < widths_.size(); ++id) {
    total_width_ -= widths_[id];
  }
  offsets_.resize(num_sets + 1);
  nodes_.resize(offsets_[num_sets]);
  widths_.resize(num_sets);
  index_built_ = false;
  index_offsets_.clear();
  index_sets_.clear();
}

void RRCollection::Clear() {
  offsets_.assign(1, 0);
  nodes_.clear();
  widths_.clear();
  total_width_ = 0;
  index_built_ = false;
  index_offsets_.clear();
  index_sets_.clear();
}

}  // namespace timpp
