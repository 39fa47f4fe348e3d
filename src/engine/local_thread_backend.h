// LocalThreadBackend — the in-process SampleBackend: a persistent worker
// pool fills private per-worker shard collections by claiming fixed-size
// index chunks off an atomic counter (dynamic load balancing for
// heavy-tailed RR-set sizes), and a chunk table restores global index
// order for the merge. This is the sampling core SamplingEngine always
// had, factored out so process shards can slot in behind the same
// interface — and so worker processes themselves can reuse it to sample
// the exact ranges the coordinator requests.
#ifndef TIMPP_ENGINE_LOCAL_THREAD_BACKEND_H_
#define TIMPP_ENGINE_LOCAL_THREAD_BACKEND_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "engine/sample_backend.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace timpp {

class LocalThreadBackend final : public SampleBackend {
 public:
  /// `graph`, `config`'s borrowed pointers and `root_distribution`
  /// (nullptr = uniform roots) must outlive the backend.
  /// `config.num_threads` fixes the pool size (1 = sequential).
  LocalThreadBackend(const Graph& graph, const SamplingConfig& config,
                     const AliasTable* root_distribution = nullptr);
  ~LocalThreadBackend() override;

  Status Fill(uint64_t base, uint64_t count,
              const SampleFilter* filter) override;
  std::span<const Chunk> chunks() const override { return chunk_views_; }
  bool AppendDirect(uint64_t base, uint64_t count, RRCollection* out,
                    uint64_t* edges_examined, uint64_t* traversal_cost,
                    std::vector<uint64_t>* per_set_edges) override;

  /// Fill variant for an explicit ascending index list — what a sampling
  /// worker runs for the coordinator's filtered (kSampleList) requests.
  /// O(list length), parallel over list slices; the chunks expose the
  /// listed indices in order. Contrast Fill with a membership filter,
  /// which would walk the whole covering range.
  Status FillList(std::span<const uint64_t> indices);

 private:
  /// Per-worker state: a private sampler plus shard buffers refilled each
  /// fill. Samplers persist across fills so traversal scratch (VisitMarker,
  /// BFS queue) is allocated once per run.
  struct Shard;

  /// Samples global indices [begin, end) into shard `w`'s buffers,
  /// skipping indices rejected by `filter` (may be null).
  void SampleRange(unsigned w, uint64_t begin, uint64_t end,
                   const SampleFilter* filter);
  /// Samples the listed indices into shard `w`'s buffers (indices
  /// recorded).
  void SampleList(unsigned w, std::span<const uint64_t> indices);
  /// Clears every shard's buffers and the chunk table.
  void ResetShards();
  /// A chunk view over shard `w`'s sets [begin, end).
  Chunk MakeChunk(unsigned w, size_t begin, size_t end) const;
  /// Rebuilds chunk_views_ (size num_chunks) from the shards' claim
  /// tables, in global chunk order.
  void BuildChunkTable(uint64_t num_chunks);

  const Graph& graph_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Chunk> chunk_views_;    // rebuilt by every Fill
  std::unique_ptr<ThreadPool> pool_;  // nullptr when num_threads <= 1
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_LOCAL_THREAD_BACKEND_H_
