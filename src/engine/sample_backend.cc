#include "engine/sample_backend.h"

#include "distributed/process_shard_backend.h"
#include "engine/local_thread_backend.h"
#include "engine/sampling_engine.h"

namespace timpp {

std::unique_ptr<SampleBackend> CreateSampleBackend(
    const Graph& graph, const SamplingConfig& config,
    const AliasTable* root_distribution) {
  switch (config.sample_backend.kind) {
    case SampleBackendKind::kProcessShards:
      return std::make_unique<ProcessShardBackend>(graph, config,
                                                   root_distribution);
    case SampleBackendKind::kLocalThreads:
      break;
  }
  return std::make_unique<LocalThreadBackend>(graph, config,
                                              root_distribution);
}

}  // namespace timpp
