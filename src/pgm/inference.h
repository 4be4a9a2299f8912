// Inference-engine counters for the Private-PGM engine.
//
// The MarkovRandomField calibration cache (DESIGN.md "Inference engine")
// tracks which clique potentials changed since the last calibration and
// recomputes only the Shafer-Shenoy messages on tree paths affected by the
// dirty cliques; beliefs materialize lazily, per queried clique. The cache
// is a pure memoization layer: every message and belief it reuses would be
// recomputed to the identical bits (tests/infer_test.cc compares a cached
// model with a freshly built one).

#ifndef AIM_PGM_INFERENCE_H_
#define AIM_PGM_INFERENCE_H_

#include <cstdint>

namespace aim {

// Per-call tallies of message-cache behaviour, accumulated by the locked
// inference helpers and flushed to the metrics registry (when metrics are
// enabled) as:
//   pgm.infer.messages_recomputed  messages whose inputs changed
//   pgm.infer.messages_reused      cached messages served from the cache
//   pgm.infer.batch_queries        queries answered through AnswerMarginals
struct InferCounters {
  int64_t messages_recomputed = 0;
  int64_t messages_reused = 0;
};

// Flushes `counters` (plus `batch_queries` answered queries) to the metrics
// registry; a no-op when metrics are disabled.
void FlushInferCounters(const InferCounters& counters,
                        int64_t batch_queries = 0);

}  // namespace aim

#endif  // AIM_PGM_INFERENCE_H_
