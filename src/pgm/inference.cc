#include "pgm/inference.h"

#include "obs/metrics.h"

namespace aim {

void FlushInferCounters(const InferCounters& counters, int64_t batch_queries) {
  if (!MetricsEnabled()) return;
  static Counter& recomputed =
      MetricsRegistry::Global().counter("pgm.infer.messages_recomputed");
  static Counter& reused =
      MetricsRegistry::Global().counter("pgm.infer.messages_reused");
  static Counter& batch =
      MetricsRegistry::Global().counter("pgm.infer.batch_queries");
  if (counters.messages_recomputed > 0) {
    recomputed.Add(counters.messages_recomputed);
  }
  if (counters.messages_reused > 0) reused.Add(counters.messages_reused);
  if (batch_queries > 0) batch.Add(batch_queries);
}

}  // namespace aim
