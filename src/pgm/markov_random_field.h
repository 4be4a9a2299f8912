// MarkovRandomField: a graphical model over the data domain, parameterized
// by log-potentials on the cliques of a junction tree, with exact inference
// by Shafer-Shenoy belief propagation in log space.
//
// The model represents a *scaled* distribution: marginals sum to total()
// (the Private-PGM convention, so model marginals are directly comparable
// to raw-count data marginals).
//
// Inference is cached and lazy (DESIGN.md "Inference engine"): mutating a
// potential marks its clique dirty, Calibrate() invalidates exactly the
// messages whose upstream subtree contains a dirty clique, and messages /
// beliefs materialize on demand when a query needs them. Every cached value
// is a pure function of the potentials computed by a fixed instruction
// sequence, so cache hits are bitwise-identical to recomputation and the
// cache can never change any marginal. AnswerMarginals() answers a batch of
// queries from one calibrated pass: a serial prepass materializes the shared
// state (beliefs of the covering cliques, memoized variable-elimination
// orders for uncovered queries), then the per-query reductions run under
// ParallelMap.
//
// Thread contract: queries (Marginal / MarginalVector / AnswerMarginals /
// CliqueBelief / LogPartition) may run concurrently with each other; any
// mutation (SetPotential / AccumulatePotential / Calibrate / copy-from)
// requires exclusive access, matching the rest of the engine.

#ifndef AIM_PGM_MARKOV_RANDOM_FIELD_H_
#define AIM_PGM_MARKOV_RANDOM_FIELD_H_

#include <array>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/domain.h"
#include "factor/factor.h"
#include "marginal/attr_set.h"
#include "pgm/inference.h"
#include "pgm/junction_tree.h"

namespace aim {

class MarkovRandomField {
 public:
  // Builds the junction tree implied by `model_cliques` and initializes all
  // log-potentials to zero (the uniform model).
  MarkovRandomField(Domain domain, std::vector<AttrSet> model_cliques);

  // Copies/moves transfer the inference cache contents but never share the
  // synchronization state (a mutex guards the lazily materialized messages,
  // so the implicit special members are unavailable).
  MarkovRandomField(const MarkovRandomField& other);
  MarkovRandomField& operator=(const MarkovRandomField& other);
  MarkovRandomField(MarkovRandomField&& other);
  MarkovRandomField& operator=(MarkovRandomField&& other);

  const Domain& domain() const { return domain_; }
  const JunctionTree& tree() const { return tree_; }
  int num_cliques() const { return static_cast<int>(tree_.cliques.size()); }

  // Scale of the represented distribution (estimated record count).
  double total() const { return total_; }
  void set_total(double total);

  // Log-potential on junction-tree clique `i`. Mutating invalidates the
  // calibration; call Calibrate() before reading marginals again.
  const Factor& potential(int i) const { return potentials_[i]; }
  void SetPotential(int i, Factor potential);
  // Adds `delta` (over a subset of clique i's attributes, broadcast) scaled
  // by `scale` into potential i.
  void AccumulatePotential(int i, const Factor& delta, double scale);

  // Index of the first tree clique containing r, or -1.
  int ContainingClique(const AttrSet& r) const {
    return tree_.ContainingClique(r);
  }

  // Validates the calibration: invalidates exactly the messages affected by
  // cliques dirtied since the previous Calibrate(); messages and beliefs
  // then materialize lazily, per query, to the same bits a full
  // recalibration would give.
  void Calibrate();
  bool calibrated() const { return calibrated_; }

  // log of the partition function of exp(sum of potentials).
  double LogPartition() const;

  // Calibrated log-belief of clique i (unnormalized: belief - LogPartition()
  // is the log marginal probability).
  const Factor& CliqueBelief(int i) const;

  // Scaled marginal on r (cells sum to total()). Uses the clique beliefs
  // when r is covered by a tree clique; otherwise falls back to variable
  // elimination over the potentials. Requires Calibrate() first.
  Factor Marginal(const AttrSet& r) const;
  std::vector<double> MarginalVector(const AttrSet& r) const;

  // Batched queries: answers queries[i] exactly as Marginal(queries[i])
  // would — bitwise identical at any thread count — but materializes the
  // shared inference state once and runs the per-query reductions in
  // parallel. Duplicate and overlapping queries share all message work.
  std::vector<Factor> AnswerMarginals(std::span<const AttrSet> queries) const;
  std::vector<std::vector<double>> AnswerMarginalVectors(
      std::span<const AttrSet> queries) const;

  // Forces the variable-elimination path even when r is covered by a tree
  // clique. Exposed for tests: both paths normalize by their own mass, so
  // they must agree bitwise on clique-covered queries.
  Factor MarginalViaVariableElimination(const AttrSet& r) const;

 private:
  // Memoized variable-elimination plan for one query: the greedy
  // elimination order, a pure function of the potential scopes (fixed for
  // the life of the model) and the query.
  struct VeOrder {
    std::vector<int> eliminate;
  };

  void CopyStateFrom(const MarkovRandomField& other);
  void MoveStateFrom(MarkovRandomField& other);
  void BuildTraversal();
  void MarkDirty(int i);

  // Locked helpers: caller holds infer_mu_.
  void ApplyDirtyLocked();
  void ComputeMessageLocked(int from, int to, int edge_index,
                            InferCounters* counters);
  void EnsureMessagesTowardLocked(int target, InferCounters* counters) const;
  void EnsureBeliefLocked(int c, InferCounters* counters) const;
  void EnsureVeComponentsLocked() const;
  const VeOrder& GetVeOrderLocked(const AttrSet& r) const;

  // Executes a memoized elimination order. Pure read of potentials_ /
  // ve_component_ — safe to run outside the lock once both are ready.
  Factor RunVe(const AttrSet& r, const VeOrder& order) const;

  Domain domain_;
  JunctionTree tree_;
  std::vector<Factor> potentials_;  // log space, one per tree clique

  // Fixed DFS traversal from clique 0 for the dirty-subtree computation:
  // order0_ is post-order (children first), parent0_/parent_edge0_ the DFS
  // tree.
  std::vector<int> order0_;
  std::vector<int> parent0_;
  std::vector<int> parent_edge0_;

  // --- Inference cache (guarded by infer_mu_ during queries). ---
  // messages_[e][dir]: message along edge e; dir 0 = a->b, dir 1 = b->a.
  mutable std::vector<std::array<Factor, 2>> messages_;
  mutable std::vector<std::array<char, 2>> message_valid_;
  mutable std::vector<Factor> beliefs_;  // log space, calibrated
  mutable std::vector<char> belief_valid_;
  std::vector<char> dirty_;  // potentials mutated since last Calibrate()
  mutable double log_partition_ = 0.0;
  mutable bool log_partition_valid_ = false;
  // Memoized VE state: attribute connected components (potential scopes
  // never change, so computed once) and per-query elimination orders.
  // unordered_map node storage keeps VeOrder references stable across
  // rehashes, so pointers taken under the lock stay valid outside it.
  mutable std::vector<int> ve_component_;
  mutable bool ve_components_ready_ = false;
  mutable std::unordered_map<AttrSet, VeOrder, AttrSetHash> ve_orders_;
  // Reusable scratch for the locked helpers (message accumulator, dirty
  // subtree counts, DFS walk state). Guarded by infer_mu_ like the caches
  // they serve; deliberately NOT transferred by CopyStateFrom/MoveStateFrom
  // — scratch contents are meaningless between calls, and keeping them
  // local means Calibrate performs no heap allocations once the buffers
  // have grown to their steady-state sizes (tests/factor_test.cc).
  mutable Factor msg_accum_;
  mutable std::vector<int64_t> dirty_subtree_;
  mutable std::vector<int> walk_pre_;
  mutable std::vector<int> walk_parent_;
  mutable std::vector<int> walk_parent_edge_;
  mutable std::vector<int> walk_stack_;
  mutable std::vector<char> walk_seen_;
  mutable std::mutex infer_mu_;

  double total_ = 1.0;
  bool calibrated_ = false;
};

}  // namespace aim

#endif  // AIM_PGM_MARKOV_RANDOM_FIELD_H_
