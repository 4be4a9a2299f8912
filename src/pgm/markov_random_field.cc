#include "pgm/markov_random_field.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "parallel/parallel.h"
#include "util/logging.h"

namespace aim {
namespace {

// Direction index of the message `from` sends along `edge` (0 = a->b).
int DirFrom(const JunctionTree::Edge& edge, int from) {
  return edge.a == from ? 0 : 1;
}

}  // namespace

MarkovRandomField::MarkovRandomField(Domain domain,
                                     std::vector<AttrSet> model_cliques)
    : domain_(std::move(domain)),
      tree_(BuildJunctionTree(domain_, model_cliques)) {
  potentials_.reserve(tree_.cliques.size());
  for (const AttrSet& clique : tree_.cliques) {
    potentials_.push_back(Factor::FromDomain(domain_, clique, 0.0));
  }
  BuildTraversal();
  messages_.resize(tree_.edges.size());
  message_valid_.assign(tree_.edges.size(), {0, 0});
  beliefs_.resize(tree_.cliques.size());
  belief_valid_.assign(tree_.cliques.size(), 0);
  dirty_.assign(tree_.cliques.size(), 1);
}

MarkovRandomField::MarkovRandomField(const MarkovRandomField& other) {
  CopyStateFrom(other);
}

MarkovRandomField& MarkovRandomField::operator=(
    const MarkovRandomField& other) {
  if (this != &other) CopyStateFrom(other);
  return *this;
}

MarkovRandomField::MarkovRandomField(MarkovRandomField&& other) {
  MoveStateFrom(other);
}

MarkovRandomField& MarkovRandomField::operator=(MarkovRandomField&& other) {
  if (this != &other) MoveStateFrom(other);
  return *this;
}

void MarkovRandomField::CopyStateFrom(const MarkovRandomField& other) {
  // Guard against a concurrent query on `other` materializing cache state
  // mid-copy; infer_mu_ itself is never copied.
  std::lock_guard<std::mutex> lock(other.infer_mu_);
  domain_ = other.domain_;
  tree_ = other.tree_;
  potentials_ = other.potentials_;
  order0_ = other.order0_;
  parent0_ = other.parent0_;
  parent_edge0_ = other.parent_edge0_;
  messages_ = other.messages_;
  message_valid_ = other.message_valid_;
  beliefs_ = other.beliefs_;
  belief_valid_ = other.belief_valid_;
  dirty_ = other.dirty_;
  log_partition_ = other.log_partition_;
  log_partition_valid_ = other.log_partition_valid_;
  ve_component_ = other.ve_component_;
  ve_components_ready_ = other.ve_components_ready_;
  ve_orders_ = other.ve_orders_;
  total_ = other.total_;
  calibrated_ = other.calibrated_;
}

void MarkovRandomField::MoveStateFrom(MarkovRandomField& other) {
  std::lock_guard<std::mutex> lock(other.infer_mu_);
  domain_ = std::move(other.domain_);
  tree_ = std::move(other.tree_);
  potentials_ = std::move(other.potentials_);
  order0_ = std::move(other.order0_);
  parent0_ = std::move(other.parent0_);
  parent_edge0_ = std::move(other.parent_edge0_);
  messages_ = std::move(other.messages_);
  message_valid_ = std::move(other.message_valid_);
  beliefs_ = std::move(other.beliefs_);
  belief_valid_ = std::move(other.belief_valid_);
  dirty_ = std::move(other.dirty_);
  log_partition_ = other.log_partition_;
  log_partition_valid_ = other.log_partition_valid_;
  ve_component_ = std::move(other.ve_component_);
  ve_components_ready_ = other.ve_components_ready_;
  ve_orders_ = std::move(other.ve_orders_);
  total_ = other.total_;
  calibrated_ = other.calibrated_;
}

void MarkovRandomField::BuildTraversal() {
  const int k = num_cliques();
  parent0_.assign(k, -1);
  parent_edge0_.assign(k, -1);
  order0_.clear();
  order0_.reserve(k);
  std::vector<int> stack = {0};
  std::vector<char> seen(k, 0);
  seen[0] = 1;
  std::vector<int> pre;
  while (!stack.empty()) {
    int c = stack.back();
    stack.pop_back();
    pre.push_back(c);
    for (auto [nbr, edge] : tree_.neighbors[c]) {
      if (!seen[nbr]) {
        seen[nbr] = 1;
        parent0_[nbr] = c;
        parent_edge0_[nbr] = edge;
        stack.push_back(nbr);
      }
    }
  }
  AIM_CHECK_EQ(static_cast<int>(pre.size()), k);
  order0_.assign(pre.rbegin(), pre.rend());  // post-order (children first)
}

void MarkovRandomField::set_total(double total) {
  AIM_CHECK_GT(total, 0.0);
  total_ = total;
}

void MarkovRandomField::MarkDirty(int i) {
  dirty_[i] = 1;
  calibrated_ = false;
}

void MarkovRandomField::SetPotential(int i, Factor potential) {
  AIM_CHECK_GE(i, 0);
  AIM_CHECK_LT(i, num_cliques());
  AIM_CHECK(potential.attrs() == potentials_[i].attrs());
  potentials_[i] = std::move(potential);
  MarkDirty(i);
}

void MarkovRandomField::AccumulatePotential(int i, const Factor& delta,
                                            double scale) {
  AIM_CHECK_GE(i, 0);
  AIM_CHECK_LT(i, num_cliques());
  potentials_[i].AddInPlace(delta, scale);
  MarkDirty(i);
}

void MarkovRandomField::ApplyDirtyLocked() {
  // Invalidation rule: the message u->v depends on every potential on the
  // u-side of edge (u,v), so it is stale iff some dirty clique lies in that
  // side. With the DFS tree rooted at clique 0, the u-side of the edge
  // between child c and parent p is exactly c's subtree for the upward
  // message, and everything else for the downward one — one subtree-count
  // pass decides both directions for every edge.
  const int k = num_cliques();
  int64_t total_dirty = 0;
  for (char d : dirty_) total_dirty += d;
  if (total_dirty == 0) return;
  dirty_subtree_.assign(k, 0);
  std::vector<int64_t>& sub = dirty_subtree_;
  for (int c : order0_) {
    sub[c] += dirty_[c];
    if (parent0_[c] >= 0) sub[parent0_[c]] += sub[c];
  }
  for (int c = 0; c < k; ++c) {
    if (parent0_[c] < 0) continue;
    int e = parent_edge0_[c];
    int up = DirFrom(tree_.edges[e], c);
    if (sub[c] > 0) message_valid_[e][up] = 0;
    if (total_dirty - sub[c] > 0) message_valid_[e][1 - up] = 0;
  }
  // Any dirty clique changes the joint distribution, so every belief (and
  // the partition function) is stale even where all incoming messages
  // survive.
  std::fill(belief_valid_.begin(), belief_valid_.end(), 0);
  log_partition_valid_ = false;
}

void MarkovRandomField::Calibrate() {
  std::lock_guard<std::mutex> lock(infer_mu_);
  ApplyDirtyLocked();
  std::fill(dirty_.begin(), dirty_.end(), 0);
  calibrated_ = true;
}

void MarkovRandomField::ComputeMessageLocked(int from, int to, int edge_index,
                                             InferCounters* counters) {
  const JunctionTree::Edge& edge = tree_.edges[edge_index];
  int dir = DirFrom(edge, from);
  // Copy-assign into the scratch accumulator (and LogSumExpToInto into the
  // existing message slot) so steady-state recomputation reuses capacity
  // instead of allocating per message.
  msg_accum_ = potentials_[from];
  for (auto [nbr, e] : tree_.neighbors[from]) {
    if (nbr == to) continue;
    const JunctionTree::Edge& in_edge = tree_.edges[e];
    int in_dir = DirFrom(in_edge, nbr);
    AIM_CHECK(message_valid_[e][in_dir]);
    msg_accum_.AddInPlace(messages_[e][in_dir]);
  }
  msg_accum_.LogSumExpToInto(edge.separator, &messages_[edge_index][dir]);
  message_valid_[edge_index][dir] = 1;
  ++counters->messages_recomputed;
}

void MarkovRandomField::EnsureMessagesTowardLocked(
    int target, InferCounters* counters) const {
  // Materialize, children before parents, every message on the DFS tree
  // rooted at `target` — i.e. all messages flowing toward the target. Each
  // message is a fixed function of the potentials and the already-validated
  // messages behind it, so materialization order cannot change its bits.
  const int k = num_cliques();
  std::vector<int>& pre = walk_pre_;
  std::vector<int>& parent = walk_parent_;
  std::vector<int>& parent_edge = walk_parent_edge_;
  std::vector<int>& stack = walk_stack_;
  pre.clear();
  parent.assign(k, -1);
  parent_edge.assign(k, -1);
  stack.assign(1, target);
  walk_seen_.assign(k, 0);
  std::vector<char>& seen = walk_seen_;
  seen[target] = 1;
  while (!stack.empty()) {
    int c = stack.back();
    stack.pop_back();
    pre.push_back(c);
    for (auto [nbr, edge] : tree_.neighbors[c]) {
      if (!seen[nbr]) {
        seen[nbr] = 1;
        parent[nbr] = c;
        parent_edge[nbr] = edge;
        stack.push_back(nbr);
      }
    }
  }
  auto* self = const_cast<MarkovRandomField*>(this);
  for (auto it = pre.rbegin(); it != pre.rend(); ++it) {
    int c = *it;
    if (parent[c] < 0) continue;
    int e = parent_edge[c];
    int dir = DirFrom(tree_.edges[e], c);
    if (message_valid_[e][dir]) {
      ++counters->messages_reused;
    } else {
      self->ComputeMessageLocked(c, parent[c], e, counters);
    }
  }
}

void MarkovRandomField::EnsureBeliefLocked(int c,
                                           InferCounters* counters) const {
  if (belief_valid_[c]) return;
  EnsureMessagesTowardLocked(c, counters);
  // Copy-assign so a belief recomputed into an already-materialized slot
  // reuses its buffer. Partial state is invisible: the caller holds
  // infer_mu_ and belief_valid_ flips only at the end.
  beliefs_[c] = potentials_[c];
  for (auto [nbr, e] : tree_.neighbors[c]) {
    const JunctionTree::Edge& in_edge = tree_.edges[e];
    int in_dir = DirFrom(in_edge, nbr);
    AIM_CHECK(message_valid_[e][in_dir]);
    beliefs_[c].AddInPlace(messages_[e][in_dir]);
  }
  belief_valid_[c] = 1;
}

double MarkovRandomField::LogPartition() const {
  AIM_CHECK(calibrated_) << "call Calibrate() first";
  InferCounters counters;
  double log_partition;
  {
    std::lock_guard<std::mutex> lock(infer_mu_);
    if (!log_partition_valid_) {
      EnsureBeliefLocked(0, &counters);
      log_partition_ = beliefs_[0].LogSumExp();
      log_partition_valid_ = true;
    }
    log_partition = log_partition_;
  }
  FlushInferCounters(counters);
  return log_partition;
}

const Factor& MarkovRandomField::CliqueBelief(int i) const {
  AIM_CHECK(calibrated_) << "call Calibrate() first";
  AIM_CHECK_GE(i, 0);
  AIM_CHECK_LT(i, num_cliques());
  InferCounters counters;
  {
    std::lock_guard<std::mutex> lock(infer_mu_);
    EnsureBeliefLocked(i, &counters);
  }
  FlushInferCounters(counters);
  return beliefs_[i];
}

Factor MarkovRandomField::Marginal(const AttrSet& r) const {
  AIM_CHECK(calibrated_) << "call Calibrate() first";
  AIM_CHECK(!r.empty());
  int clique = ContainingClique(r);
  InferCounters counters;
  Factor log_marginal;
  if (clique >= 0) {
    {
      std::lock_guard<std::mutex> lock(infer_mu_);
      EnsureBeliefLocked(clique, &counters);
    }
    log_marginal = beliefs_[clique].LogSumExpTo(r);
  } else {
    const VeOrder* order;
    {
      std::lock_guard<std::mutex> lock(infer_mu_);
      EnsureVeComponentsLocked();
      order = &GetVeOrderLocked(r);
    }
    log_marginal = RunVe(r, *order);
  }
  FlushInferCounters(counters);
  // Normalize via the factor's own mass: identical to log_partition_ in
  // exact arithmetic but more robust numerically, and — unlike the global
  // partition function — gives both answer paths the same normalizer, so a
  // query gets bitwise the same answer no matter which path serves it.
  double log_z = log_marginal.LogSumExp();
  log_marginal.ExpInPlace(log_z);
  log_marginal.ScaleInPlace(total_);
  return log_marginal;
}

std::vector<double> MarkovRandomField::MarginalVector(const AttrSet& r) const {
  return Marginal(r).values();
}

Factor MarkovRandomField::MarginalViaVariableElimination(
    const AttrSet& r) const {
  AIM_CHECK(calibrated_) << "call Calibrate() first";
  AIM_CHECK(!r.empty());
  const VeOrder* order;
  {
    std::lock_guard<std::mutex> lock(infer_mu_);
    EnsureVeComponentsLocked();
    order = &GetVeOrderLocked(r);
  }
  Factor log_marginal = RunVe(r, *order);
  double log_z = log_marginal.LogSumExp();
  log_marginal.ExpInPlace(log_z);
  log_marginal.ScaleInPlace(total_);
  return log_marginal;
}

std::vector<Factor> MarkovRandomField::AnswerMarginals(
    std::span<const AttrSet> queries) const {
  AIM_CHECK(calibrated_) << "call Calibrate() first";
  const int64_t n = static_cast<int64_t>(queries.size());
  std::vector<int> clique(n);
  std::vector<const VeOrder*> ve_order(n, nullptr);
  InferCounters counters;
  {
    // Serial prepass: materialize every shared piece of inference state the
    // batch needs (beliefs of the covering cliques; VE components and
    // memoized elimination orders for uncovered queries). The parallel
    // phase below then only reads.
    std::lock_guard<std::mutex> lock(infer_mu_);
    for (int64_t i = 0; i < n; ++i) {
      AIM_CHECK(!queries[i].empty());
      clique[i] = ContainingClique(queries[i]);
      if (clique[i] >= 0) {
        EnsureBeliefLocked(clique[i], &counters);
      } else {
        EnsureVeComponentsLocked();
        ve_order[i] = &GetVeOrderLocked(queries[i]);
      }
    }
  }
  FlushInferCounters(counters, n);
  // Per-query reductions, identical instruction sequence to Marginal(), so
  // the batch is bitwise-equal to the sequential path at any thread count.
  return ParallelMap(n, [&](int64_t i) {
    Factor log_marginal = clique[i] >= 0
                              ? beliefs_[clique[i]].LogSumExpTo(queries[i])
                              : RunVe(queries[i], *ve_order[i]);
    double log_z = log_marginal.LogSumExp();
    log_marginal.ExpInPlace(log_z);
    log_marginal.ScaleInPlace(total_);
    return log_marginal;
  });
}

std::vector<std::vector<double>> MarkovRandomField::AnswerMarginalVectors(
    std::span<const AttrSet> queries) const {
  std::vector<Factor> factors = AnswerMarginals(queries);
  std::vector<std::vector<double>> out(factors.size());
  for (size_t i = 0; i < factors.size(); ++i) {
    out[i] = std::move(factors[i].mutable_values());
  }
  return out;
}

void MarkovRandomField::EnsureVeComponentsLocked() const {
  // Attribute connected components over the potential scopes. Scopes are
  // fixed at construction, so one union-find pass serves every VE query.
  if (ve_components_ready_) return;
  std::vector<int> component(domain_.num_attributes());
  std::iota(component.begin(), component.end(), 0);
  auto find = [&](int x) {
    while (component[x] != x) {
      component[x] = component[component[x]];
      x = component[x];
    }
    return x;
  };
  for (const Factor& f : potentials_) {
    if (f.num_attrs() == 0) continue;
    int root = find(f.attrs()[0]);
    for (int attr : f.attrs()) component[find(attr)] = root;
  }
  ve_component_.resize(domain_.num_attributes());
  for (int a = 0; a < domain_.num_attributes(); ++a) ve_component_[a] = find(a);
  ve_components_ready_ = true;
}

const MarkovRandomField::VeOrder& MarkovRandomField::GetVeOrderLocked(
    const AttrSet& r) const {
  auto it = ve_orders_.find(r);
  if (it != ve_orders_.end()) return it->second;

  // Simulate the elimination symbolically (scopes only, no factor math) with
  // exactly the greedy rule RunVe's predecessor applied inline: eliminate
  // the attribute whose combined factor is smallest, strict < tie-break over
  // the remaining to_eliminate order.
  std::vector<AttrSet> scopes;
  std::vector<char> keep_component(domain_.num_attributes(), 0);
  for (int attr : r) keep_component[ve_component_[attr]] = 1;
  for (const Factor& f : potentials_) {
    if (f.num_attrs() > 0 && keep_component[ve_component_[f.attrs()[0]]]) {
      scopes.push_back(f.attr_set());
    }
  }
  std::vector<char> in_r(domain_.num_attributes(), 0);
  for (int attr : r) in_r[attr] = 1;
  std::vector<char> present(domain_.num_attributes(), 0);
  for (const AttrSet& s : scopes) {
    for (int attr : s) present[attr] = 1;
  }
  std::vector<int> to_eliminate;
  for (int attr = 0; attr < domain_.num_attributes(); ++attr) {
    if (present[attr] && !in_r[attr]) to_eliminate.push_back(attr);
  }
  VeOrder order;
  order.eliminate.reserve(to_eliminate.size());
  while (!to_eliminate.empty()) {
    int best_pos = -1;
    double best_cells = std::numeric_limits<double>::infinity();
    for (size_t pos = 0; pos < to_eliminate.size(); ++pos) {
      int attr = to_eliminate[pos];
      AttrSet scope;
      for (const AttrSet& s : scopes) {
        if (s.Contains(attr)) scope = scope.Union(s);
      }
      double cells = 1.0;
      for (int a : scope) cells *= static_cast<double>(domain_.size(a));
      if (cells < best_cells) {
        best_cells = cells;
        best_pos = static_cast<int>(pos);
      }
    }
    int attr = to_eliminate[best_pos];
    to_eliminate.erase(to_eliminate.begin() + best_pos);
    order.eliminate.push_back(attr);

    AttrSet merged;
    std::vector<AttrSet> remaining;
    bool any = false;
    for (AttrSet& s : scopes) {
      if (s.Contains(attr)) {
        merged = merged.Union(s);
        any = true;
      } else {
        remaining.push_back(std::move(s));
      }
    }
    AIM_CHECK(any);
    remaining.push_back(merged.Difference(AttrSet({attr})));
    scopes = std::move(remaining);
  }
  return ve_orders_.emplace(r, std::move(order)).first->second;
}

Factor MarkovRandomField::RunVe(const AttrSet& r, const VeOrder& order) const {
  // Sum-product variable elimination over the (log) potentials, following a
  // memoized elimination order. Factors in graph components disconnected
  // from r contribute only a multiplicative constant that the final
  // normalization cancels, so they are dropped — this makes candidate
  // scoring on sparse models (AIM's early rounds) dramatically cheaper.
  std::vector<char> keep_component(domain_.num_attributes(), 0);
  for (int attr : r) keep_component[ve_component_[attr]] = 1;
  std::vector<Factor> factors;
  for (const Factor& f : potentials_) {
    if (f.num_attrs() > 0 && keep_component[ve_component_[f.attrs()[0]]]) {
      factors.push_back(f);
    }
  }
  std::vector<char> present(domain_.num_attributes(), 0);
  for (const Factor& f : factors) {
    for (int attr : f.attrs()) present[attr] = 1;
  }
  for (int attr : r) {
    AIM_CHECK(present[attr]) << "attribute" << attr << "missing from model";
  }
  for (int attr : order.eliminate) {
    Factor combined;
    bool first = true;
    std::vector<Factor> remaining;
    for (Factor& f : factors) {
      if (f.AxisOf(attr) >= 0) {
        combined = first ? std::move(f) : combined.Add(f);
        first = false;
      } else {
        remaining.push_back(std::move(f));
      }
    }
    AIM_CHECK(!first);
    AttrSet keep = combined.attr_set().Difference(AttrSet({attr}));
    remaining.push_back(combined.LogSumExpTo(keep));
    factors = std::move(remaining);
  }
  // Combine what remains and restrict to r.
  Factor result;
  bool first = true;
  for (Factor& f : factors) {
    result = first ? std::move(f) : result.Add(f);
    first = false;
  }
  AIM_CHECK(!first);
  AIM_CHECK(r.IsSubsetOf(result.attr_set()));
  if (result.attr_set() != r) {
    result = result.LogSumExpTo(r);
  }
  return result;
}

}  // namespace aim
