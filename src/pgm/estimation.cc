#include "pgm/estimation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "marginal/marginal.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "parallel/parallel.h"
#include "robust/fault.h"
#include "util/logging.h"
#include "util/math.h"

namespace aim {
namespace {

const FaultPointRegistration kEstimationFault{"estimation_step"};

}  // namespace

double EstimateTotal(const std::vector<Measurement>& measurements) {
  double numerator = 0.0;
  double denominator = 0.0;
  for (const Measurement& m : measurements) {
    AIM_CHECK_GT(m.sigma, 0.0);
    double estimate = Sum(m.values);
    double variance =
        static_cast<double>(m.values.size()) * m.sigma * m.sigma;
    numerator += estimate / variance;
    denominator += 1.0 / variance;
  }
  if (denominator <= 0.0) return 1.0;
  return std::max(1.0, numerator / denominator);
}

double EstimationObjective(const MarkovRandomField& model,
                           const std::vector<Measurement>& measurements) {
  // One batched inference pass answers every measurement marginal (repeated
  // cliques share all message work); terms are then computed in parallel
  // and summed in measurement order, so the result is bitwise identical to
  // the serial per-query loop at any thread count.
  std::vector<AttrSet> queries;
  queries.reserve(measurements.size());
  for (const Measurement& m : measurements) queries.push_back(m.attrs);
  std::vector<std::vector<double>> mus = model.AnswerMarginalVectors(queries);
  std::vector<double> terms = ParallelMap(
      static_cast<int64_t>(measurements.size()), [&](int64_t i) {
        return SquaredL2Distance(mus[i], measurements[i].values) /
               measurements[i].sigma;
      });
  double objective = 0.0;
  for (double term : terms) objective += term;
  return objective;
}

MarkovRandomField EstimateMrf(const Domain& domain,
                              const std::vector<Measurement>& measurements,
                              double total,
                              const EstimationOptions& options,
                              const MarkovRandomField* warm_start,
                              const std::vector<ZeroConstraint>* zeros,
                              EstimationStats* stats) {
  AIM_CHECK(!measurements.empty());
  MaybeThrowFault("estimation_step");
  EstimationStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EstimationStats();
  LapClock clock(MetricsEnabled() || TraceEnabled());
  std::vector<AttrSet> cliques;
  for (const Measurement& m : measurements) cliques.push_back(m.attrs);
  if (zeros != nullptr) {
    for (const ZeroConstraint& z : *zeros) cliques.push_back(z.attrs);
  }
  if (warm_start != nullptr) {
    // Incremental triangulation: a fresh min-fill order need not reproduce
    // the old fill edges, so an old maximal clique may not be contained in
    // any new one. Adding the old tree cliques to the base graph guarantees
    // containment and keeps the warm start exact.
    for (const AttrSet& c : warm_start->tree().cliques) cliques.push_back(c);
  }

  MarkovRandomField model(domain, cliques);
  model.set_total(total);

  if (warm_start != nullptr) {
    for (int i = 0; i < warm_start->num_cliques(); ++i) {
      int j = model.ContainingClique(warm_start->tree().cliques[i]);
      AIM_CHECK_GE(j, 0) << "warm-start clique not contained in new model";
      model.AccumulatePotential(j, warm_start->potential(i), 1.0);
    }
  }

  if (zeros != nullptr) {
    const double neg_inf = -std::numeric_limits<double>::infinity();
    for (const ZeroConstraint& z : *zeros) {
      Factor mask = Factor::FromDomain(domain, z.attrs, 0.0);
      for (int64_t cell : z.zero_cells) {
        AIM_CHECK(cell >= 0 && cell < mask.num_cells());
        mask.mutable_values()[cell] = neg_inf;
      }
      int j = model.ContainingClique(z.attrs);
      AIM_CHECK_GE(j, 0);
      model.AccumulatePotential(j, mask, 1.0);
    }
  }

  // Map each measurement to a containing tree clique once.
  std::vector<int> home(measurements.size());
  std::vector<AttrSet> query_attrs;
  query_attrs.reserve(measurements.size());
  for (size_t i = 0; i < measurements.size(); ++i) {
    home[i] = model.ContainingClique(measurements[i].attrs);
    AIM_CHECK_GE(home[i], 0);
    AIM_CHECK_EQ(
        static_cast<int64_t>(measurements[i].values.size()),
        MarginalSize(domain, measurements[i].attrs));
    query_attrs.push_back(measurements[i].attrs);
  }
  // The gradient step only mutates the home cliques, so the line search
  // saves and restores exactly those — keeping every other clique's cached
  // messages valid across backtracking attempts.
  std::vector<int> touched = home;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  model.Calibrate();
  double objective = EstimationObjective(model, measurements);

  // Step-size control: each trial step is capped so the largest per-cell
  // log-potential update is at most `initial_step` nats (gradients scale
  // with total/sigma and would otherwise overflow exp()), then adapted
  // multiplicatively — doubling on acceptance, halving on rejection — so
  // the effective step tracks the problem's own curvature.
  double step = std::numeric_limits<double>::infinity();

  // Gradient and line-search buffers persist across iterations: each pass
  // copy-assigns into them, so after the first iteration the mirror-descent
  // loop reuses capacity instead of allocating per step.
  std::vector<Factor> gradients(measurements.size());
  std::vector<Factor> saved(touched.size());

  int stall = 0;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Gradient of L with respect to each clique's marginal, lifted to the
    // clique log-potentials (entropic mirror descent step). Per-measurement
    // gradients only read the calibrated model, so they compute in
    // parallel; each writes only its own slot, so the result is identical
    // to the sequential loop.
    std::vector<Factor> mus = model.AnswerMarginals(query_attrs);
    ParallelFor(0, static_cast<int64_t>(measurements.size()), 1,
                [&](int64_t i) {
                  const Measurement& m = measurements[i];
                  const Factor& mu = mus[i];
                  Factor& grad = gradients[i];
                  grad = mu;  // reuse shape (and capacity after iter 0)
                  std::vector<double>& g = grad.mutable_values();
                  const double scale = 2.0 / m.sigma;
                  for (size_t t = 0; t < g.size(); ++t) {
                    g[t] = scale * (mu.value(t) - m.values[t]);
                  }
                });

    // Cap the step so the largest per-cell potential change stays bounded.
    double grad_max = 0.0;
    for (const Factor& g : gradients) {
      for (double v : g.values()) grad_max = std::max(grad_max, std::fabs(v));
    }
    double trial =
        grad_max > 0.0 ? std::min(step, options.initial_step / grad_max)
                       : step;
    if (!std::isfinite(trial) || trial <= 0.0) break;  // zero gradient

    // Backtracking line search on the primal objective.
    for (size_t c = 0; c < touched.size(); ++c) {
      saved[c] = model.potential(touched[c]);
    }
    bool accepted = false;
    double new_objective = objective;
    for (int attempt = 0; attempt < 60; ++attempt) {
      for (size_t i = 0; i < measurements.size(); ++i) {
        model.AccumulatePotential(home[i], gradients[i], -trial);
      }
      model.Calibrate();
      new_objective = EstimationObjective(model, measurements);
      if (new_objective <= objective && std::isfinite(new_objective)) {
        accepted = true;
        break;
      }
      // Restore and retry with a smaller step.
      for (size_t c = 0; c < touched.size(); ++c) {
        model.SetPotential(touched[c], saved[c]);
      }
      trial *= 0.5;
      ++stats->backtracking_steps;
      if (trial < 1e-15) break;
    }
    if (!accepted) {
      model.Calibrate();
      break;
    }
    ++stats->iterations;
    // Step adaptation. An accepted step with negligible improvement is the
    // signature of overshooting across a narrow valley (the step bounces
    // between near-symmetric points), so the base step SHRINKS on a
    // negligible-improvement acceptance and grows only on real progress.
    double improvement = objective - new_objective;
    objective = new_objective;
    if (improvement < options.tolerance * std::max(1.0, objective)) {
      step = trial * 0.5;
      if (++stall >= options.patience) {
        stats->converged = true;
        break;
      }
    } else {
      step = trial * 2.0;
      stall = 0;
    }
  }
  if (!model.calibrated()) model.Calibrate();
  stats->final_objective = objective;

  const double seconds = clock.Lap();
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter& calls = registry.counter("pgm.estimation.calls");
    static Counter& iters = registry.counter("pgm.estimation.iterations");
    static Counter& backtracks =
        registry.counter("pgm.estimation.backtracks");
    static Histogram& seconds_hist =
        registry.histogram("pgm.estimation.seconds");
    calls.Add(1);
    iters.Add(stats->iterations);
    backtracks.Add(stats->backtracking_steps);
    seconds_hist.Observe(seconds);
  }
  if (TraceEnabled()) {
    EmitTrace(TraceEvent("estimation")
                  .Set("measurements",
                       static_cast<int64_t>(measurements.size()))
                  .Set("cliques", model.num_cliques())
                  .Set("iterations", stats->iterations)
                  .Set("backtracking_steps", stats->backtracking_steps)
                  .Set("objective", stats->final_objective)
                  .Set("converged", stats->converged)
                  .Set("warm_start", warm_start != nullptr)
                  .Set("seconds", seconds));
  }
  return model;
}

}  // namespace aim
