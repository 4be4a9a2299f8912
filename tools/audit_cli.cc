// audit_cli: empirical privacy audit of the DP mechanisms.
//
//   audit_cli [--mechanism=AIM] [--epsilon=1.0] [--delta=1e-9]
//             [--pairs=100] [--records=500] [--domain=4,4,4]
//             [--stat=measurement|synthetic|selection]
//             [--confidence=0.95] [--seed=N] [--threads=N]
//             [--csv] [--require-claim]
//             [--trace-out=F] [--metrics-out=F]
//
// Crafts a worst-case neighboring pair (D, D ∪ {canary}), runs the
// mechanism many times on both sides with coupled randomness, thresholds a
// distinguishing statistic, and reports the empirical epsilon with exact
// Clopper-Pearson confidence edges next to the accountant's claimed
// epsilon (see DESIGN.md "Privacy auditing").
//
// Exit codes follow the shared Status contract (util/status.h,
// ExitCodeForStatus; see the README table): 0 success; 2 usage or invalid
// argument; other failures map their StatusCode. Exit 3 is reserved here
// for claim refutation: --require-claim is set and the empirical epsilon's
// upper confidence edge exceeds the claimed epsilon (i.e. the audit could
// not certify consistency with the claim at the configured confidence).

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "eval/experiment.h"
#include "marginal/workload.h"
#include "mechanisms/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/fault.h"
#include "util/signal_cancel.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

struct CliFlags {
  std::string mechanism = "AIM";
  double epsilon = 1.0;
  double delta = 1e-9;
  int pairs = 100;
  int64_t records = 500;
  std::string domain = "4,4,4";
  std::string stat = "measurement";
  double confidence = 0.95;
  uint64_t seed = 0;
  int threads = 0;  // 0 = automatic (AIM_THREADS env, else hardware)
  bool csv = false;
  bool require_claim = false;
  std::string trace_out;
  std::string metrics_out;
};

int Usage() {
  std::cerr
      << "usage: audit_cli [--mechanism=AIM|MST|...]\n"
      << "  --epsilon=F --delta=F     claimed guarantee to audit "
         "(default 1.0, 1e-9)\n"
      << "  --pairs=N                 paired trials (default 100)\n"
      << "  --records=N               base-dataset size (default 500)\n"
      << "  --domain=n1,n2,...        attribute sizes of the audit domain "
         "(default 4,4,4; every size >= 2)\n"
      << "  --stat=measurement|synthetic|selection\n"
      << "                            distinguishing statistic "
         "(default measurement)\n"
      << "  --confidence=F            Clopper-Pearson coverage "
         "(default 0.95)\n"
      << "  --seed=N --threads=N --csv\n"
      << "  --require-claim           exit 3 unless the empirical epsilon's "
         "upper CI edge stays at or below the claimed epsilon\n"
      << "  --trace-out=F             JSONL audit trace (- or stderr)\n"
      << "  --metrics-out=F           metrics JSON dump at exit (- for "
         "stdout)\n"
      << "  --list-fault-points       print registered fault points, exit\n"
      << "  (AIM_FAULTS env arms deterministic fault injection; failed "
         "pairs are excluded from the bound, never counted)\n";
  return 2;
}

// Prints a typed error and maps its Status category to the process exit
// code (exit 3 stays reserved for claim refutation, which is not a Status).
int Fail(const aim::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return aim::ExitCodeForStatus(status);
}

int RunCli(int argc, char** argv) {
  using namespace aim;
  CliFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    if (arg == "--list-fault-points") {
      for (const std::string& point : RegisteredFaultPoints()) {
        std::cout << point << "\n";
      }
      return 0;
    } else if (arg == "--csv") {
      flags.csv = true;
    } else if (arg == "--require-claim") {
      flags.require_claim = true;
    } else if (StripPrefix(arg, "--mechanism=", &value)) {
      flags.mechanism = value;
    } else if (StripPrefix(arg, "--epsilon=", &value)) {
      if (!ParseDouble(value, &flags.epsilon)) return Usage();
    } else if (StripPrefix(arg, "--delta=", &value)) {
      if (!ParseDouble(value, &flags.delta)) return Usage();
    } else if (StripPrefix(arg, "--pairs=", &value)) {
      // ParseInt32 range-checks, so a --pairs past INT_MAX is a usage
      // error instead of a silent truncation to some smaller pair count.
      if (!ParseInt32(value, &flags.pairs) || flags.pairs < 1) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--records=", &value)) {
      if (!ParseInt64(value, &flags.records) || flags.records < 1) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--domain=", &value)) {
      flags.domain = value;
    } else if (StripPrefix(arg, "--stat=", &value)) {
      flags.stat = value;
    } else if (StripPrefix(arg, "--confidence=", &value)) {
      if (!ParseDouble(value, &flags.confidence)) return Usage();
    } else if (StripPrefix(arg, "--seed=", &value)) {
      // Seeds are unsigned; "--seed=-1" used to bit-cast to 2^64-1, which
      // silently audited a different RNG stream than the operator wrote
      // down. Now it is a usage error.
      if (!ParseUint64(value, &flags.seed)) return Usage();
    } else if (StripPrefix(arg, "--threads=", &value)) {
      if (!ParseInt32(value, &flags.threads) || flags.threads < 0) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--trace-out=", &value)) {
      flags.trace_out = value;
    } else if (StripPrefix(arg, "--metrics-out=", &value)) {
      flags.metrics_out = value;
    } else {
      return Usage();
    }
  }
  SetParallelThreads(flags.threads);
  InitFaultsFromEnv();

  std::unique_ptr<JsonlTraceSink> trace_sink;
  if (!flags.trace_out.empty()) {
    trace_sink = std::make_unique<JsonlTraceSink>(flags.trace_out);
    if (!trace_sink->ok()) {
      return Fail(InternalError("cannot open trace output '" +
                                flags.trace_out + "'"));
    }
    SetGlobalTraceSink(trace_sink.get());
  } else {
    InitTraceSinkFromEnv();
  }
  if (!flags.metrics_out.empty()) SetMetricsEnabled(true);

  // ---- Audit domain: small on purpose. The attack's power per pair does
  // not grow with the domain, but runtime does; a tiny domain lets the pair
  // count (which is what tightens the CI) go up instead.
  std::vector<int> sizes;
  for (const std::string& part : SplitString(flags.domain, ',')) {
    int v;
    if (!ParseInt32(part, &v) || v < 2) {
      return Fail(InvalidArgumentError(
          "bad --domain (want comma-separated sizes >= 2)"));
    }
    sizes.push_back(v);
  }
  if (sizes.empty()) return Usage();
  const Domain domain = Domain::WithSizes(sizes);

  StatusOr<AttackStatistic> statistic = ParseAttackStatistic(flags.stat);
  if (!statistic.ok()) return Fail(statistic.status());

  // Modest estimation effort: the audit domain is tiny, so full paper-scale
  // iteration counts would only slow the fan-out down without changing the
  // distinguishing statistics in any way that matters at this scale.
  RegistryOptions registry_options;
  registry_options.round_iters = 50;
  registry_options.final_iters = 100;
  std::unique_ptr<Mechanism> mechanism =
      MechanismByName(flags.mechanism, registry_options);
  if (mechanism == nullptr) {
    return Fail(
        InvalidArgumentError("unknown mechanism '" + flags.mechanism + "'"));
  }

  const Workload workload =
      AllKWayWorkload(domain, std::min(2, domain.num_attributes()));

  AuditOptions options;
  options.epsilon = flags.epsilon;
  options.delta = flags.delta;
  options.pairs = flags.pairs;
  options.num_records = flags.records;
  options.statistic = *statistic;
  options.confidence = flags.confidence;
  options.seed = flags.seed;
  // SIGINT/SIGTERM wind the pair fan-out down at the next pair boundary;
  // the audit then reports CancelledError (a partial pair set must never
  // masquerade as a bound) and we exit 9 with the sinks flushed.
  InstallSignalCancel();
  options.cancel = &ProcessCancelToken();

  StatusOr<AuditResult> audit =
      RunAudit(*mechanism, domain, workload, options);
  if (!audit.ok()) {
    // Flush observability even on the error path: an interrupted audit's
    // partial trace (the pairs that did finish) is still evidence.
    if (trace_sink != nullptr) {
      SetGlobalTraceSink(nullptr);
      trace_sink->Flush();
    }
    return Fail(audit.status());
  }

  TablePrinter table({"mechanism", "stat", "eps_claimed", "pairs", "failed",
                      "tpr", "fpr", "eps_point", "eps_lower", "eps_upper",
                      "refuted", "seconds"});
  table.AddRow({audit->mechanism, ToString(audit->statistic),
                FormatG(audit->claimed_epsilon),
                std::to_string(audit->estimate.pairs),
                std::to_string(audit->failures.size()),
                FormatG(audit->estimate.tpr), FormatG(audit->estimate.fpr),
                FormatG(audit->estimate.eps_point),
                FormatG(audit->estimate.eps_lower),
                FormatG(audit->estimate.eps_upper),
                audit->refuted ? "YES" : "no", FormatG(audit->seconds, 3)});
  table.Print(std::cout, flags.csv);
  if (!flags.csv) {
    std::cout << "claimed (eps=" << FormatG(audit->claimed_epsilon)
              << ", delta=" << FormatG(audit->delta)
              << ") -> rho=" << FormatG(audit->rho) << "; empirical eps in ["
              << FormatG(audit->estimate.eps_lower) << ", "
              << FormatG(audit->estimate.eps_upper) << "] at "
              << FormatG(100.0 * flags.confidence) << "% confidence\n";
    if (audit->refuted) {
      std::cout << "REFUTED: the sound lower bound exceeds the claimed "
                   "epsilon — the mechanism is not ("
                << FormatG(audit->claimed_epsilon) << ", "
                << FormatG(audit->delta) << ")-DP\n";
    }
  }

  // ---- Teardown mirrors aim_cli: flush sinks and surface lost records.
  int exit_code = 0;
  if (flags.require_claim &&
      !(audit->estimate.eps_upper <= audit->claimed_epsilon)) {
    std::cerr << "claim check failed: empirical eps upper edge "
              << FormatG(audit->estimate.eps_upper)
              << " exceeds claimed eps "
              << FormatG(audit->claimed_epsilon) << "\n";
    exit_code = 3;
  }
  if (!flags.metrics_out.empty()) {
    if (flags.metrics_out == "-") {
      MetricsRegistry::Global().WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream out(flags.metrics_out);
      MetricsRegistry::Global().WriteJson(out);
      out << "\n";
      if (!out) {
        std::cerr << "error: failed writing metrics to '"
                  << flags.metrics_out << "'\n";
        exit_code = exit_code == 0 ? 1 : exit_code;
      }
    }
  }
  if (trace_sink != nullptr) {
    SetGlobalTraceSink(nullptr);
    trace_sink->Flush();
    if (!trace_sink->ok()) {
      std::cerr << "error: " << trace_sink->status().ToString() << "\n";
      exit_code = exit_code == 0 ? 1 : exit_code;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos-sweep containment: injected faults and library exceptions become
  // clean typed exits, never std::terminate.
  try {
    return RunCli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return aim::ExitCodeForStatus(aim::InternalError(e.what()));
  }
}
