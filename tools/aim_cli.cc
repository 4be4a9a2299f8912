// aim_cli: end-to-end command-line synthesizer.
//
//   aim_cli --input=data.csv --output=synth.csv --epsilon=1.0
//           [--delta=1e-9] [--workload=all3way|all2way|target:<attr>]
//           [--bins=32] [--max_size_mb=80] [--records=N] [--seed=N]
//           [--report] [--trace-out=trace.jsonl] [--metrics-out=metrics.json]
//
// Reads a raw CSV (header row; categorical and numerical columns detected
// automatically per Appendix A), runs AIM under the requested (epsilon,
// delta) budget, writes integer-coded synthetic records to --output, and —
// with --report — prints per-query 95% confidence bounds (Section 5) so a
// data consumer can judge the quality of every workload marginal without
// any further privacy cost.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "data/csv.h"
#include "eval/experiment.h"
#include "marginal/marginal.h"
#include "mechanisms/aim.h"
#include "mechanisms/synthesis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/fault.h"
#include "robust/supervisor.h"
#include "uncertainty/bounds.h"
#include "util/cancel.h"
#include "util/signal_cancel.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

struct CliFlags {
  // Input, workload, budget, seed and mechanism options (the latter hold
  // --max_size_mb, --records, --checkpoint-*, --resume and --deadline-s).
  aim::SynthesisSpec run;
  std::string output = "synthetic.csv";
  int threads = 0;  // 0 = automatic (AIM_THREADS env, else hardware)
  bool report = false;
  std::string trace_out;    // JSONL round trace ("-"/"stderr" = stderr)
  std::string metrics_out;  // metrics JSON dump ("-" = stdout)
  double stall_timeout_s = 0.0;  // watchdog stall window; <= 0 = none
};

int Usage() {
  std::cerr << "usage: aim_cli --input=data.{csv,aim} [--output=synth.csv]\n"
            << "  --data=F                  alias for --input; the format is "
               "auto-detected from the file content (raw CSV, an .aim "
               "columnar store, or a csv2aim shard manifest — stores are "
               "mmap'd and streamed, never fully loaded)\n"
            << "  --epsilon=F --delta=F     privacy budget (default 1.0, "
               "1e-9)\n"
            << "  --workload=all3way|all2way|target:<attribute name>\n"
            << "  --bins=N                  numeric discretization bins "
               "(default 32)\n"
            << "  --max_size_mb=F           model capacity (default 80)\n"
            << "  --records=N               synthetic records (default: "
               "estimated input size)\n"
            << "  --threads=N               worker threads (default: "
               "AIM_THREADS env or hardware)\n"
            << "  --trace-out=F             per-round JSONL trace "
               "(- or stderr for stderr; AIM_TRACE env also honored)\n"
            << "  --metrics-out=F           metrics JSON dump at exit "
               "(- for stdout)\n"
            << "  --checkpoint-out=F        crash-safe snapshot, written "
               "atomically every --checkpoint-every=N rounds (default 1)\n"
            << "  --checkpoint-generations=N  rotated snapshot generations "
               "kept at F, F.gen1, ... (default 1)\n"
            << "  --resume=F                resume from a snapshot written "
               "by --checkpoint-out (same data/flags/seed required); falls "
               "back to the newest valid generation\n"
            << "  --deadline-s=F            wall-clock budget; on expiry "
               "AIM stops selecting and synthesizes from what it has\n"
            << "  --stall-timeout-s=F       watchdog: if no round completes "
               "within F seconds, checkpoint and exit 7 "
               "(DEADLINE_EXCEEDED)\n"
            << "  --list-fault-points       print registered fault points, "
               "one per line, and exit\n"
            << "  --seed=N --report\n"
            << "  (AIM_FAULTS env arms deterministic fault injection; see "
               "DESIGN.md. Exit codes map Status categories: 0 OK, "
               "1 INTERNAL, 2 usage/INVALID_ARGUMENT, 4 NOT_FOUND, "
               "5 FAILED_PRECONDITION, 6 OUT_OF_RANGE, 7 DEADLINE_EXCEEDED, "
               "8 UNAVAILABLE, 9 CANCELLED [SIGINT/SIGTERM: the run wound "
               "down at a round boundary with a final checkpoint] — see "
               "README.)\n";
  return 2;
}

// Uniform error epilogue: print and map the typed status to the documented
// exit code.
int Fail(const aim::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return aim::ExitCodeForStatus(status);
}

}  // namespace

static int RunCli(int argc, char** argv) {
  using namespace aim;
  CliFlags flags;
  RegistryOptions& options = flags.run.options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    if (arg == "--report") {
      flags.report = true;
    } else if (arg == "--list-fault-points") {
      // Discovery hook for the chaos sweep (scripts/chaos_sweep.py): every
      // fault point whose TU is linked into this binary, one per line.
      for (const std::string& point : RegisteredFaultPoints()) {
        std::cout << point << "\n";
      }
      return 0;
    } else if (StripPrefix(arg, "--input=", &value) ||
               StripPrefix(arg, "--data=", &value)) {
      flags.run.input = value;
    } else if (StripPrefix(arg, "--output=", &value)) {
      flags.output = value;
    } else if (StripPrefix(arg, "--workload=", &value)) {
      flags.run.workload = value;
    } else if (StripPrefix(arg, "--epsilon=", &value)) {
      if (!ParseDouble(value, &flags.run.epsilon)) return Usage();
    } else if (StripPrefix(arg, "--delta=", &value)) {
      if (!ParseDouble(value, &flags.run.delta)) return Usage();
    } else if (StripPrefix(arg, "--bins=", &value)) {
      // ParseInt32 range-checks, so "--bins=4294967297" is a usage error
      // instead of truncating to 1 bin and silently flattening every
      // numeric column.
      if (!ParseInt32(value, &flags.run.bins) || flags.run.bins < 1) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--max_size_mb=", &value)) {
      if (!ParseDouble(value, &options.max_size_mb)) return Usage();
    } else if (StripPrefix(arg, "--records=", &value)) {
      if (!ParseInt64(value, &options.synthetic_records)) return Usage();
    } else if (StripPrefix(arg, "--seed=", &value)) {
      // Seeds are unsigned; "--seed=-1" used to bit-cast to 2^64-1 and
      // synthesize from an RNG stream nobody could name. Usage error now.
      if (!ParseUint64(value, &flags.run.seed)) return Usage();
    } else if (StripPrefix(arg, "--threads=", &value)) {
      if (!ParseInt32(value, &flags.threads) || flags.threads < 0) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--trace-out=", &value)) {
      flags.trace_out = value;
    } else if (StripPrefix(arg, "--metrics-out=", &value)) {
      flags.metrics_out = value;
    } else if (StripPrefix(arg, "--checkpoint-out=", &value)) {
      options.checkpoint_path = value;
    } else if (StripPrefix(arg, "--checkpoint-every=", &value)) {
      if (!ParseInt32(value, &options.checkpoint_every_rounds) ||
          options.checkpoint_every_rounds <= 0) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--checkpoint-generations=", &value)) {
      if (!ParseInt32(value, &options.checkpoint_generations) ||
          options.checkpoint_generations <= 0 ||
          options.checkpoint_generations > kGenerationScanLimit) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--resume=", &value)) {
      options.resume_path = value;
    } else if (StripPrefix(arg, "--deadline-s=", &value)) {
      if (!ParseDouble(value, &options.deadline_seconds)) return Usage();
    } else if (StripPrefix(arg, "--stall-timeout-s=", &value)) {
      if (!ParseDouble(value, &flags.stall_timeout_s)) return Usage();
    } else {
      return Usage();
    }
  }
  if (flags.run.input.empty()) return Usage();
  SetParallelThreads(flags.threads);
  InitFaultsFromEnv();

  // ---- Observability. --trace-out installs a JSONL sink (overriding any
  // AIM_TRACE env sink); --metrics-out turns on metrics collection and dumps
  // the registry on exit.
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

  // ---- Load, workload, budget, mechanism and resume check: the pipeline
  // shared with aimd. SIGINT/SIGTERM trip the process-wide token, which the
  // mechanism polls at round boundaries.
  options.record_candidates = flags.report;
  CancelToken& cancel = ProcessCancelToken();
  options.cancel = &cancel;
  StatusOr<Synthesis> prepared = Synthesis::Prepare(flags.run);
  if (!prepared.ok()) return Fail(prepared.status());
  Synthesis& run = *prepared;
  const Domain& domain = run.domain();
  if (const StoreSource* store = run.store()) {
    std::cerr << "mapped store: " << store->num_records() << " records, "
              << domain.num_attributes() << " attributes, "
              << store->num_shards() << " shard(s), "
              << (store->mapped_bytes() >> 20) << " MB\n";
  } else {
    std::cerr << "loaded " << run.source().num_records() << " records, "
              << domain.num_attributes() << " attributes\n";
  }
  std::cerr << "workload: " << run.workload().num_queries()
            << " marginals (" << flags.run.workload << ")\n";
  std::cerr << "privacy: (" << flags.run.epsilon << ", " << flags.run.delta
            << ")-DP = " << run.rho() << "-zCDP\n";
  if (const std::optional<LoadedGeneration>& loaded = run.resumed()) {
    for (const std::string& rejected : loaded->rejected) {
      std::cerr << "warning: checkpoint generation rejected: " << rejected
                << "\n";
    }
    if (loaded->generation > 0) {
      std::cerr << "warning: falling back to checkpoint generation "
                << loaded->generation << " ('" << loaded->path << "')\n";
    }
    std::cerr << "resuming from '" << loaded->path << "' (round "
              << loaded->snapshot.round << ", rho spent "
              << loaded->snapshot.rho_spent << ")\n";
  }

  // ---- Interrupt safety + stall watchdog. An interrupted run forces a
  // final checkpoint and winds down, so it is resumable from its newest
  // checkpoint generation. The stall watchdog shares the same token (its
  // progress probe reads the aim.rounds counter, so it implies metrics
  // collection — cheap, and output-neutral).
  InstallSignalCancel();
  std::optional<RunSupervisor> supervisor;
  if (flags.stall_timeout_s > 0.0) {
    SetMetricsEnabled(true);
    SupervisorOptions sup_options;
    sup_options.stall_window_seconds = flags.stall_timeout_s;
    supervisor.emplace(&cancel, AimRoundProgressProbe(), sup_options);
  }

  MechanismResult result = run.Run();
  if (supervisor.has_value()) supervisor->Stop();
  std::cerr << "AIM: " << result.rounds << " rounds, "
            << result.log.measurements.size() << " measurements, "
            << result.seconds << "s"
            << (result.deadline_expired ? " (deadline expired)" : "")
            << (result.cancelled ? " (cancelled)" : "")
            << "\n";
  if (supervisor.has_value() && supervisor->stall_detected()) {
    // The run was wound down and checkpointed; report the typed stall
    // status instead of writing output a caller would mistake for a
    // completed synthesis.
    return Fail(supervisor->status());
  }
  if (ReceivedCancelSignal() != 0) {
    // Interrupted: the final checkpoint is on disk (when --checkpoint-out
    // was given) and the partial synthesis is deliberately NOT written —
    // an output file must always mean "the whole budget was spent".
    // Flush the sinks so the rounds that did complete are on record, then
    // exit with the typed interrupted code (9).
    if (trace_sink != nullptr) {
      SetGlobalTraceSink(nullptr);
      trace_sink->Flush();
    }
    if (!flags.metrics_out.empty() && flags.metrics_out != "-") {
      std::ofstream out(flags.metrics_out);
      if (out) {
        MetricsRegistry::Global().WriteJson(out);
        out << "\n";
      }
    }
    return Fail(CancelledError(
        std::string("interrupted by signal ") +
        std::to_string(ReceivedCancelSignal()) + " after " +
        std::to_string(result.rounds) + " completed rounds" +
        (options.checkpoint_path.empty()
             ? ""
             : "; resume with --resume=" + options.checkpoint_path)));
  }

  // ---- Write output.
  Status status = WriteCsv(result.synthetic, flags.output);
  if (!status.ok()) return Fail(status);
  std::cerr << "wrote " << result.synthetic.num_records() << " records to "
            << flags.output << " (integer-coded; bins/categories per "
            << "Appendix-A preprocessing)\n";

  // ---- Optional quality report.
  if (flags.report) {
    UncertaintyQuantifier uq(domain, result);
    TablePrinter report({"workload_marginal", "cells", "supported",
                         "error_bound_95(L1 counts)"});
    for (const auto& q : run.workload().queries()) {
      auto bound = uq.BoundFor(q.attrs, result.synthetic);
      std::string names;
      for (int attr : q.attrs) {
        if (!names.empty()) names += "*";
        names += domain.name(attr);
      }
      report.AddRow(
          {names, std::to_string(MarginalSize(domain, q.attrs)),
           bound.has_value() ? (bound->supported ? "yes" : "no") : "?",
           bound.has_value() ? FormatG(bound->bound) : "n/a"});
    }
    report.Print(std::cout);
  }

  // ---- Observability teardown.
  if (trace_sink != nullptr) {
    SetGlobalTraceSink(nullptr);
    trace_sink->Flush();
    Status sink_status = trace_sink->status();
    if (!sink_status.ok()) {
      std::cerr << "warning: " << sink_status.ToString()
                << " — the trace is incomplete\n";
    }
  }
  if (!flags.metrics_out.empty()) {
    if (flags.metrics_out == "-") {
      MetricsRegistry::Global().WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream out(flags.metrics_out);
      if (!out) {
        return Fail(InternalError("cannot open metrics output '" +
                                  flags.metrics_out + "'"));
      }
      MetricsRegistry::Global().WriteJson(out);
      out << "\n";
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  // Containment: an injected fault (or any library exception) surfacing
  // here must be a clean typed exit, never a std::terminate — the
  // chaos-sweep invariant. Output files are written atomically, so an
  // aborted run leaves no partial artifacts behind.
  try {
    return RunCli(argc, argv);
  } catch (const std::exception& e) {  // FaultInjectedError included
    std::cerr << "error: " << e.what() << "\n";
    return aim::ExitCodeForStatus(aim::InternalError(e.what()));
  }
}
