// aimd: the long-lived multi-tenant synthesis daemon.
//
//   aimd [--host=127.0.0.1] [--port=8177] [--work-dir=DIR]
//        [--job-workers=N] [--tenant=name:rho]... [--default-tenant-rho=F]
//        [--rate-burst=N] [--rate-per-s=F] [--checkpoint-generations=N]
//        [--threads=N] [--metrics-out=F]
//
// Serves synthesis jobs over HTTP (routes in src/serve/server.h; quickstart
// in README.md): submissions run through the mechanism registry on
// background workers, each charged up front against its tenant's lifetime
// zCDP budget, checkpointed every round, and independently cancellable.
// SIGINT/SIGTERM drain gracefully — in-flight jobs wind down at their next
// AIM round boundary with a final checkpoint (resumable via resume_from on
// resubmission), then the daemon exits 0.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "util/signal_cancel.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

int Usage() {
  std::cerr
      << "usage: aimd [--host=A] [--port=N] [--work-dir=DIR]\n"
      << "  --port=N                  listen port (default 8177; 0 = "
         "ephemeral, printed at startup)\n"
      << "  --host=A                  bind address (default 127.0.0.1)\n"
      << "  --work-dir=DIR            job directories land under "
         "DIR/jobs/<id> (default .)\n"
      << "  --job-workers=N           concurrent synthesis jobs (default "
         "2)\n"
      << "  --tenant=name:rho         provision a tenant with a lifetime "
         "zCDP budget (repeatable)\n"
      << "  --default-tenant-rho=F    budget for tenants first seen at "
         "submission (default: refuse unknown tenants)\n"
      << "  --rate-burst=N            per-tenant submission burst "
         "(default 8)\n"
      << "  --rate-per-s=F            per-tenant submission refill rate "
         "(default 1; 0 = no refill)\n"
      << "  --checkpoint-generations=N  rotated snapshot ladder depth per "
         "job (default 3)\n"
      << "  --threads=N               worker threads for parallel kernels "
         "(default: AIM_THREADS env or hardware)\n"
      << "  --metrics-out=F           metrics JSON dump at exit (- for "
         "stdout)\n"
      << "  (SIGINT/SIGTERM drain: jobs wind down at a round boundary "
         "with a final checkpoint, then aimd exits 0.)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aim;
  ServerOptions options;
  options.port = 8177;
  std::vector<std::pair<std::string, double>> tenants;
  int threads = 0;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    if (StripPrefix(arg, "--host=", &value)) {
      options.host = value;
    } else if (StripPrefix(arg, "--port=", &value)) {
      int port = 0;
      if (!ParseInt32(value, &port) || port < 0 || port > 65535) {
        return Usage();
      }
      options.port = port;
    } else if (StripPrefix(arg, "--work-dir=", &value)) {
      options.jobs.work_dir = value;
    } else if (StripPrefix(arg, "--job-workers=", &value)) {
      if (!ParseInt32(value, &options.jobs.workers) ||
          options.jobs.workers < 1 || options.jobs.workers > 256) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--tenant=", &value)) {
      const size_t colon = value.rfind(':');
      double rho = 0.0;
      if (colon == std::string::npos || colon == 0 ||
          !ParseDouble(value.substr(colon + 1), &rho)) {
        return Usage();
      }
      tenants.emplace_back(value.substr(0, colon), rho);
    } else if (StripPrefix(arg, "--default-tenant-rho=", &value)) {
      if (!ParseDouble(value, &options.default_tenant_rho)) return Usage();
    } else if (StripPrefix(arg, "--rate-burst=", &value)) {
      if (!ParseDouble(value, &options.rate_burst)) return Usage();
    } else if (StripPrefix(arg, "--rate-per-s=", &value)) {
      if (!ParseDouble(value, &options.rate_per_second)) return Usage();
    } else if (StripPrefix(arg, "--checkpoint-generations=", &value)) {
      if (!ParseInt32(value, &options.jobs.checkpoint_generations) ||
          options.jobs.checkpoint_generations < 1 ||
          options.jobs.checkpoint_generations > 16) {
        return Usage();
      }
    } else if (StripPrefix(arg, "--threads=", &value)) {
      if (!ParseInt32(value, &threads) || threads < 0) return Usage();
    } else if (StripPrefix(arg, "--metrics-out=", &value)) {
      metrics_out = value;
    } else {
      return Usage();
    }
  }
  SetParallelThreads(threads);
  InitTraceSinkFromEnv();
  if (!metrics_out.empty()) SetMetricsEnabled(true);

  Server server(options);
  for (const auto& [name, rho] : tenants) {
    Status provisioned = server.tenants().Provision(name, rho);
    if (!provisioned.ok()) {
      std::cerr << "error: " << provisioned.ToString() << "\n";
      return ExitCodeForStatus(provisioned);
    }
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started.ToString() << "\n";
    return ExitCodeForStatus(started);
  }

  // SIGINT/SIGTERM trip the process token; the accept loop polls it and
  // falls through to the graceful drain.
  InstallSignalCancel();
  std::cerr << "aimd listening on " << options.host << ":" << server.port()
            << " (" << options.jobs.workers << " job workers, work dir '"
            << options.jobs.work_dir << "')\n";
  server.ServeForever(&ProcessCancelToken());

  const int signal_number = ReceivedCancelSignal();
  if (signal_number != 0) {
    std::cerr << "aimd: received signal " << signal_number
              << "; jobs drained, exiting\n";
  }
  if (!metrics_out.empty()) {
    if (metrics_out == "-") {
      MetricsRegistry::Global().WriteJson(std::cout);
      std::cout << "\n";
    } else {
      std::ofstream out(metrics_out);
      if (out) {
        MetricsRegistry::Global().WriteJson(out);
        out << "\n";
      } else {
        std::cerr << "warning: cannot open metrics output '" << metrics_out
                  << "'\n";
      }
    }
  }
  return 0;
}
