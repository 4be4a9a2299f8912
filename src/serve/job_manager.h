// Job lifecycle for the aimd daemon: a bounded worker pool executing
// synthesis jobs built through the mechanism registry, with per-job
// cancellation, per-job trace capture (the progress stream), checkpoint
// generations as the crash-recovery store, and post-hoc marginal queries
// against completed models.
//
// Concurrency model: JobManager owns N worker threads; each runs one job
// at a time, wrapped in a ScopedThreadTraceSink (round records go to the
// job's own buffer, not a global sink) and a ScopedMetricLabel (gauges
// like dp.filter.spent publish as "name{job=<id>}", so concurrent jobs
// never clobber each other's readings). A job's AIM run polls its
// CancelToken at round boundaries; Cancel() and Shutdown() both trip it,
// after which the mechanism forces a final checkpoint and synthesizes
// from the measurements in hand — the job lands in state "cancelled" with
// a resumable checkpoint ladder in its directory.

#ifndef AIM_SERVE_JOB_MANAGER_H_
#define AIM_SERVE_JOB_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/synthesis.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/tenant.h"
#include "store/reader.h"
#include "util/cancel.h"
#include "util/status.h"

namespace aim {

// A validated submission: the tenant plus the same SynthesisSpec aim_cli
// fills from its flags, so a job and the equivalent CLI run are described
// by one type. JSON keys: dataset (-> run.input), mechanism, epsilon,
// delta, workload, seed, records, bins, max_size_mb, resume_from. RunJob
// sets the job-scoped options (checkpoint ladder, cancel token,
// record_candidates) itself.
struct JobSpec {
  std::string tenant = "default";
  SynthesisSpec run;
};

// Parses and range-validates a POST /jobs body.
StatusOr<JobSpec> ParseJobSpec(const JsonValue& json);

// In-memory JSONL sink for one job: every trace event the job's thread
// emits, serialized and appended under a lock, plus a completed-round
// counter read by the status endpoint. Thread-safe (queries tail the
// buffer while the job is still appending).
class JobTraceSink : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override;

  // Lines [from, size), for GET /jobs/<id>/events?from=N.
  std::vector<std::string> LinesFrom(size_t from) const;
  size_t size() const;
  int64_t rounds_completed() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
  int64_t rounds_ = 0;
};

class Job {
 public:
  enum class State { kQueued, kRunning, kDone, kFailed, kCancelled };

  std::string id;
  JobSpec spec;
  double rho = 0.0;  // CdpRho(epsilon, delta), reserved at admission
  std::string dir;   // <work_dir>/jobs/<id>
  std::string checkpoint_path;  // dir + "/checkpoint" (generation base)
  std::string output_path;      // dir + "/synthetic.csv"

  CancelToken cancel;
  JobTraceSink trace;

  // ---- Guarded by mu. ----
  mutable std::mutex mu;
  State state = State::kQueued;
  std::string error;             // set for kFailed
  uint64_t fingerprint = 0;      // AIM run fingerprint (0 for non-AIM)
  int rounds = 0;
  double seconds = 0.0;
  double rho_used = 0.0;
  int64_t synthetic_records = 0;
  Domain domain;                             // set once loaded
  std::optional<MarkovRandomField> model;    // final model, for /query

  // Status snapshot as a JSON object (takes mu).
  JsonValue ToJson() const;

  static const char* StateName(State state);
};

struct JobManagerOptions {
  std::string work_dir = ".";
  int workers = 2;
  // Checkpoint ladder depth per job (robust/generations.h); every job
  // checkpoints every round so cancellation/crash always leaves the last
  // completed round recoverable.
  int checkpoint_generations = 3;
};

class JobManager {
 public:
  // `ledger` is not owned and must outlive the manager.
  JobManager(const JobManagerOptions& options, TenantLedger* ledger);
  ~JobManager();

  // Validates `spec` (cheap structural checks + dataset existence), charges
  // the tenant's ledger with the job's full rho, creates the job directory,
  // and enqueues. The ledger charge happens only after validation passes,
  // and admission is refused outright during shutdown.
  StatusOr<std::shared_ptr<Job>> Submit(const JobSpec& spec);

  std::shared_ptr<Job> Find(const std::string& id);
  std::vector<std::shared_ptr<Job>> Jobs();

  // Trips the job's CancelToken. Queued jobs go straight to kCancelled;
  // running jobs wind down at the next AIM round boundary.
  Status Cancel(const std::string& id);

  // Answers a post-hoc marginal query against a completed job's model —
  // measurement-log post-processing, zero additional privacy cost. A query
  // whose JT-SIZE over the model's cliques exceeds the job's max_size_mb is
  // refused with OUT_OF_RANGE (HTTP 400) before anything is computed.
  StatusOr<std::vector<double>> QueryMarginal(
      const std::string& id, const std::vector<std::string>& attr_names,
      std::vector<int>* sizes);

  // Graceful drain: refuse new submissions, cancel every queued/running
  // job, join the workers. Running jobs finish their degradation path
  // (final checkpoint + synthesis from measurements in hand) first.
  void Shutdown();

  // Test hook: blocks until no job is queued or running, or the timeout
  // expires. Returns true when idle.
  bool WaitIdle(double timeout_seconds);

 private:
  void WorkerLoop();
  void RunJob(const std::shared_ptr<Job>& job);
  // The shared .aim mapping cache: one StoreSource per path, shared
  // read-only by every job and post-hoc reader that touches it.
  StatusOr<std::shared_ptr<StoreSource>> OpenStoreShared(
      const std::string& path);

  const JobManagerOptions options_;
  TenantLedger* const ledger_;

  // Serializes Shutdown callers (the accept loop's drain and an explicit
  // Shutdown can race); never held while workers run jobs.
  std::mutex shutdown_mu_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  int64_t next_id_ = 1;
  int running_ = 0;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::map<std::string, std::shared_ptr<StoreSource>> store_cache_;

  std::vector<std::thread> workers_;
};

}  // namespace aim

#endif  // AIM_SERVE_JOB_MANAGER_H_
