#include "serve/job_manager.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "data/csv.h"
#include "dp/accountant.h"
#include "mechanisms/registry.h"
#include "mechanisms/synthesis.h"
#include "obs/metrics.h"
#include "pgm/junction_tree.h"

namespace aim {
namespace {

std::string HexFingerprint(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

}  // namespace

StatusOr<JobSpec> ParseJobSpec(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) {
    return InvalidArgumentError("job spec must be a JSON object");
  }
  JobSpec spec;
  SynthesisSpec& run = spec.run;
  RegistryOptions& options = run.options;
  spec.tenant = json.GetString("tenant", spec.tenant);
  run.input = json.GetString("dataset", "");
  run.mechanism = json.GetString("mechanism", run.mechanism);
  run.workload = json.GetString("workload", run.workload);
  options.resume_path = json.GetString("resume_from", "");
  run.epsilon = json.GetNumber("epsilon", run.epsilon);
  run.delta = json.GetNumber("delta", run.delta);
  options.max_size_mb = json.GetNumber("max_size_mb", options.max_size_mb);
  const double seed = json.GetNumber("seed", 0.0);
  const double records = json.GetNumber("records", -1.0);
  const double bins = json.GetNumber("bins", 32.0);

  if (spec.tenant.empty()) {
    return InvalidArgumentError("tenant must be non-empty");
  }
  if (run.input.empty()) {
    return InvalidArgumentError("job spec needs a 'dataset' path");
  }
  Status valid = ValidateSynthesisSpec(run);
  if (!valid.ok()) return valid;
  if (!(seed >= 0.0 && seed <= 9.0e15 && seed == std::floor(seed))) {
    return InvalidArgumentError("seed must be a non-negative integer");
  }
  run.seed = static_cast<uint64_t>(seed);
  // Any value <= 0 means "the estimated total"; the lower bound keeps the
  // int64 conversion below defined for hostile inputs like -1e300.
  if (!(records >= -1.0 && records <= 9.0e15 &&
        records == std::floor(records))) {
    return InvalidArgumentError("records must be an integer >= -1");
  }
  options.synthetic_records = static_cast<int64_t>(records);
  if (!(bins >= 1.0 && bins <= 1.0e6 && bins == std::floor(bins))) {
    return InvalidArgumentError("bins must be an integer in [1, 1e6]");
  }
  run.bins = static_cast<int>(bins);
  return spec;
}

void JobTraceSink::Emit(const TraceEvent& event) {
  std::string line = event.ToJson();
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(std::move(line));
  if (event.type() == "aim_round") ++rounds_;
}

std::vector<std::string> JobTraceSink::LinesFrom(size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from >= lines_.size()) return {};
  return std::vector<std::string>(lines_.begin() +
                                      static_cast<ptrdiff_t>(from),
                                  lines_.end());
}

size_t JobTraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_.size();
}

int64_t JobTraceSink::rounds_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_;
}

const char* Job::StateName(State state) {
  switch (state) {
    case State::kQueued: return "queued";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kFailed: return "failed";
    case State::kCancelled: return "cancelled";
  }
  return "unknown";
}

JsonValue Job::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.object()["id"] = JsonValue::MakeString(id);
  out.object()["tenant"] = JsonValue::MakeString(spec.tenant);
  out.object()["mechanism"] = JsonValue::MakeString(spec.run.mechanism);
  out.object()["dataset"] = JsonValue::MakeString(spec.run.input);
  out.object()["workload"] = JsonValue::MakeString(spec.run.workload);
  out.object()["epsilon"] = JsonValue::MakeNumber(spec.run.epsilon);
  out.object()["delta"] = JsonValue::MakeNumber(spec.run.delta);
  out.object()["rho"] = JsonValue::MakeNumber(rho);
  out.object()["events"] =
      JsonValue::MakeNumber(static_cast<double>(trace.size()));
  const int64_t live_rounds = trace.rounds_completed();
  std::lock_guard<std::mutex> lock(mu);
  out.object()["state"] = JsonValue::MakeString(StateName(state));
  out.object()["rounds"] = JsonValue::MakeNumber(static_cast<double>(
      rounds > live_rounds ? rounds : live_rounds));
  out.object()["rho_used"] = JsonValue::MakeNumber(rho_used);
  out.object()["seconds"] = JsonValue::MakeNumber(seconds);
  out.object()["synthetic_records"] =
      JsonValue::MakeNumber(static_cast<double>(synthetic_records));
  out.object()["checkpoint"] = JsonValue::MakeString(checkpoint_path);
  if (fingerprint != 0) {
    out.object()["fingerprint"] =
        JsonValue::MakeString(HexFingerprint(fingerprint));
  }
  if (!error.empty()) out.object()["error"] = JsonValue::MakeString(error);
  return out;
}

JobManager::JobManager(const JobManagerOptions& options, TenantLedger* ledger)
    : options_(options), ledger_(ledger) {
  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

JobManager::~JobManager() { Shutdown(); }

StatusOr<std::shared_ptr<Job>> JobManager::Submit(const JobSpec& spec) {
  // Validate everything cheap BEFORE charging the tenant's ledger: a spec
  // that can never run must not cost budget. (A job that fails later —
  // corrupt CSV, mid-run fault — keeps its charge; see serve/tenant.h.)
  const SynthesisSpec& run = spec.run;
  std::error_code error;
  if (!std::filesystem::exists(run.input, error)) {
    return NotFoundError("dataset '" + run.input + "' does not exist");
  }
  if (MechanismByName(run.mechanism) == nullptr) {
    return InvalidArgumentError("unknown mechanism '" + run.mechanism + "'");
  }
  if (!run.options.resume_path.empty() && run.mechanism != "AIM") {
    return InvalidArgumentError("resume_from requires mechanism AIM");
  }
  const double rho = CdpRho(run.epsilon, run.delta);
  if (!(rho > 0.0)) {
    return InvalidArgumentError("privacy budget converts to rho <= 0");
  }

  std::shared_ptr<Job> job = std::make_shared<Job>();
  job->spec = spec;
  job->rho = rho;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return UnavailableError("daemon is shutting down");
    }
    job->id = "j-" + std::to_string(next_id_++);
  }
  job->dir = options_.work_dir + "/jobs/" + job->id;
  job->checkpoint_path = job->dir + "/checkpoint";
  job->output_path = job->dir + "/synthetic.csv";
  std::filesystem::create_directories(job->dir, error);
  if (error) {
    return InternalError("cannot create directory '" + job->dir +
                         "': " + error.message());
  }

  // The admission charge: the job's whole rho, atomically, under the
  // ledger's own lock. This is the multi-tenant invariant — no interleaving
  // of submissions can push a tenant's spent() past its budget().
  Status reserved = ledger_->TryReserve(spec.tenant, rho);
  if (!reserved.ok()) return reserved;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return UnavailableError("daemon is shutting down");
    }
    jobs_[job->id] = job;
    queue_.push_back(job);
  }
  work_cv_.notify_one();
  return job;
}

std::shared_ptr<Job> JobManager::Find(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Job>> JobManager::Jobs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Job>> jobs;
  jobs.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) jobs.push_back(job);
  return jobs;
}

Status JobManager::Cancel(const std::string& id) {
  std::shared_ptr<Job> job = Find(id);
  if (job == nullptr) return NotFoundError("no job '" + id + "'");
  job->cancel.Cancel();
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->state == Job::State::kQueued) {
      job->state = Job::State::kCancelled;
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> JobManager::QueryMarginal(
    const std::string& id, const std::vector<std::string>& attr_names,
    std::vector<int>* sizes) {
  std::shared_ptr<Job> job = Find(id);
  if (job == nullptr) return NotFoundError("no job '" + id + "'");
  std::lock_guard<std::mutex> lock(job->mu);
  if (!job->model.has_value()) {
    return FailedPreconditionError("job '" + id +
                                   "' has no fitted model to query (state " +
                                   Job::StateName(job->state) + ")");
  }
  std::vector<int> attrs;
  attrs.reserve(attr_names.size());
  for (const std::string& name : attr_names) {
    const int attr = job->domain.IndexOf(name);
    if (attr < 0) {
      return InvalidArgumentError("no attribute named '" + name + "'");
    }
    attrs.push_back(attr);
  }
  if (attrs.empty()) {
    return InvalidArgumentError("query needs at least one attribute");
  }
  const AttrSet attr_set{std::vector<int>(attrs)};
  // Answering a query builds factors up to the junction tree of the model
  // plus the query, so refuse one that the job's own capacity bound would
  // have refused as an AIM candidate, before any factor is allocated.
  std::vector<AttrSet> cliques = job->model->tree().cliques;
  cliques.push_back(attr_set);
  const double size_mb = JtSizeMb(job->model->domain(), cliques);
  const double max_size_mb = job->spec.run.options.max_size_mb;
  if (!(size_mb <= max_size_mb)) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "query junction tree needs %.6g MB, over the job's "
                  "max_size_mb of %g", size_mb, max_size_mb);
    return OutOfRangeError(message);
  }
  if (sizes != nullptr) {
    sizes->clear();
    for (int attr : attr_set) sizes->push_back(job->domain.size(attr));
  }
  // Post-processing of the fitted model: answering any number of marginal
  // queries here is privacy-free (the DP cost was paid by the
  // measurements; the model is a deterministic function of them).
  return job->model->MarginalVector(attr_set);
}

void JobManager::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  std::vector<std::shared_ptr<Job>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && workers_.empty()) return;
    shutdown_ = true;
    // Queued jobs never start; running jobs get their token tripped and
    // wind down at the next round boundary with a final checkpoint.
    for (const std::shared_ptr<Job>& job : queue_) {
      std::lock_guard<std::mutex> job_lock(job->mu);
      if (job->state == Job::State::kQueued) {
        job->state = Job::State::kCancelled;
      }
    }
    queue_.clear();
    for (const auto& [id, job] : jobs_) to_cancel.push_back(job);
  }
  for (const std::shared_ptr<Job>& job : to_cancel) job->cancel.Cancel();
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

bool JobManager::WaitIdle(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [this] {
        return queue_.empty() && running_ == 0;
      });
}

void JobManager::WorkerLoop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      ++running_;
    }
    {
      bool skip = false;
      {
        std::lock_guard<std::mutex> lock(job->mu);
        if (job->state != Job::State::kQueued) {
          skip = true;  // cancelled while queued
        } else {
          job->state = Job::State::kRunning;
        }
      }
      if (!skip) RunJob(job);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

StatusOr<std::shared_ptr<StoreSource>> JobManager::OpenStoreShared(
    const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_cache_.find(path);
    if (it != store_cache_.end()) return it->second;
  }
  StatusOr<std::unique_ptr<StoreSource>> opened = StoreSource::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<StoreSource> shared = std::move(*opened);
  std::lock_guard<std::mutex> lock(mu_);
  // Two jobs racing to open the same store: keep the first mapping, drop
  // ours — the cache guarantees one shared mapping per path at rest.
  auto [it, inserted] = store_cache_.emplace(path, shared);
  return it->second;
}

void JobManager::RunJob(const std::shared_ptr<Job>& job) {
  // Route this thread's trace events to the job's buffer and label its
  // gauge publishes, so concurrent jobs never interleave or clobber.
  ScopedThreadTraceSink trace_scope(&job->trace);
  ScopedMetricLabel metric_scope(job->id);

  auto fail = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(job->mu);
    job->state = Job::State::kFailed;
    job->error = status.ToString();
  };

  try {
    // The submitted spec plus the job-scoped options: every round is
    // checkpointed into the job's ladder, and candidates are not recorded
    // (aim_cli's default without --report), so the fingerprint matches the
    // CLI's and checkpoints are portable between the two.
    SynthesisSpec run = job->spec.run;
    run.options.checkpoint_path = job->checkpoint_path;
    run.options.checkpoint_every_rounds = 1;
    run.options.checkpoint_generations = options_.checkpoint_generations;
    run.options.record_candidates = false;
    run.options.cancel = &job->cancel;
    StatusOr<Synthesis> prepared = Synthesis::Prepare(
        run,
        [this](const std::string& path) { return OpenStoreShared(path); });
    if (!prepared.ok()) return fail(prepared.status());
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->domain = prepared->domain();
      job->fingerprint = prepared->fingerprint();
    }
    MechanismResult result = prepared->Run();

    Status written = Status::Ok();
    if (result.has_synthetic) {
      written = WriteCsv(result.synthetic, job->output_path);
    }
    std::lock_guard<std::mutex> lock(job->mu);
    job->rounds = result.rounds;
    job->seconds = result.seconds;
    job->rho_used = result.rho_used;
    job->synthetic_records = result.synthetic.num_records();
    job->model = std::move(result.final_model);
    if (!written.ok()) {
      job->state = Job::State::kFailed;
      job->error = written.ToString();
    } else if (result.cancelled) {
      // Wound down at a round boundary: the output in hand is still a
      // valid DP synthesis of the measurements so far, and the checkpoint
      // ladder in the job directory resumes the rest.
      job->state = Job::State::kCancelled;
    } else {
      job->state = Job::State::kDone;
    }
  } catch (const std::exception& e) {
    fail(InternalError(e.what()));
  }
}

}  // namespace aim
