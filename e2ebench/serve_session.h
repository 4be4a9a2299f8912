// The serve probe of a traced run: the daemon's layer figures (serve, CSV
// data loading, robust checkpoints), which the batch runs never touch.
//
// One in-process aimd on loopback driven by a closed-loop generator: one
// writer connection submits small AIM jobs and polls each until it ends,
// three reader connections send a fixed rotation of post-hoc marginal
// queries and status reads against finished jobs. After the drive, every
// job's /result is compared byte for byte with an in-process run of the
// same spec, and every /query answer with MarginalVector on that run's
// final model.

#ifndef AIM_E2EBENCH_SERVE_SESSION_H_
#define AIM_E2EBENCH_SERVE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/preprocess.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "replay.h"
#include "serve/server.h"

namespace e2e {

// Job inputs: kServeSamples CSV samples of one population, each submitted
// under kSeedsPerSample job seeds. The writer rotates through the specs;
// jobs of one spec must be byte-identical, so the in-process reference
// runs once per spec.
constexpr int kServeSamples = 8;
constexpr int kSeedsPerSample = 2;
constexpr int kServeSpecs = kServeSamples * kSeedsPerSample;

// Path of job input `sample` in `dir`.
std::string ServeInputPath(const std::string& dir, int sample);

struct ServeStats {
  std::vector<double> query_ms;    // client-observed /query latency
  std::map<int, int64_t> refused;  // non-2xx responses by status code
  std::vector<double> job_wait_s;  // submit -> running
  std::vector<double> job_run_s;   // running -> done
};

// Per-layer figures measured after the drive.
struct ServeLayers {
  double csv_load_s = 0.0;  // ReadCsv + Preprocess of the job input
  double store_open_s = 0.0;
  double handle_query_ms = 0.0;
  double handle_status_ms = 0.0;
  double handle_submit_ms = 0.0;
  double query_marginal_ms = 0.0;
  LayerTimes replay;       // one job, checkpointing every round
  LayerTimes replay_1t;    // the same job again (speed-up base)
  bool replay_ok = false;
  std::string replay_error;
};

class ServeSession {
 public:
  // Job inputs are read from ServeInputPath(input_dir, k). The job seeds
  // and the query rotation are part of the workload definition.
  ServeSession(std::string work_dir, std::string input_dir, Report* report);
  ~ServeSession();

  // Starts the server and waits until /healthz answers.
  bool Start();
  // Submits one job of each spec and waits for them (readers need finished
  // jobs), then runs the in-process reference runs.
  bool Warmup();
  // Closed-loop drive for `seconds`.
  void Drive(double seconds);
  // Output checks on everything the drive produced.
  void Verify();
  // Per-layer measurements (direct Server::Handle / JobManager calls, CSV
  // load, store open, replay of one reference run).
  ServeLayers MeasureLayers();
  void Stop();

  const ServeStats& stats() const { return stats_; }

 private:
  struct Input {
    std::string csv_path;
    aim::PreprocessResult prep;
    aim::Workload workload;
  };
  struct Reference {
    aim::MechanismResult result;
    aim::AimOptions options;
    uint64_t rng_seed = 0;
    std::string csv_bytes;
  };
  struct JobRecord {
    std::string id;
    int spec = 0;
  };

  std::string SpecJson(int spec) const;
  uint64_t SpecSeed(int spec) const;
  // POST /jobs then poll until the job ends. Returns the job id ("" on
  // failure).
  std::string RunJob(int spec);
  void Reader(int index, double deadline);
  bool BuildReference(int spec);

  const std::string work_dir_;
  const std::string input_dir_;
  Report* const report_;

  std::unique_ptr<aim::Server> server_;
  std::thread serve_thread_;
  int port_ = 0;

  std::vector<Input> inputs_;  // one per sample
  std::vector<std::vector<std::string>> queries_;  // attribute names
  std::vector<Reference> references_;

  std::mutex mu_;  // guards everything below
  std::vector<JobRecord> jobs_;
  std::vector<JobRecord> done_;
  std::map<std::string, double> submitted_at_;
  // First /query body per (spec, query index) and how many bodies differed.
  std::map<std::pair<int, int>, std::string> query_bodies_;
  int64_t query_body_mismatches_ = 0;
  int64_t status_mismatches_ = 0;
  ServeStats stats_;
};

}  // namespace e2e

#endif  // AIM_E2EBENCH_SERVE_SESSION_H_
