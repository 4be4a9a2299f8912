#include "serve_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "data/csv.h"
#include "data/data_source.h"
#include "dp/accountant.h"
#include "http_client.h"
#include "mechanisms/registry.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/rng.h"

namespace e2e {

namespace {

constexpr double kEpsilon = 1.0;
constexpr double kDelta = 1e-9;  // the JobSpec default
constexpr double kMaxSizeMb = 4.0;
constexpr int kBins = 32;        // the JobSpec default
constexpr int kReaders = 3;
constexpr int kLayerRepeats = 200;

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int64_t>(ms * 1000.0)));
}

bool Is2xx(int status) { return status >= 200 && status < 300; }

std::string StateOf(const HttpResult& r) {
  aim::StatusOr<aim::JsonValue> json = aim::ParseJson(r.body);
  return json.ok() ? json->GetString("state", "") : "";
}

aim::StatusOr<aim::PreprocessResult> LoadCsv(const std::string& path) {
  aim::StatusOr<aim::RawTable> table = aim::ReadCsv(path);
  if (!table.ok()) return table.status();
  aim::PreprocessOptions options;
  options.num_bins = kBins;
  return aim::Preprocess(*table, options);
}

int SampleOf(int spec) { return spec % kServeSamples; }

// The {"attrs": [...]} body of a /query request.
std::string QueryBody(const std::vector<std::string>& names) {
  std::string body = "{\"attrs\": [";
  for (size_t k = 0; k < names.size(); ++k) {
    body.append(k ? ", \"" : "\"").append(JsonEscape(names[k])).append("\"");
  }
  return body + "]}";
}

// The "cells" array of a /query answer. Parsed here rather than with the
// daemon's request parser, whose limits are sized for request bodies.
std::vector<double> CellsOf(const std::string& body) {
  std::vector<double> out;
  const size_t key = body.find("\"cells\":[");
  if (key == std::string::npos) return out;
  const char* p = body.c_str() + key + 9;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) return {};
    p = end;
    if (*p == ',') ++p;
  }
  return out;
}

}  // namespace

std::string ServeInputPath(const std::string& dir, int sample) {
  return dir + "/titanic" + std::to_string(sample) + ".csv";
}

ServeSession::ServeSession(std::string work_dir, std::string input_dir,
                           Report* report)
    : work_dir_(std::move(work_dir)),
      input_dir_(std::move(input_dir)),
      report_(report) {}

ServeSession::~ServeSession() { Stop(); }

uint64_t ServeSession::SpecSeed(int spec) const {
  aim::Rng rng(0x4A4F4253ULL + static_cast<uint64_t>(spec));
  return rng.NextUint64() >> 33;  // exact as a JSON number
}

std::string ServeSession::SpecJson(int spec) const {
  return "{\"tenant\": \"bench\", \"dataset\": \"" +
         JsonEscape(inputs_[SampleOf(spec)].csv_path) +
         "\", \"epsilon\": " + FormatDouble(kEpsilon) +
         ", \"workload\": \"all3way\", \"max_size_mb\": " +
         FormatDouble(kMaxSizeMb) +
         ", \"seed\": " + std::to_string(SpecSeed(spec)) + "}";
}

bool ServeSession::Start() {
  aim::ServerOptions options;
  options.jobs.work_dir = work_dir_ + "/aimd";
  options.jobs.workers = 1;
  // Budget and rate limits high enough that the steady state refuses
  // nothing: refusals would count as failed operations.
  options.default_tenant_rho = 1e12;
  options.rate_burst = 1e9;
  options.rate_per_second = 1e9;
  if (!MakeDirs(options.jobs.work_dir)) {
    report_->Fail("cannot create " + options.jobs.work_dir);
    return false;
  }
  report_->Attempt();
  server_ = std::make_unique<aim::Server>(options);
  const aim::Status started = server_->Start();
  if (!started.ok()) {
    report_->Fail("aimd start: " + started.ToString());
    server_.reset();
    return false;
  }
  aim::Server* raw = server_.get();
  serve_thread_ = std::thread([raw] { raw->ServeForever(nullptr); });
  port_ = server_->port();
  const double t0 = Now();
  while (Now() - t0 < 10.0) {
    if (HttpCall(port_, "GET", "/healthz").status == 200) return true;
  }
  report_->Fail("aimd never answered /healthz");
  return false;
}

bool ServeSession::BuildReference(int spec) {
  aim::RegistryOptions reg;
  reg.max_size_mb = kMaxSizeMb;
  reg.record_candidates = false;  // as JobManager::RunJob
  std::unique_ptr<aim::Mechanism> mechanism = aim::MechanismByName("AIM", reg);
  auto* aim_mechanism = dynamic_cast<aim::AimMechanism*>(mechanism.get());
  Reference ref;
  ref.options = aim_mechanism->options();
  ref.rng_seed = SpecSeed(spec) + 0x41494D;  // JobManager's seed derivation
  const double rho = aim::CdpRho(kEpsilon, kDelta);
  aim::Rng rng(ref.rng_seed);
  const Input& input = inputs_[SampleOf(spec)];
  report_->Attempt();
  const std::string path = work_dir_ + "/reference" + std::to_string(spec) + ".csv";
  ref.result = mechanism->Run(aim::DatasetSource(input.prep.dataset),
                              input.workload, rho, rng);
  const aim::Status written = aim::WriteCsv(ref.result.synthetic, path);
  ref.csv_bytes = ReadFileBytes(path);
  bool ok = report_->Check(written.ok() && !ref.csv_bytes.empty(),
                           "reference CSV written");
  ok &= report_->Check(ref.result.rho_used <= rho, "serve: rho_used <= rho");
  ok &= report_->Check(
      ref.result.synthetic.domain() == input.prep.dataset.domain() &&
          ref.result.synthetic.num_records() ==
              std::llround(ref.result.total_estimate),
      "serve: synthetic domain and record count");
  references_.push_back(std::move(ref));
  return ok;
}

bool ServeSession::Warmup() {
  for (int k = 0; k < kServeSamples; ++k) {
    const std::string path = ServeInputPath(input_dir_, k);
    aim::StatusOr<aim::PreprocessResult> prep = LoadCsv(path);
    if (!report_->Check(prep.ok(), "job input loads")) return false;
    const aim::Domain& d = prep->dataset.domain();
    aim::Workload workload =
        aim::AllKWayWorkload(d, std::min(3, d.num_attributes()));
    inputs_.push_back({path, *std::move(prep), std::move(workload)});
  }
  const aim::Domain& domain = inputs_[0].prep.dataset.domain();

  // Fixed rotation of 2- and 3-way queries; most are not a model clique,
  // so the daemon answers them by variable elimination.
  aim::Rng rng(0x51554552ULL);
  const int d = domain.num_attributes();
  while (queries_.size() < 16) {
    const int k = 2 + static_cast<int>(queries_.size() % 2);
    std::vector<int> attrs;
    while (static_cast<int>(attrs.size()) < k) {
      const int a = static_cast<int>(rng.NextUint64() % static_cast<uint64_t>(d));
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) attrs.push_back(a);
    }
    std::sort(attrs.begin(), attrs.end());
    std::vector<std::string> names;
    for (int a : attrs) names.push_back(domain.name(a));
    if (std::find(queries_.begin(), queries_.end(), names) == queries_.end()) {
      queries_.push_back(names);
    }
  }

  for (int spec = 0; spec < kServeSpecs; ++spec) {
    if (!BuildReference(spec)) return false;
  }
  for (int spec = 0; spec < kServeSpecs; ++spec) {
    if (RunJob(spec).empty()) return false;
  }
  return true;
}

std::string ServeSession::RunJob(int spec) {
  auto refuse = [&](int status, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.refused[status];
    report_->Fail(what + " answered " + std::to_string(status));
  };
  report_->Attempt();
  const double t0 = Now();
  HttpResult submitted = HttpCall(port_, "POST", "/jobs", SpecJson(spec));
  if (!Is2xx(submitted.status)) {
    refuse(submitted.status, "POST /jobs");
    return "";
  }
  aim::StatusOr<aim::JsonValue> json = aim::ParseJson(submitted.body);
  const std::string id = json.ok() ? json->GetString("id", "") : "";
  if (id.empty()) {
    report_->Fail("POST /jobs returned no id");
    return "";
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_at_[id] = t0;
    jobs_.push_back({id, spec});
  }
  while (true) {
    SleepMs(5.0);
    report_->Attempt();
    HttpResult polled = HttpCall(port_, "GET", "/jobs/" + id);
    if (!Is2xx(polled.status)) {
      refuse(polled.status, "GET /jobs/" + id);
      return "";
    }
    const std::string state = StateOf(polled);
    if (state == "queued" || state == "running") continue;
    if (state != "done") {
      report_->Fail("job " + id + " ended " + state);
      return "";
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back({id, spec});
    return id;
  }
}

void ServeSession::Reader(int index, double deadline) {
  std::vector<double> query_ms;
  std::map<int, int64_t> refused;
  int64_t attempts = 0;
  std::vector<std::pair<std::pair<int, int>, std::string>> bodies;
  // Keeps the first body per (spec, query) and counts later ones that
  // differ; folding as we go keeps memory bounded. Caller holds mu_.
  auto fold = [this, &bodies] {
    for (auto& [key, b] : bodies) {
      auto [it, inserted] = query_bodies_.emplace(key, b);
      if (!inserted && it->second != b) ++query_body_mismatches_;
    }
    bodies.clear();
  };
  int64_t status_bad = 0;
  for (int64_t i = 0; Now() < deadline; ++i) {
    JobRecord job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job = done_[static_cast<size_t>(i * kReaders + index) % done_.size()];
    }
    const bool status_read = i % 4 == 3;
    const int q = static_cast<int>((i + 5 * index) % static_cast<int64_t>(queries_.size()));
    ++attempts;
    const double t0 = Now();
    HttpResult r = status_read ? HttpCall(port_, "GET", "/jobs/" + job.id)
                               : HttpCall(port_, "POST", "/jobs/" + job.id + "/query",
                                          QueryBody(queries_[q]));
    const double ms = (Now() - t0) * 1e3;
    if (!Is2xx(r.status)) {
      ++refused[r.status];
      continue;
    }
    if (status_read) {
      if (StateOf(r) != "done") ++status_bad;
    } else {
      query_ms.push_back(ms);
      bodies.push_back({{job.spec, q}, std::move(r.body)});
      if (bodies.size() >= 256) {
        std::lock_guard<std::mutex> lock(mu_);
        fold();
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  fold();
  stats_.query_ms.insert(stats_.query_ms.end(), query_ms.begin(), query_ms.end());
  status_mismatches_ += status_bad;
  for (const auto& [code, n] : refused) {
    stats_.refused[code] += n;
    for (int64_t k = 0; k < n; ++k) report_->Fail("read answered " + std::to_string(code));
  }
  report_->Attempt(attempts);
}

void ServeSession::Drive(double seconds) {
  const double start = Now();
  const double deadline = start + seconds;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, r, deadline] { Reader(r, deadline); });
  }
  // Watch job states in-process to split submit -> done into the queue
  // wait and the run.
  std::map<std::string, double> running_at, done_at;
  std::thread watcher([&] {
    while (Now() < deadline + 2.0) {
      for (const auto& job : server_->jobs().Jobs()) {
        aim::Job::State state;
        {
          std::lock_guard<std::mutex> lock(job->mu);
          state = job->state;
        }
        const double now = Now();
        if (state != aim::Job::State::kQueued) running_at.emplace(job->id, now);
        if (state == aim::Job::State::kDone) done_at.emplace(job->id, now);
      }
      SleepMs(0.5);
    }
  });
  for (int k = 0; Now() < deadline; ++k) RunJob(k % kServeSpecs);
  for (std::thread& t : readers) t.join();
  watcher.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, t_run] : running_at) {
    auto sub = submitted_at_.find(id);
    auto done = done_at.find(id);
    if (sub == submitted_at_.end() || sub->second < start || done == done_at.end()) {
      continue;
    }
    stats_.job_wait_s.push_back(t_run - sub->second);
    stats_.job_run_s.push_back(done->second - t_run);
  }
}

void ServeSession::Verify() {
  report_->Check(server_->jobs().WaitIdle(120.0), "aimd drains its queue");
  std::vector<JobRecord> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs = jobs_;
  }
  // The aimd = aim_cli byte-identity contract, per job.
  int64_t result_mismatches = 0;
  for (const JobRecord& job : jobs) {
    report_->Attempt();
    HttpResult r = HttpCall(port_, "GET", "/jobs/" + job.id + "/result");
    if (r.status != 200 || r.body != references_[job.spec].csv_bytes) {
      ++result_mismatches;
    }
  }
  report_->Check(result_mismatches == 0,
                 "every /result equals an in-process run of its spec (" +
                     std::to_string(result_mismatches) + " differ)");

  // Every /query answer equals MarginalVector on that spec's model.
  int64_t wrong = 0;
  for (const auto& [key, body] : query_bodies_) {
    const auto& [spec, q] = key;
    const aim::Domain& domain = inputs_[SampleOf(spec)].prep.dataset.domain();
    std::vector<int> attrs;
    for (const std::string& name : queries_[q]) attrs.push_back(domain.IndexOf(name));
    const std::vector<double> expected =
        references_[spec].result.final_model->MarginalVector(aim::AttrSet(attrs));
    const std::vector<double> cells = CellsOf(body);
    bool same = cells.size() == expected.size() &&
                std::memcmp(cells.data(), expected.data(),
                            cells.size() * sizeof(double)) == 0;
    if (!same) ++wrong;
  }
  report_->Check(wrong == 0 && query_body_mismatches_ == 0,
                 "every /query answer equals MarginalVector on the job's model (" +
                     std::to_string(wrong) + " answers differ from the model, " +
                     std::to_string(query_body_mismatches_) +
                     " differ between jobs of one spec)");
  report_->Check(status_mismatches_ == 0, "status reads report finished jobs");
}

ServeLayers ServeSession::MeasureLayers() {
  ServeLayers layers;
  std::vector<double> times;
  for (int i = 0; i < 7; ++i) {
    const double t0 = Now();
    aim::StatusOr<aim::PreprocessResult> prep = LoadCsv(inputs_[0].csv_path);
    times.push_back(Now() - t0);
    report_->Check(prep.ok(), "job input reloads");
  }
  layers.csv_load_s = Median(times);

  const std::string store_path = work_dir_ + "/job_input.aim";
  report_->Check(aim::WriteStore(inputs_[0].prep.dataset, store_path).ok(),
                 "job input written as a store");
  times.clear();
  for (int i = 0; i < 7; ++i) {
    const double t0 = Now();
    auto opened = aim::StoreSource::Open(store_path);
    times.push_back(Now() - t0);
    report_->Check(opened.ok(), "job input store opens");
  }
  layers.store_open_s = Median(times);

  // Direct Server::Handle calls: the handler time without accept,
  // transport or queueing behind the serial accept loop.
  JobRecord job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = done_.back();
  }
  std::vector<double> query_ms, status_ms, submit_ms, marginal_ms;
  for (int i = 0; i < kLayerRepeats; ++i) {
    const auto& names = queries_[static_cast<size_t>(i) % queries_.size()];
    aim::HttpRequest request;
    request.method = "POST";
    request.path = "/jobs/" + job.id + "/query";
    request.body = QueryBody(names);
    double t0 = Now();
    aim::HttpResponse response = server_->Handle(request);
    query_ms.push_back((Now() - t0) * 1e3);
    report_->Check(response.status == 200, "Handle(query) answers 200");

    request = aim::HttpRequest();
    request.method = "GET";
    request.path = "/jobs/" + job.id;
    t0 = Now();
    response = server_->Handle(request);
    status_ms.push_back((Now() - t0) * 1e3);
    report_->Check(response.status == 200, "Handle(status) answers 200");

    std::vector<int> sizes;
    t0 = Now();
    auto marginal = server_->jobs().QueryMarginal(job.id, names, &sizes);
    marginal_ms.push_back((Now() - t0) * 1e3);
    report_->Check(marginal.ok(), "QueryMarginal answers");
  }
  for (int i = 0; i < 5; ++i) {
    aim::HttpRequest request;
    request.method = "POST";
    request.path = "/jobs";
    request.body = SpecJson(i % kServeSpecs);
    const double t0 = Now();
    aim::HttpResponse response = server_->Handle(request);
    submit_ms.push_back((Now() - t0) * 1e3);
    report_->Check(Is2xx(response.status), "Handle(submit) accepts the job");
  }
  report_->Check(server_->jobs().WaitIdle(120.0), "aimd drains its queue");
  layers.handle_query_ms = Median(query_ms);
  layers.handle_status_ms = Median(status_ms);
  layers.handle_submit_ms = Median(submit_ms);
  layers.query_marginal_ms = Median(marginal_ms);

  // Replay one job's run with a checkpoint every round, as the daemon
  // writes them; twice, the second time as the speed-up base.
  const aim::DatasetSource source(inputs_[0].prep.dataset);
  for (int pass = 0; pass < 2; ++pass) {
    const Reference& ref = references_[0];
    ReplayInput in;
    in.source = &source;
    in.workload = &inputs_[0].workload;
    in.options = ref.options;
    in.rho = aim::CdpRho(kEpsilon, kDelta);
    in.rng_seed = ref.rng_seed;
    in.result = &ref.result;
    in.csv_path = work_dir_ + "/replay_job.csv";
    in.checkpoint_base = work_dir_ + "/replay_checkpoint";
    aim::SetMetricsEnabled(true);
    ReplayOutcome outcome = Replay(in);
    aim::SetMetricsEnabled(false);
    const bool same_bytes = ReadFileBytes(in.csv_path) == ref.csv_bytes;
    if (outcome.ok && !same_bytes) outcome.error = "replayed job CSV differs";
    (pass == 0 ? layers.replay : layers.replay_1t) = outcome.times;
    if (pass == 0) {
      layers.replay_ok = outcome.ok && same_bytes;
      layers.replay_error = outcome.error;
    }
  }
  return layers;
}

void ServeSession::Stop() {
  if (server_ == nullptr) return;
  server_->Shutdown();
  if (serve_thread_.joinable()) serve_thread_.join();
  server_.reset();
}

}  // namespace e2e
