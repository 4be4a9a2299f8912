// Tests for the aimd service layer (src/serve/): wire protocol, rate
// limiting, tenant zCDP ledgers (the spent <= budget invariant under
// concurrent submissions), job lifecycle (cancel-mid-job leaves a
// resumable checkpoint; resumed output is byte-identical to an
// uninterrupted run), graceful-shutdown drain, and one real loopback
// round-trip over a socket.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/data_source.h"
#include "data/preprocess.h"
#include "dp/accountant.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "mechanisms/synthesis.h"
#include "obs/metrics.h"
#include "robust/generations.h"
#include "serve/job_manager.h"
#include "serve/protocol.h"
#include "serve/rate_limiter.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "test_util.h"
#include "util/rng.h"

namespace aim {
namespace {

// ------------------------------------------------------------ fixtures ----

// A small mixed-value CSV: integer codes in a modest domain, enough rows
// that AIM runs a real multi-round schedule (so cancel-mid-job has rounds
// to interrupt) without making the suite slow.
std::string WriteTestCsv(const std::string& dir, int rows = 400) {
  const std::string path = dir + "/input.csv";
  std::ofstream out(path);
  out << "a,b,c,d\n";
  uint64_t state = 12345;
  for (int i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    out << (state >> 33) % 4 << "," << (state >> 17) % 3 << ","
        << (state >> 41) % 5 << "," << (state >> 25) % 2 << "\n";
  }
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

JobSpec TestSpec(const std::string& dataset) {
  JobSpec spec;
  spec.tenant = "t0";
  spec.run.input = dataset;
  spec.run.epsilon = 1.0;
  spec.run.delta = 1e-9;
  spec.run.workload = "all2way";
  spec.run.seed = 7;
  return spec;
}

bool WaitForState(const std::shared_ptr<Job>& job, Job::State wanted,
                  double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->state == wanted) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> lock(job->mu);
  return job->state == wanted;
}

// ---------------------------------------------------------------- JSON ----

TEST(JsonTest, ParsesScalarsAndNesting) {
  StatusOr<JsonValue> parsed = ParseJson(
      R"({"s":"hi\n\"x\"","n":-2.5,"b":true,"z":null,"a":[1,2],"o":{"k":3}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s", ""), "hi\n\"x\"");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("n", 0.0), -2.5);
  EXPECT_TRUE(parsed->GetBool("b", false));
  ASSERT_NE(parsed->Find("z"), nullptr);
  EXPECT_TRUE(parsed->Find("z")->is_null());
  ASSERT_NE(parsed->Find("a"), nullptr);
  EXPECT_EQ(parsed->Find("a")->array().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Find("o")->GetNumber("k", 0.0), 3.0);
}

TEST(JsonTest, RoundTripsThroughToJson) {
  const std::string text = R"({"a":[1,2.5,"x",false,null],"b":{"c":"d"}})";
  StatusOr<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok());
  StatusOr<JsonValue> reparsed = ParseJson(parsed->ToJson());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(parsed->ToJson(), reparsed->ToJson());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  // Depth bound: 100 nested arrays exceed the 64-level limit.
  EXPECT_FALSE(
      ParseJson(std::string(100, '[') + std::string(100, ']')).ok());
}

TEST(JsonTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("a\tb\x01"), "\"a\\tb\\u0001\"");
  StatusOr<JsonValue> back = ParseJson(JsonQuote("a\tb\x01"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->AsString(), "a\tb\x01");
}

// ---------------------------------------------------------------- HTTP ----

TEST(HttpTest, ParsesRequestLineHeadersAndBody) {
  StatusOr<HttpRequest> request = ParseHttpRequest(
      "POST /jobs?from=3 HTTP/1.1\r\nHost: x\r\nContent-Type:  "
      "application/json\r\n\r\n{\"a\":1}");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->path, "/jobs");
  EXPECT_EQ(request->query, "from=3");
  EXPECT_EQ(request->headers.at("content-type"), "application/json");
  EXPECT_EQ(request->body, "{\"a\":1}");
}

TEST(HttpTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseHttpRequest("garbage").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /\r\n\r\n").ok());  // no version
  EXPECT_FALSE(ParseHttpRequest("GET / SPDY/3\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET nopath HTTP/1.1\r\n\r\n").ok());
}

TEST(HttpTest, SplitPathDropsEmptySegments) {
  EXPECT_EQ(SplitPath("/jobs/j-1/events"),
            (std::vector<std::string>{"jobs", "j-1", "events"}));
  EXPECT_EQ(SplitPath("//jobs//"), (std::vector<std::string>{"jobs"}));
  EXPECT_TRUE(SplitPath("/").empty());
}

// --------------------------------------------------------- rate limiter ----

TEST(RateLimiterTest, BurstExhaustsThenRefuses) {
  RateLimiter limiter(3.0, 0.0);  // no refill: deterministic
  EXPECT_TRUE(limiter.Admit("t"));
  EXPECT_TRUE(limiter.Admit("t"));
  EXPECT_TRUE(limiter.Admit("t"));
  EXPECT_FALSE(limiter.Admit("t"));
  EXPECT_FALSE(limiter.Admit("t"));
  // Buckets are per tenant: another tenant is unaffected.
  EXPECT_TRUE(limiter.Admit("other"));
}

TEST(RateLimiterTest, RefillRestoresTokens) {
  RateLimiter limiter(1.0, 1000.0);  // fast refill for a fast test
  EXPECT_TRUE(limiter.Admit("t"));
  // Might race an instant refill, so just wait out a guaranteed one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(limiter.Admit("t"));
  EXPECT_GE(limiter.Available("t"), 0.0);
}

// -------------------------------------------------------- tenant ledger ----

TEST(TenantLedgerTest, RefusesBeyondBudgetAndUnknownTenants) {
  TenantLedger ledger(/*default_rho=*/0.0);
  ASSERT_TRUE(ledger.Provision("acme", 1.0).ok());
  EXPECT_FALSE(ledger.Provision("acme", 2.0).ok());  // append-only
  EXPECT_EQ(ledger.TryReserve("nobody", 0.1).code(), StatusCode::kNotFound);
  EXPECT_TRUE(ledger.TryReserve("acme", 0.6).ok());
  const Status refused = ledger.TryReserve("acme", 0.6);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ledger.TryReserve("acme", 0.4).ok());  // exactly exhausts
  EXPECT_FALSE(ledger.TryReserve("acme", 1e-3).ok());
  StatusOr<TenantLedger::TenantStatus> status = ledger.GetStatus("acme");
  ASSERT_TRUE(status.ok());
  EXPECT_LE(status->spent, status->budget);
  EXPECT_EQ(status->jobs_admitted, 2);
}

TEST(TenantLedgerTest, DefaultBudgetProvisionsOnFirstSight) {
  TenantLedger ledger(/*default_rho=*/0.5);
  EXPECT_TRUE(ledger.TryReserve("walk-in", 0.3).ok());
  EXPECT_FALSE(ledger.TryReserve("walk-in", 0.3).ok());
  StatusOr<TenantLedger::TenantStatus> status = ledger.GetStatus("walk-in");
  ASSERT_TRUE(status.ok());
  EXPECT_DOUBLE_EQ(status->budget, 0.5);
}

TEST(TenantLedgerTest, SpentNeverExceedsBudgetUnderConcurrency) {
  // 8 threads race 400 reservations of 0.01 against a budget of 1.0: no
  // interleaving may admit more than 100, and the PrivacyFilter invariant
  // spent() <= budget() must hold exactly afterwards.
  TenantLedger ledger(0.0);
  ASSERT_TRUE(ledger.Provision("shared", 1.0).ok());
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (ledger.TryReserve("shared", 0.01).ok()) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  StatusOr<TenantLedger::TenantStatus> status = ledger.GetStatus("shared");
  ASSERT_TRUE(status.ok());
  EXPECT_LE(status->spent, status->budget);
  // 100 fit exactly; tolerate one fewer in case the clamp tolerance rounds
  // the 100th reservation out.
  EXPECT_GE(admitted.load(), 99);
  EXPECT_LE(admitted.load(), 100);
  EXPECT_EQ(admitted.load(), status->jobs_admitted);
}

// ------------------------------------------------------------ job specs ----

TEST(JobSpecTest, ParsesAndValidates) {
  StatusOr<JsonValue> body = ParseJson(
      R"({"tenant":"t1","dataset":"/d.csv","epsilon":0.5,"delta":1e-6,)"
      R"("workload":"all2way","seed":42,"records":100,"bins":8})");
  ASSERT_TRUE(body.ok());
  StatusOr<JobSpec> spec = ParseJobSpec(*body);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->tenant, "t1");
  EXPECT_EQ(spec->run.mechanism, "AIM");  // default
  EXPECT_DOUBLE_EQ(spec->run.epsilon, 0.5);
  EXPECT_EQ(spec->run.seed, 42u);
  EXPECT_EQ(spec->run.options.synthetic_records, 100);
  EXPECT_EQ(spec->run.bins, 8);

  auto bad = [](const std::string& json) {
    StatusOr<JsonValue> parsed = ParseJson(json);
    EXPECT_TRUE(parsed.ok()) << json;
    return !ParseJobSpec(*parsed).ok();
  };
  EXPECT_TRUE(bad(R"({})"));  // no dataset
  EXPECT_TRUE(bad(R"({"dataset":"/d.csv","epsilon":-1})"));
  EXPECT_TRUE(bad(R"({"dataset":"/d.csv","delta":1.5})"));
  EXPECT_TRUE(bad(R"({"dataset":"/d.csv","workload":"bogus"})"));
  EXPECT_TRUE(bad(R"({"dataset":"/d.csv","seed":-3})"));
  EXPECT_TRUE(bad(R"({"dataset":"/d.csv","bins":0})"));
}

// "records" comes from outside the program: a value far below int64's range
// must be refused before the integer conversion (which would be undefined),
// while every value in [-1, 0] keeps meaning "the estimated total".
TEST(JobSpecTest, RejectsRecordsOutsideInt64Range) {
  auto parse = [](const std::string& records) {
    StatusOr<JsonValue> parsed =
        ParseJson(R"({"dataset":"/d.csv","records":)" + records + "}");
    EXPECT_TRUE(parsed.ok()) << records;
    return ParseJobSpec(*parsed);
  };
  for (const char* records : {"-1e300", "-2", "-1.5", "1e300"}) {
    StatusOr<JobSpec> spec = parse(records);
    ASSERT_FALSE(spec.ok()) << records;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << records;
  }
  for (const char* records : {"-1", "0"}) {
    StatusOr<JobSpec> spec = parse(records);
    ASSERT_TRUE(spec.ok()) << records << ": " << spec.status().ToString();
    EXPECT_LE(spec->run.options.synthetic_records, 0) << records;
  }
}

// ------------------------------------------------------- job lifecycle ----

class ServeJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = testing_util::PerTestDir();
    dataset_ = WriteTestCsv(work_dir_);
  }
  std::string dataset_;
  std::string work_dir_;
};

TEST_F(ServeJobTest, RunsJobAndMatchesDirectRunByteForByte) {
  TenantLedger ledger(/*default_rho=*/100.0);
  JobManagerOptions options;
  options.work_dir = work_dir_;
  options.workers = 2;
  JobManager manager(options, &ledger);

  const JobSpec spec = TestSpec(dataset_);
  StatusOr<std::shared_ptr<Job>> submitted = manager.Submit(spec);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const std::shared_ptr<Job>& job = *submitted;
  ASSERT_TRUE(manager.WaitIdle(300.0));
  ASSERT_TRUE(WaitForState(job, Job::State::kDone, 1.0))
      << "job state: " << Job::StateName(job->state) << " " << job->error;

  // The job emitted a per-job trace with round records and a final state
  // consistent with them.
  EXPECT_GT(job->trace.size(), 0u);
  EXPECT_EQ(job->trace.rounds_completed(), job->rounds);
  EXPECT_GT(job->rounds, 0);
  {
    std::lock_guard<std::mutex> lock(job->mu);
    EXPECT_TRUE(job->model.has_value());
    EXPECT_GT(job->rho_used, 0.0);
    EXPECT_LE(job->rho_used, job->rho * (1.0 + 1e-9));
  }

  // Byte-identity vs. the same run made directly (the aim_cli pipeline):
  // same preprocessing, workload, rho conversion, options, and seed
  // derivation must give the same synthetic CSV, byte for byte.
  StatusOr<RawTable> table = ReadCsv(dataset_);
  ASSERT_TRUE(table.ok());
  PreprocessOptions prep_options;
  prep_options.num_bins = spec.run.bins;
  StatusOr<PreprocessResult> prep = Preprocess(*table, prep_options);
  ASSERT_TRUE(prep.ok());
  const Workload workload = AllKWayWorkload(
      prep->dataset.domain(),
      std::min(2, prep->dataset.domain().num_attributes()));
  AimOptions aim_options;
  aim_options.record_candidates = false;
  AimMechanism mechanism(aim_options);
  DatasetSource direct_source(prep->dataset);
  Rng rng(spec.run.seed + kRunSeedOffset);
  MechanismResult direct = mechanism.Run(
      direct_source, workload, CdpRho(spec.run.epsilon, spec.run.delta), rng);
  const std::string direct_path = work_dir_ + "/direct.csv";
  ASSERT_TRUE(WriteCsv(direct.synthetic, direct_path).ok());
  EXPECT_EQ(ReadFileBytes(job->output_path), ReadFileBytes(direct_path));

  // Post-hoc marginal query against the completed model: cells sum to the
  // model's estimated total, shape follows the domain.
  std::vector<int> sizes;
  StatusOr<std::vector<double>> marginal =
      manager.QueryMarginal(job->id, {"a", "b"}, &sizes);
  ASSERT_TRUE(marginal.ok()) << marginal.status().ToString();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(marginal->size(), static_cast<size_t>(sizes[0] * sizes[1]));
  double sum = 0.0;
  for (double v : *marginal) sum += v;
  EXPECT_NEAR(sum, direct.total_estimate,
              1e-3 * (1.0 + std::abs(direct.total_estimate)));

  EXPECT_FALSE(
      manager.QueryMarginal(job->id, {"nonexistent"}, nullptr).ok());
  EXPECT_FALSE(manager.QueryMarginal("j-404", {"a"}, nullptr).ok());
}

TEST_F(ServeJobTest, CancelMidJobLeavesResumableCheckpointAndResumeMatches) {
  TenantLedger ledger(/*default_rho=*/100.0);
  JobManagerOptions options;
  options.work_dir = work_dir_ + "_cancel";
  options.workers = 1;
  JobManager manager(options, &ledger);

  // Reference: an uninterrupted run of the same spec.
  JobSpec spec = TestSpec(dataset_);
  StatusOr<std::shared_ptr<Job>> reference = manager.Submit(spec);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(manager.WaitIdle(300.0));
  ASSERT_TRUE(WaitForState(*reference, Job::State::kDone, 1.0))
      << (*reference)->error;
  const std::string reference_bytes =
      ReadFileBytes((*reference)->output_path);

  // Victim: same spec, cancelled as soon as the first round lands.
  StatusOr<std::shared_ptr<Job>> victim = manager.Submit(spec);
  ASSERT_TRUE(victim.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while ((*victim)->trace.rounds_completed() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE((*victim)->trace.rounds_completed(), 1);
  ASSERT_TRUE(manager.Cancel((*victim)->id).ok());
  ASSERT_TRUE(manager.WaitIdle(300.0));
  ASSERT_TRUE(WaitForState(*victim, Job::State::kCancelled, 1.0))
      << "state: " << Job::StateName((*victim)->state);

  // The wind-down forced a final checkpoint: the newest valid generation
  // loads under the job's fingerprint and sits at the round it stopped.
  uint64_t victim_fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock((*victim)->mu);
    victim_fingerprint = (*victim)->fingerprint;
  }
  StatusOr<LoadedGeneration> loaded = LoadLatestValidGeneration(
      (*victim)->checkpoint_path, victim_fingerprint, (*victim)->rho);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GE(loaded->snapshot.round, 0);
  EXPECT_LT(loaded->snapshot.rho_spent,
            (*victim)->rho * (1.0 + 1e-9));

  // Resume: a fresh submission picking up the victim's checkpoint must
  // finish and produce output byte-identical to the uninterrupted
  // reference — the strongest form of "the checkpoint was resumable".
  JobSpec resume_spec = spec;
  resume_spec.run.options.resume_path = (*victim)->checkpoint_path;
  StatusOr<std::shared_ptr<Job>> resumed = manager.Submit(resume_spec);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(manager.WaitIdle(300.0));
  ASSERT_TRUE(WaitForState(*resumed, Job::State::kDone, 1.0))
      << (*resumed)->error;
  EXPECT_EQ(ReadFileBytes((*resumed)->output_path), reference_bytes);

  // Three admissions were charged in full — no refunds for the cancelled
  // job (its measurements are on disk), and the invariant held throughout.
  StatusOr<TenantLedger::TenantStatus> tenant = ledger.GetStatus("t0");
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(tenant->jobs_admitted, 3);
  EXPECT_NEAR(tenant->spent, 3 * (*victim)->rho, 1e-9);
  EXPECT_LE(tenant->spent, tenant->budget);
}

TEST_F(ServeJobTest, ShutdownDrainsRunningAndQueuedJobs) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetForTesting();
  TenantLedger ledger(/*default_rho=*/100.0);
  JobManagerOptions options;
  options.work_dir = work_dir_ + "_drain";
  options.workers = 1;  // the second job must still be queued at shutdown
  JobManager manager(options, &ledger);

  JobSpec spec = TestSpec(dataset_);
  StatusOr<std::shared_ptr<Job>> running = manager.Submit(spec);
  ASSERT_TRUE(running.ok());
  spec.run.seed = 8;
  StatusOr<std::shared_ptr<Job>> queued = manager.Submit(spec);
  ASSERT_TRUE(queued.ok());

  // Let the first job make some progress, then drain.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while ((*running)->trace.rounds_completed() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  manager.Shutdown();  // blocks until the workers joined

  // The running job wound down (cancelled at a round boundary, or done if
  // it beat the token) and left a loadable checkpoint; the queued one
  // never started.
  {
    std::lock_guard<std::mutex> lock((*running)->mu);
    EXPECT_TRUE((*running)->state == Job::State::kCancelled ||
                (*running)->state == Job::State::kDone)
        << Job::StateName((*running)->state);
  }
  uint64_t running_fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock((*running)->mu);
    running_fingerprint = (*running)->fingerprint;
  }
  StatusOr<LoadedGeneration> loaded = LoadLatestValidGeneration(
      (*running)->checkpoint_path, running_fingerprint, (*running)->rho);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  {
    std::lock_guard<std::mutex> lock((*queued)->mu);
    EXPECT_EQ((*queued)->state, Job::State::kCancelled);
  }
  // New submissions are refused after shutdown.
  EXPECT_EQ(manager.Submit(spec).status().code(), StatusCode::kUnavailable);

  // The running job's budget gauges published under its own label — the
  // per-job scoping that keeps concurrent jobs from clobbering each other.
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(
      registry.gauge("dp.filter.budget{job=" + (*running)->id + "}").value(),
      (*running)->rho);
  SetMetricsEnabled(false);
}

// ----------------------------------------------------- server routing ----

class ServeHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.port = 0;
    options_.jobs.work_dir = testing_util::PerTestDir();
    dataset_ = WriteTestCsv(options_.jobs.work_dir);
    options_.jobs.workers = 1;
    options_.default_tenant_rho = 0.0;
    options_.rate_burst = 100.0;
    options_.rate_per_second = 0.0;
  }

  std::string Submit(Server& server, const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/jobs";
    request.body = body;
    last_response_ = server.Handle(request);
    StatusOr<JsonValue> json = ParseJson(last_response_.body);
    if (!json.ok()) return "";
    return json->GetString("id", "");
  }

  std::string dataset_;
  ServerOptions options_;
  HttpResponse last_response_;
};

TEST_F(ServeHttpTest, RoutesAndTenantRefusalOverHttp) {
  Server server(options_);
  // Provision a tenant with room for exactly one eps=1.0 job.
  const double rho_one = CdpRho(1.0, 1e-9);
  ASSERT_TRUE(server.tenants().Provision("t0", rho_one * 1.5).ok());

  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/healthz";
    EXPECT_EQ(server.Handle(request).status, 200);
  }
  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/nope";
    EXPECT_EQ(server.Handle(request).status, 404);
  }

  // Bad spec -> 400 (and no budget charged).
  Submit(server, "{\"epsilon\":1.0}");
  EXPECT_EQ(last_response_.status, 400);
  // Unknown tenant -> 404 (no default budget).
  Submit(server, "{\"tenant\":\"ghost\",\"dataset\":\"" + dataset_ + "\"}");
  EXPECT_EQ(last_response_.status, 404);

  // First job admitted (202); second refused 403: the remaining half-budget
  // cannot cover another full job, and the ledger never overspends.
  const std::string id =
      Submit(server, "{\"tenant\":\"t0\",\"dataset\":\"" + dataset_ +
                         "\",\"workload\":\"all2way\",\"seed\":7}");
  EXPECT_EQ(last_response_.status, 202);
  ASSERT_FALSE(id.empty());
  Submit(server, "{\"tenant\":\"t0\",\"dataset\":\"" + dataset_ +
                     "\",\"workload\":\"all2way\",\"seed\":8}");
  EXPECT_EQ(last_response_.status, 403);

  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/tenants/t0";
    HttpResponse response = server.Handle(request);
    ASSERT_EQ(response.status, 200);
    StatusOr<JsonValue> json = ParseJson(response.body);
    ASSERT_TRUE(json.ok());
    EXPECT_LE(json->GetNumber("rho_spent", 1e9),
              json->GetNumber("rho_budget", 0.0));
    EXPECT_DOUBLE_EQ(json->GetNumber("jobs_admitted", 0.0), 1.0);
  }

  ASSERT_TRUE(server.jobs().WaitIdle(300.0));
  std::shared_ptr<Job> job = server.jobs().Find(id);
  ASSERT_NE(job, nullptr);
  ASSERT_TRUE(WaitForState(job, Job::State::kDone, 1.0)) << job->error;

  // Status, events, result, query — the full read side.
  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/jobs/" + id;
    HttpResponse response = server.Handle(request);
    ASSERT_EQ(response.status, 200);
    StatusOr<JsonValue> json = ParseJson(response.body);
    ASSERT_TRUE(json.ok());
    EXPECT_EQ(json->GetString("state", ""), "done");
    EXPECT_GT(json->GetNumber("rounds", 0.0), 0.0);
  }
  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/jobs/" + id + "/events";
    HttpResponse response = server.Handle(request);
    ASSERT_EQ(response.status, 200);
    // Every line is one well-formed JSON trace record.
    std::istringstream lines(response.body);
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
      EXPECT_TRUE(ParseJson(line).ok()) << line;
      ++count;
    }
    EXPECT_GT(count, 0);
    // Tail from the end: nothing new.
    request.query = "from=" + std::to_string(count);
    EXPECT_TRUE(server.Handle(request).body.empty());
  }
  {
    HttpRequest request;
    request.method = "GET";
    request.path = "/jobs/" + id + "/result";
    HttpResponse response = server.Handle(request);
    ASSERT_EQ(response.status, 200);
    EXPECT_EQ(response.content_type, "text/csv");
    EXPECT_EQ(response.body, ReadFileBytes(job->output_path));
  }
  {
    HttpRequest request;
    request.method = "POST";
    request.path = "/jobs/" + id + "/query";
    request.body = "{\"attrs\":[\"a\",\"d\"]}";
    HttpResponse response = server.Handle(request);
    ASSERT_EQ(response.status, 200);
    StatusOr<JsonValue> json = ParseJson(response.body);
    ASSERT_TRUE(json.ok());
    ASSERT_NE(json->Find("cells"), nullptr);
    EXPECT_EQ(json->Find("cells")->array().size(),
              static_cast<size_t>(4 * 2));
  }
  server.Shutdown();
}

// A /query whose junction tree (the model's cliques plus the query) is over
// the job's own max_size_mb is refused with a 400 before any factor is
// built; the daemon keeps answering. Unbounded, an all-attribute query on a
// wide domain asks for more memory than the host has and kills the process.
TEST_F(ServeHttpTest, OversizedQueryIsRefusedAndServerStaysUp) {
  options_.default_tenant_rho = 100.0;
  Server server(options_);
  // 800 bytes: room for the one-way model, not for the 4*3*5*2 = 120-cell
  // (960-byte) joint of all four attributes.
  const std::string id =
      Submit(server, "{\"dataset\":\"" + dataset_ +
                         "\",\"workload\":\"all2way\",\"seed\":7,"
                         "\"max_size_mb\":0.0008}");
  ASSERT_EQ(last_response_.status, 202) << last_response_.body;
  ASSERT_TRUE(server.jobs().WaitIdle(300.0));
  std::shared_ptr<Job> job = server.jobs().Find(id);
  ASSERT_NE(job, nullptr);
  ASSERT_TRUE(WaitForState(job, Job::State::kDone, 1.0)) << job->error;

  auto query = [&](const std::string& attrs) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/jobs/" + id + "/query";
    request.body = "{\"attrs\":[" + attrs + "]}";
    return server.Handle(request);
  };
  HttpResponse refused = query("\"a\",\"b\",\"c\",\"d\"");
  EXPECT_EQ(refused.status, 400);
  EXPECT_NE(refused.body.find("max_size_mb"), std::string::npos)
      << refused.body;

  HttpRequest health;
  health.method = "GET";
  health.path = "/healthz";
  EXPECT_EQ(server.Handle(health).status, 200);
  HttpResponse answered = query("\"a\"");
  ASSERT_EQ(answered.status, 200) << answered.body;
  StatusOr<JsonValue> json = ParseJson(answered.body);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Find("cells")->array().size(), 4u);
  server.Shutdown();
}

TEST_F(ServeHttpTest, RateLimiterRefusesFloods) {
  options_.rate_burst = 2.0;
  options_.rate_per_second = 0.0;  // no refill: deterministic
  options_.default_tenant_rho = 100.0;
  Server server(options_);
  const std::string body =
      "{\"tenant\":\"flood\",\"dataset\":\"" + dataset_ + "\"}";
  Submit(server, body);
  EXPECT_EQ(last_response_.status, 202);
  Submit(server, body);
  EXPECT_EQ(last_response_.status, 202);
  Submit(server, body);
  EXPECT_EQ(last_response_.status, 429);
  // 429 happened before admission: only two jobs exist, two charges made.
  EXPECT_EQ(server.jobs().Jobs().size(), 2u);
  server.Shutdown();
}

TEST_F(ServeHttpTest, LoopbackSocketRoundTrip) {
  Server server(options_);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  std::thread serve_thread([&server] { server.ServeForever(nullptr); });

  auto roundtrip = [&server](const std::string& raw) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    EXPECT_EQ(send(fd, raw.data(), raw.size(), 0),
              static_cast<ssize_t>(raw.size()));
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<size_t>(n));
    }
    close(fd);
    return response;
  };

  const std::string health =
      roundtrip("GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("{\"ok\":true}"), std::string::npos) << health;

  // POST with a body: Content-Length framing both ways.
  const std::string body = "{\"epsilon\":1.0}";  // valid JSON, bad spec
  const std::string submit = roundtrip(
      "POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(submit.find("HTTP/1.1 400"), std::string::npos) << submit;
  EXPECT_NE(submit.find("dataset"), std::string::npos) << submit;

  const std::string malformed = roundtrip("BOGUS\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400"), std::string::npos) << malformed;

  server.Shutdown();
  serve_thread.join();
}

}  // namespace
}  // namespace aim
