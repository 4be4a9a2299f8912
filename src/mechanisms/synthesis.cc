#include "mechanisms/synthesis.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "data/csv.h"
#include "dp/accountant.h"
#include "mechanisms/aim.h"
#include "util/rng.h"

namespace aim {
namespace {

StatusOr<std::shared_ptr<StoreSource>> OpenStore(const std::string& path) {
  StatusOr<std::unique_ptr<StoreSource>> opened = StoreSource::Open(path);
  if (!opened.ok()) return opened.status();
  return std::shared_ptr<StoreSource>(std::move(*opened));
}

bool IsValidWorkloadName(const std::string& name) {
  return name == "all3way" || name == "all2way" ||
         (name.rfind("target:", 0) == 0 && name.size() > 7);
}

// Expects a name IsValidWorkloadName accepts.
StatusOr<Workload> BuildWorkload(const Domain& domain,
                                 const std::string& name) {
  const int max_way = std::min(name == "all2way" ? 2 : 3,
                               domain.num_attributes());
  if (name.rfind("target:", 0) != 0) return AllKWayWorkload(domain, max_way);
  const std::string attr = name.substr(7);
  const int target = domain.IndexOf(attr);
  if (target < 0) {
    return InvalidArgumentError("no attribute named '" + attr + "'");
  }
  return TargetWorkload(domain, max_way, target);
}

}  // namespace

Status ValidateSynthesisSpec(const SynthesisSpec& spec) {
  if (!(spec.epsilon > 0.0 && std::isfinite(spec.epsilon))) {
    return InvalidArgumentError("epsilon must be positive and finite");
  }
  if (!(spec.delta > 0.0 && spec.delta < 1.0)) {
    return InvalidArgumentError("delta must be in (0, 1)");
  }
  if (!(spec.options.max_size_mb > 0.0)) {
    return InvalidArgumentError("max_size_mb must be positive");
  }
  if (!IsValidWorkloadName(spec.workload)) {
    return InvalidArgumentError("unknown workload '" + spec.workload +
                                "' (expected all3way, all2way, or "
                                "target:<attribute>)");
  }
  return Status::Ok();
}

StatusOr<Synthesis> Synthesis::Prepare(const SynthesisSpec& spec,
                                       const StoreOpener& open_store) {
  Status valid = ValidateSynthesisSpec(spec);
  if (!valid.ok()) return valid;
  Synthesis run;
  run.seed_ = spec.seed;

  // A store is mmap'd and streamed, never materialized; anything else is
  // read as a raw CSV.
  if (IsStoreFile(spec.input)) {
    StatusOr<std::shared_ptr<StoreSource>> opened =
        open_store ? open_store(spec.input) : OpenStore(spec.input);
    if (!opened.ok()) return opened.status();
    run.store_ = std::move(*opened);
    run.source_ = run.store_.get();
  } else {
    StatusOr<RawTable> table = ReadCsv(spec.input);
    if (!table.ok()) return table.status();
    PreprocessOptions prep_options;
    prep_options.num_bins = spec.bins;
    StatusOr<PreprocessResult> preprocessed = Preprocess(*table, prep_options);
    if (!preprocessed.ok()) return preprocessed.status();
    run.prep_ = std::make_unique<PreprocessResult>(std::move(*preprocessed));
    run.csv_source_ = std::make_unique<DatasetSource>(run.prep_->dataset);
    run.source_ = run.csv_source_.get();
  }

  StatusOr<Workload> workload = BuildWorkload(run.domain(), spec.workload);
  if (!workload.ok()) return workload.status();
  run.workload_ = std::move(*workload);
  run.rho_ = CdpRho(spec.epsilon, spec.delta);

  run.mechanism_ = MechanismByName(spec.mechanism, spec.options);
  if (run.mechanism_ == nullptr) {
    return InvalidArgumentError("unknown mechanism '" + spec.mechanism + "'");
  }
  if (auto* an_aim = dynamic_cast<AimMechanism*>(run.mechanism_.get())) {
    run.fingerprint_ = AimRunFingerprint(run.domain(), run.workload_,
                                         an_aim->options(), run.rho_);
    // A corrupt newest generation only lands in `rejected` (Run falls back
    // to the same older one); a ladder with no valid snapshot is an error.
    const std::string& resume = spec.options.resume_path;
    if (!resume.empty()) {
      StatusOr<LoadedGeneration> loaded =
          LoadLatestValidGeneration(resume, run.fingerprint_, run.rho_);
      if (!loaded.ok()) {
        return Status(loaded.status().code(),
                      "cannot resume from '" + resume +
                          "': " + loaded.status().message());
      }
      run.resumed_ = std::move(*loaded);
    }
  }
  return run;
}

MechanismResult Synthesis::Run() {
  Rng rng(seed_ + kRunSeedOffset);
  return mechanism_->Run(*source_, workload_, rho_, rng);
}

}  // namespace aim
