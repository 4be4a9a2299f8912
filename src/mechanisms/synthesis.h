// The one synthesis pipeline behind aim_cli and the aimd daemon. Both call
// Synthesis::Prepare + Synthesis::Run, so a daemon job and the equivalent
// CLI invocation are byte-identical, and share checkpoint fingerprints, by
// construction.

#ifndef AIM_MECHANISMS_SYNTHESIS_H_
#define AIM_MECHANISMS_SYNTHESIS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "data/data_source.h"
#include "data/preprocess.h"
#include "marginal/workload.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "robust/generations.h"
#include "store/reader.h"
#include "util/status.h"

namespace aim {

// A run with seed s draws from Rng(s + kRunSeedOffset) ("AIM" in ASCII).
inline constexpr uint64_t kRunSeedOffset = 0x41494D;

struct SynthesisSpec {
  std::string input;                 // raw CSV, .aim store or shard manifest
  int bins = 32;                     // numeric discretization (CSV input)
  std::string workload = "all3way";  // all3way | all2way | target:<attr>
  std::string mechanism = "AIM";     // a MechanismByName name
  double epsilon = 1.0;
  double delta = 1e-9;
  uint64_t seed = 0;
  RegistryOptions options;  // passed to MechanismByName
};

// INVALID_ARGUMENT unless epsilon is finite and positive, delta is in
// (0, 1), max_size_mb is positive and the workload name is in the
// vocabulary. Needs no data, so callers can reject a spec before admitting
// or loading it; Prepare checks it first.
Status ValidateSynthesisSpec(const SynthesisSpec& spec);

// Opens a store-format input; the daemon hands in its shared-mapping cache.
using StoreOpener = std::function<StatusOr<std::shared_ptr<StoreSource>>(
    const std::string& path)>;

class Synthesis {
 public:
  // Loads the input (detected from its content: a store is mmap'd through
  // `open_store`, default StoreSource::Open; a CSV is parsed and
  // Appendix-A preprocessed), builds the workload and the mechanism, and,
  // for AIM with a resume path, pre-validates the checkpoint ladder so a
  // stale or foreign snapshot is a typed error, not a CHECK failure in Run.
  static StatusOr<Synthesis> Prepare(const SynthesisSpec& spec,
                                     const StoreOpener& open_store = {});

  const DataSource& source() const { return *source_; }
  const StoreSource* store() const { return store_.get(); }  // null for CSV
  const Domain& domain() const { return source_->domain(); }
  const Workload& workload() const { return workload_; }
  double rho() const { return rho_; }
  // AimRunFingerprint of the run (0 for mechanisms other than AIM).
  uint64_t fingerprint() const { return fingerprint_; }
  // The checkpoint generation Run resumes from, when resuming.
  const std::optional<LoadedGeneration>& resumed() const { return resumed_; }

  MechanismResult Run();

 private:
  Synthesis() = default;

  uint64_t seed_ = 0;
  std::shared_ptr<StoreSource> store_;
  std::unique_ptr<PreprocessResult> prep_;
  std::unique_ptr<DatasetSource> csv_source_;
  const DataSource* source_ = nullptr;
  Workload workload_;
  double rho_ = 0.0;
  std::unique_ptr<Mechanism> mechanism_;
  uint64_t fingerprint_ = 0;
  std::optional<LoadedGeneration> resumed_;
};

}  // namespace aim

#endif  // AIM_MECHANISMS_SYNTHESIS_H_
