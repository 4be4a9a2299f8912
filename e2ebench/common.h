// Shared helpers for the end-to-end benchmark: wall clocks, order
// statistics, the result/metric printer, the environment stamp, and small
// file utilities. Nothing here touches the product libraries' internals.

#ifndef AIM_E2EBENCH_COMMON_H_
#define AIM_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();

// Median of `v` (mean of the two middle values for even sizes); 0 when
// empty.
double Median(std::vector<double> v);

double Mean(const std::vector<double>& v);

// Smallest element; 0 when empty.
double Min(const std::vector<double>& v);

// Peak resident set of this process so far, in MB (getrusage).
double PeakRssMb();

// Whole file as bytes; empty string when unreadable.
std::string ReadFileBytes(const std::string& path);

// True when both files are readable and hold the same bytes. Compares in
// blocks, so a large file never sits in memory (peak RSS is a metric).
bool SameFileBytes(const std::string& a, const std::string& b);

// mkdir -p; false on failure.
bool MakeDirs(const std::string& path);

// Outcome of one invocation: operations attempted and failed, the output
// checks that failed, and the metrics to print. Thread-safe.
class Report {
 public:
  void Attempt(int64_t n = 1);
  void Fail(const std::string& what);
  // Records a failed check (also a failed operation).
  bool Check(bool ok, const std::string& what);

  void Metric(const std::string& name, double value, const std::string& unit);
  // Free-form context printed on the info line (environment, sample
  // counts, per-phase notes).
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  // Prints the info object, then the final result line. Returns the
  // process exit code: 0 when every check passed.
  int Print() const;

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failed_checks_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, std::string> info_;
};

// nproc, CPU brand string (cpuid), dispatched SIMD level, build type.
void StampEnvironment(Report* report);

std::string JsonEscape(const std::string& s);
std::string FormatDouble(double v);

}  // namespace e2e

#endif  // AIM_E2EBENCH_COMMON_H_
