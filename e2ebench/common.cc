#include "common.h"

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "factor/simd_dispatch.h"

#ifndef AIM_E2E_BUILD_TYPE
#define AIM_E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

double ProcessCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream in_a(a, std::ios::binary), in_b(b, std::ios::binary);
  if (!in_a || !in_b) return false;
  std::vector<char> buf_a(1 << 16), buf_b(1 << 16);
  while (true) {
    in_a.read(buf_a.data(), static_cast<std::streamsize>(buf_a.size()));
    in_b.read(buf_b.data(), static_cast<std::streamsize>(buf_b.size()));
    const std::streamsize n = in_a.gcount();
    if (n != in_b.gcount() ||
        std::memcmp(buf_a.data(), buf_b.data(), static_cast<size_t>(n)) != 0) {
      return false;
    }
    if (n == 0) return true;
  }
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Attempt(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  std::cerr << "[e2ebench] failed: " << what << "\n";
}

bool Report::Check(bool ok, const std::string& what) {
  if (ok) return true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed_checks_.push_back(what);
  }
  Fail("check: " + what);
  return false;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[key] = std::string("\"").append(JsonEscape(value)).append("\"");
}

void Report::Info(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[key] = FormatDouble(value);
}

int Report::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream info;
  info << "{\"info\": {";
  bool first = true;
  for (const auto& [k, v] : info_) {
    info << (first ? "" : ", ") << "\"" << JsonEscape(k) << "\": " << v;
    first = false;
  }
  info << "}, \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    info << (i ? ", " : "") << "\"" << JsonEscape(failed_checks_[i]) << "\"";
  }
  info << "]}";
  std::cout << info.str() << "\n";

  std::ostringstream out;
  out << "{\"correct\": " << (failed_checks_.empty() ? "true" : "false")
      << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
        << FormatDouble(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return failed_checks_.empty() ? 0 : 1;
}

void StampEnvironment(Report* report) {
  report->Info("env.nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  unsigned int regs[12] = {0};
  std::string brand;
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    brand.assign(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // cut at the first NUL
    brand.erase(0, brand.find_first_not_of(' '));
  }
  report->Info("env.cpu_model", brand.empty() ? "unknown" : brand);
  report->Info("env.simd_level", aim::ToString(aim::ActiveSimdLevel()));
  report->Info("env.build_type", AIM_E2E_BUILD_TYPE);
}

}  // namespace e2e
