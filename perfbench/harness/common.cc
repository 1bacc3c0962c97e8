#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void reset_peak_rss() {
  // Hands memory freed by the previous repetition back to the kernel, so
  // each repetition's peak starts from the same floor as a fresh process.
  malloc_trim(0);
  // "5" resets the process's peak RSS (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double rep_peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        found = true;
        break;
      }
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

Calibrator::Calibrator() : ring_(std::size_t{1} << 22) {
  // Sattolo's shuffle: the permutation is a single cycle, so the walk
  // visits every slot and no prefetcher can guess the next one.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    ring_[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = ring_.size() - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(ring_[i], ring_[(x >> 33) % i]);
  }
}

double Calibrator::measure_s() {
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (int i = 0; i < (1 << 18); ++i) at = ring_[at];
  std::uint64_t x = sink_ + at;
  for (int i = 0; i < (1 << 22); ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    x ^= z >> 31;
  }
  sink_ = x;
  return seconds_since(t0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  infos_.push_back({name, value, unit});
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0) {
    auto& [a, f] = failures_[what];
    a += attempted;
    f += failed;
  }
}

void Report::require(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::print() const {
  for (const auto& [what, counts] : failures_) {
    std::printf("CHECK FAILED: %s: %llu of %llu\n", what.c_str(),
                static_cast<unsigned long long>(counts.second),
                static_cast<unsigned long long>(counts.first));
  }
  for (const Row& r : infos_) {
    std::printf("%-34s %.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
  for (const Row& r : metrics_) {
    std::printf("%-34s %.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Row& r = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.name.c_str(),
                std::isfinite(r.value) ? r.value : 0.0, r.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
