#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace vcbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin)
      .count();
}

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  // VmHWM is the kernel's resident high-water mark for this process.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

CpuShares MachineCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuShares out;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

double StealPercent(const CpuShares& before, const CpuShares& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  bool first = true;
  char buf[96];
  for (const auto& [name, metric] : m) {
    double v = std::isfinite(metric.value) ? metric.value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace vcbench
