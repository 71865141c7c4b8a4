// Small numeric and process helpers shared by the benchmark's files.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vcbench {

// Exact percentile (nearest rank, p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

// Monotonic microseconds since an arbitrary process-wide origin.
double NowUs();

// Process CPU time (user + system, all threads) in milliseconds.
double ProcessCpuMs();
// Peak resident set of the process in MiB.
double PeakRssMb();

// Machine-wide CPU tick counters (/proc/stat). On a virtual machine the
// steal share — time the host ran something else while this machine wanted
// to run — stretches every wall-clock figure, so runs print it.
struct CpuShares {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuShares MachineCpu();
double StealPercent(const CpuShares& before, const CpuShares& after);

// One named metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Formats `m` as the JSON object the result line carries.
std::string MetricsJson(const MetricMap& m);

}  // namespace vcbench
