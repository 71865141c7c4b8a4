// vcbench: one round of the VirtualCluster pod-lifecycle benchmark.
//
//   vcbench --workload <steady|burst> --seed <n> --round <k>
//           --trace <0|1>
//
// Each round runs in a fresh process, so every round starts from the same
// state (the program's shared executor keeps the spare threads a deployment
// makes it grow, and a later deployment in the same process pays for them).
// Prints a human-readable summary, then as the last line of stdout one JSON
// object with the round's raw results; vcbench/run.py repeats rounds and
// aggregates them.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"
#include "workloads.h"

namespace vcbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int round = -1;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--round") {
      a->round = std::atoi(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->round >= 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: vcbench --workload <steady|burst> --seed <n> "
                 "--round <k> --trace <0|1>\n");
    return 2;
  }
  // A checker that cannot fail proves nothing: refuse to measure if any
  // check misses its seeded fault.
  std::vector<std::string> violations = SelfTestChecks();
  if (!violations.empty()) {
    for (const std::string& v : violations) std::fprintf(stderr, "%s\n", v.c_str());
    return 1;
  }

  const double r0 = NowUs();
  const CpuShares s0 = MachineCpu();
  RoundResult r = RunRound(spec, args.seed, args.round, args.trace == 1);
  const double steal = StealPercent(s0, MachineCpu());
  std::printf("round %d%s: setup %.3f s, %zu pods timed, ready p50 %.2f ms, "
              "%.1f pods/s, %.3f cpu ms/pod, resync %.3f s, %.1f s, machine steal "
              "%.0f%%\n",
              args.round, args.trace ? " (traced)" : "", r.setup_s, r.ready_ms.size(),
              Percentile(r.ready_ms, 50), r.throughput, r.cpu_ms_per_pod, r.resync_s,
              (NowUs() - r0) / 1e6, steal);
  for (const std::string& v : r.violations) std::printf("  VIOLATION: %s\n", v.c_str());

  std::string viol = "[";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    viol += (i ? ", " : "") + JsonString(r.violations[i]);
  }
  viol += "]";
  MetricMap e2e;
  e2e["setup_s"] = {r.setup_s, "s"};
  e2e["pods_per_s"] = {r.throughput, "pods/s"};
  e2e["cpu_ms_per_pod"] = {r.cpu_ms_per_pod, "ms"};
  e2e["syncer_cache_kb_per_pod"] = {r.cache_kb_per_pod, "KiB"};
  e2e["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  e2e["resync_s"] = {r.resync_s, "s"};
  e2e["steal_pct"] = {steal, "%"};
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"violations\": %s, "
              "\"ready_ms\": %s, \"round\": %s, \"layers\": %s, \"registry\": %s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), viol.c_str(),
              JsonNumbers(r.ready_ms).c_str(), MetricsJson(e2e).c_str(),
              MetricsJson(r.layers).c_str(), JsonString(r.registry_dump).c_str());
  return 0;
}

}  // namespace
}  // namespace vcbench

int main(int argc, char** argv) { return vcbench::Main(argc, argv); }
