// The benchmark's workloads over one in-process VcDeployment per round.
//
// A round builds a fresh deployment with every modeled cost at zero,
// provisions the tenants (timed as set-up), drives the workload's pods to
// Ready, restarts the syncer over the converged system, and checks the
// outputs. A run repeats whole rounds until its time is used and reports
// medians over rounds (pooled samples for latency percentiles).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "stats.h"

namespace vcbench {

// Workload shapes; see README.md for why each exists.
struct WorkloadSpec {
  int tenants = 20;
  int pods_per_tenant = 0;    // burst: pods each tenant creates at once
  int steady_pods = 0;        // steady: total pods of the open loop
  double steady_rate = 0;     // steady: pods/s offered
};

// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadSpec* out);

struct RoundResult {
  double setup_s = 0;
  double provision_ms_per_tenant = 0;
  std::vector<double> ready_ms;  // every pod's ready latency (ms)
  double throughput = 0;         // pods/s
  double cpu_ms_per_pod = 0;
  double cache_kb_per_pod = 0;
  double resync_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  // Per-layer numbers; filled only on traced rounds.
  MetricMap layers;
  std::string registry_dump;
};

// Runs one round. `traced` turns on the trace collector and the layer probes.
RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, int round, bool traced);

}  // namespace vcbench
