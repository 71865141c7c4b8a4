// Correctness checks over plain records the benchmark builds from its own
// generator log and from LISTs of the tenant and super clusters. They take
// no program types, so the self-tests can feed them synthetic inputs and
// show each check fails on the fault it exists to catch.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vcbench {

// (tenant id, pod name) — every pod the generator created lives in its
// tenant's "default" namespace.
using PodId = std::pair<std::string, std::string>;

// One super-cluster pod as the checks see it.
struct ShadowPod {
  std::string tenant;  // value of the tenant label ("" = not a shadow)
  std::string name;
  std::string node;  // spec.nodeName
  int64_t cpu_milli = 0;
  int64_t memory_bytes = 0;
};

struct NodeCap {
  std::string name;
  int64_t cpu_milli = 0;
  int64_t memory_bytes = 0;
};

// What a syncer restart over a converged system did.
struct RestartWrites {
  // Super-store commits during the restart, other than the kubelets' own
  // Node heartbeats (which run on their own timers and are not the syncer's).
  uint64_t super_commits = 0;
  // The fresh syncer's own write counters.
  uint64_t creates = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
};

// Each returns human-readable violations; empty means the check passed.

// Every pod the generator's log says it created was seen Ready.
std::vector<std::string> CheckAllReady(const std::set<PodId>& created,
                                       const std::set<PodId>& ready);
// The super cluster holds exactly one shadow per created tenant pod (matched
// by tenant label and name) and no shadow of a pod nobody created.
std::vector<std::string> CheckShadows(const std::set<PodId>& created,
                                      const std::vector<ShadowPod>& super_pods);
// Every shadow is bound to a node that exists.
std::vector<std::string> CheckBindings(const std::vector<ShadowPod>& super_pods,
                                       const std::vector<NodeCap>& nodes);
// No node's summed pod requests exceed its capacity.
std::vector<std::string> CheckCapacity(const std::vector<ShadowPod>& super_pods,
                                       const std::vector<NodeCap>& nodes);
// A restart over a converged system writes nothing.
std::vector<std::string> CheckRestartQuiet(const RestartWrites& w);

// Runs every check on a clean synthetic input (must pass) and on one seeded
// fault per check (must fail). Returns the failures of the self-test itself.
std::vector<std::string> SelfTestChecks();

}  // namespace vcbench
