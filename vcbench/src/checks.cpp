#include "checks.h"

namespace vcbench {

namespace {

// A failing run can produce thousands of identical findings; the first few
// and a count are what a reader needs.
constexpr size_t kMaxListed = 8;

void Add(std::vector<std::string>* out, size_t* total, std::string v) {
  if (++*total <= kMaxListed) out->push_back(std::move(v));
}

void Summarize(std::vector<std::string>* out, size_t total) {
  if (total > kMaxListed) {
    out->push_back("... " + std::to_string(total - kMaxListed) + " more");
  }
}

std::string Name(const PodId& id) { return id.first + "/" + id.second; }

}  // namespace

std::vector<std::string> CheckAllReady(const std::set<PodId>& created,
                                       const std::set<PodId>& ready) {
  std::vector<std::string> out;
  size_t n = 0;
  for (const PodId& id : created) {
    if (!ready.count(id)) Add(&out, &n, "pod never Ready: " + Name(id));
  }
  Summarize(&out, n);
  return out;
}

std::vector<std::string> CheckShadows(const std::set<PodId>& created,
                                      const std::vector<ShadowPod>& super_pods) {
  std::map<PodId, int> shadows;
  for (const ShadowPod& p : super_pods) {
    if (!p.tenant.empty()) shadows[{p.tenant, p.name}]++;
  }
  std::vector<std::string> out;
  size_t n = 0;
  for (const PodId& id : created) {
    auto it = shadows.find(id);
    const int count = it == shadows.end() ? 0 : it->second;
    if (count != 1) {
      Add(&out, &n, Name(id) + " has " + std::to_string(count) + " shadows");
    }
  }
  for (const auto& [id, count] : shadows) {
    if (!created.count(id)) {
      Add(&out, &n, "shadow of a pod never created: " + Name(id) + " (x" +
                        std::to_string(count) + ")");
    }
  }
  Summarize(&out, n);
  return out;
}

std::vector<std::string> CheckBindings(const std::vector<ShadowPod>& super_pods,
                                       const std::vector<NodeCap>& nodes) {
  std::set<std::string> names;
  for (const NodeCap& node : nodes) names.insert(node.name);
  std::vector<std::string> out;
  size_t n = 0;
  for (const ShadowPod& p : super_pods) {
    if (p.tenant.empty()) continue;
    if (p.node.empty()) {
      Add(&out, &n, "shadow unbound: " + p.tenant + "/" + p.name);
    } else if (!names.count(p.node)) {
      Add(&out, &n, "shadow bound to missing node " + p.node + ": " + p.tenant +
                        "/" + p.name);
    }
  }
  Summarize(&out, n);
  return out;
}

std::vector<std::string> CheckCapacity(const std::vector<ShadowPod>& super_pods,
                                       const std::vector<NodeCap>& nodes) {
  std::map<std::string, std::pair<int64_t, int64_t>> used;
  for (const ShadowPod& p : super_pods) {
    if (p.node.empty()) continue;
    auto& u = used[p.node];
    u.first += p.cpu_milli;
    u.second += p.memory_bytes;
  }
  std::vector<std::string> out;
  size_t n = 0;
  for (const NodeCap& node : nodes) {
    auto it = used.find(node.name);
    if (it == used.end()) continue;
    if (it->second.first > node.cpu_milli || it->second.second > node.memory_bytes) {
      Add(&out, &n, "node " + node.name + " over capacity: cpu " +
                        std::to_string(it->second.first) + "/" +
                        std::to_string(node.cpu_milli) + "m, memory " +
                        std::to_string(it->second.second) + "/" +
                        std::to_string(node.memory_bytes));
    }
  }
  Summarize(&out, n);
  return out;
}

std::vector<std::string> CheckRestartQuiet(const RestartWrites& w) {
  std::vector<std::string> out;
  if (w.super_commits != 0) {
    out.push_back("restart committed " + std::to_string(w.super_commits) +
                  " super-store writes");
  }
  if (w.creates + w.updates + w.deletes != 0) {
    out.push_back("restart wrote: " + std::to_string(w.creates) + " creates, " +
                  std::to_string(w.updates) + " updates, " +
                  std::to_string(w.deletes) + " deletes");
  }
  return out;
}

std::vector<std::string> SelfTestChecks() {
  const std::set<PodId> created = {{"t0", "a"}, {"t0", "b"}, {"t1", "a"}};
  const std::vector<NodeCap> nodes = {{"n0", 1000, 1000}, {"n1", 1000, 1000}};
  const std::vector<ShadowPod> clean = {{"t0", "a", "n0", 400, 400},
                                        {"t0", "b", "n1", 400, 400},
                                        {"t1", "a", "n0", 600, 600},
                                        {"", "system-pod", "n1", 100, 100}};
  const RestartWrites quiet{};

  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back("checker self-test: " + what);
  };
  expect(CheckAllReady(created, created).empty(), "all-ready rejects a clean run");
  expect(CheckShadows(created, clean).empty(), "shadows rejects a clean run");
  expect(CheckBindings(clean, nodes).empty(), "bindings rejects a clean run");
  expect(CheckCapacity(clean, nodes).empty(), "capacity rejects a clean run");
  expect(CheckRestartQuiet(quiet).empty(), "restart rejects a quiet restart");

  std::set<PodId> ready = created;
  ready.erase({"t1", "a"});
  expect(!CheckAllReady(created, ready).empty(), "all-ready misses a pod never Ready");

  std::vector<ShadowPod> missing = clean;
  missing.erase(missing.begin() + 1);
  expect(!CheckShadows(created, missing).empty(), "shadows misses a missing shadow");
  std::vector<ShadowPod> duplicated = clean;
  duplicated.push_back({"t0", "a", "n1", 400, 400});
  expect(!CheckShadows(created, duplicated).empty(),
         "shadows misses a duplicated shadow");
  std::vector<ShadowPod> stray = clean;
  stray.push_back({"t1", "zz", "n1", 1, 1});
  expect(!CheckShadows(created, stray).empty(), "shadows misses a stray shadow");

  std::vector<ShadowPod> unbound = clean;
  unbound[0].node.clear();
  expect(!CheckBindings(unbound, nodes).empty(), "bindings misses an unbound shadow");
  std::vector<ShadowPod> ghost = clean;
  ghost[0].node = "n9";
  expect(!CheckBindings(ghost, nodes).empty(),
         "bindings misses a shadow on a missing node");

  std::vector<ShadowPod> double_booked = clean;
  double_booked[1].node = "n0";  // 400 + 400 + 600 > 1000
  expect(!CheckCapacity(double_booked, nodes).empty(),
         "capacity misses a double-booked node");

  for (int field = 0; field < 4; ++field) {
    RestartWrites w = quiet;
    if (field == 0) w.super_commits = 1;
    if (field == 1) w.creates = 1;
    if (field == 2) w.updates = 1;
    if (field == 3) w.deletes = 1;
    expect(!CheckRestartQuiet(w).empty(),
           "restart misses a write (case " + std::to_string(field) + ")");
  }
  return failures;
}

}  // namespace vcbench
