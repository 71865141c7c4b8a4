#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "common/hash.h"
#include "common/metrics.h"
#include "probes.h"
#include "trace_collector.h"
#include "vc/deployment.h"
#include "vc/syncer/conversion.h"

namespace vcbench {

namespace vcc = vc::core;
using vc::api::Pod;

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec s;
  if (name == "steady") {
    s.steady_pods = 1000;
    s.steady_rate = 250;
  } else if (name == "burst") {
    s.pods_per_tenant = 50;
  } else {
    return false;
  }
  *out = s;
  return true;
}

namespace {

// The paper's super cluster has 100 virtual kubelets (§IV).
constexpr int kNodes = 100;
constexpr vc::Duration kSyncTimeout = vc::Seconds(60);
// Longest a round waits for its pods after the last create; a healthy round
// needs a few seconds.
constexpr double kReadyTimeoutUs = 60e6;
constexpr int kRestarts = 3;

// nproc: the CPUs this process may run on.
int GeneratorThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// Every modeled cost is zero, so each measured microsecond is the program's
// own work (see README.md).
vcc::VcDeployment::Options DeploymentOptions() {
  vcc::VcDeployment::Options o;
  o.super.num_nodes = kNodes;
  o.super.sched_cost.per_pod_base = vc::Duration::zero();
  o.super.sched_cost.per_node_filter = vc::Duration::zero();
  o.super.sched_cost.per_resident_pod = vc::Duration::zero();
  o.super.kubelet_workers = 1;
  o.super.kubelet_heartbeat = vc::Seconds(5);
  o.super.vn_agents = false;
  o.downward_workers = 20;
  o.upward_workers = 100;
  o.fair_queuing = true;
  o.periodic_scan = false;
  o.downward_op_cost = vc::Duration::zero();
  o.upward_op_cost = vc::Duration::zero();
  o.heartbeat_broadcast_period = vc::Seconds(30);
  o.local_provision_delay = vc::Duration::zero();
  o.tenant_controllers = false;
  return o;
}

vcc::Syncer::Options SyncerOptions(vc::apiserver::APIServer* super_server) {
  const vcc::VcDeployment::Options d = DeploymentOptions();
  vcc::Syncer::Options so;
  so.super_server = super_server;
  so.downward_workers = d.downward_workers;
  so.upward_workers = d.upward_workers;
  so.fair_queuing = d.fair_queuing;
  so.periodic_scan = d.periodic_scan;
  so.downward_op_cost = d.downward_op_cost;
  so.upward_op_cost = d.upward_op_cost;
  so.heartbeat_broadcast_period = d.heartbeat_broadcast_period;
  return so;
}

std::string TenantName(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tenant-%03d", i);
  return buf;
}

// A pod whose shape (containers, image, requests, labels) is drawn from the
// tenant's seeded generator.
Pod MakePod(std::mt19937_64& rng, const std::string& name) {
  static const char* kImages[] = {"nginx:1.19", "redis:6.0", "busybox:1.32",
                                  "envoy:1.16", "postgres:13"};
  Pod p;
  p.meta.ns = "default";
  p.meta.name = name;
  p.meta.labels["app"] = "app-" + std::to_string(rng() % 16);
  p.meta.labels["tier"] = (rng() % 2) ? "web" : "batch";
  const int containers = 1 + static_cast<int>(rng() % 2);
  for (int c = 0; c < containers; ++c) {
    vc::api::Container k;
    k.name = "c" + std::to_string(c);
    k.image = kImages[rng() % 5];
    k.requests.cpu_milli = 50 * static_cast<int64_t>(1 + rng() % 10);
    k.requests.memory_bytes = (64ll << 20) * static_cast<int64_t>(1 + rng() % 8);
    k.limits = k.requests;
    p.spec.containers.push_back(k);
  }
  return p;
}

vc::api::ResourceList PodRequests(const Pod& p) {
  vc::api::ResourceList r;
  for (const vc::api::Container& c : p.spec.containers) r += c.requests;
  return r;
}

// The registry uniquifies block names ("syncer-downward#3"); the live block
// of a name is the one registered last.
std::string BaseBlock(const std::string& block) {
  return block.substr(0, block.find('#'));
}
int BlockIndex(const std::string& block) {
  size_t hash = block.find('#');
  return hash == std::string::npos ? 1 : std::atoi(block.c_str() + hash + 1);
}

// Latest-registered block per base name → its metrics.
std::map<std::string, std::map<std::string, double>> LatestBlocks() {
  std::map<std::string, std::pair<int, std::map<std::string, double>>> by_base;
  std::map<std::string, std::map<std::string, double>> by_block;
  for (const auto& [name, value] : vc::MetricsRegistry::Global().Collect()) {
    size_t dot = name.find('.');
    if (dot == std::string::npos) continue;
    by_block[name.substr(0, dot)][name.substr(dot + 1)] = value;
  }
  for (auto& [block, metrics] : by_block) {
    auto& slot = by_base[BaseBlock(block)];
    if (BlockIndex(block) >= slot.first) slot = {BlockIndex(block), metrics};
  }
  std::map<std::string, std::map<std::string, double>> out;
  for (auto& [base, slot] : by_base) out[base] = std::move(slot.second);
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

struct TenantRun {
  std::string id;
  std::shared_ptr<vcc::TenantControlPlane> tcp;
  vc::apiserver::RequestContext ctx;
  vc::apiserver::TypedWatch<Pod> watch;
  std::atomic<bool> dirty{false};

  std::mutex mu;  // guards everything below
  std::mt19937_64 rng;
  int next_seq = 0;
  std::map<std::string, double> pending;  // name -> latency start (µs)
  std::set<std::string> created;          // the generator's log
  std::vector<double> create_us;
};

class Round {
 public:
  Round(const WorkloadSpec& spec, uint64_t seed, int round, bool traced)
      : spec_(spec), seed_(seed), round_(round), traced_(traced) {}

  RoundResult Run();

 private:
  void Setup();
  void OpenWatches();
  void Submit(TenantRun& t, double start_us);
  void ObserverLoop();
  void OnReady(TenantRun& t, const std::string& name, double now_us);
  void Drive();
  void AwaitReady();
  void RestartSyncer();
  void CheckOutputs();
  // Per-layer numbers of a traced round: program counters read before the
  // restart disturbs them, then the trace, the restart and the probes.
  void CollectCounters();
  void CollectTraceAndProbes(const TraceSummary& trace);
  void Violation(std::string v) { out_.violations.push_back(std::move(v)); }

  const WorkloadSpec spec_;
  const uint64_t seed_;
  const int round_;
  const bool traced_;
  RoundResult out_;

  std::unique_ptr<vcc::VcDeployment> deploy_;
  std::vector<std::unique_ptr<TenantRun>> tenants_;

  // Observer state: written by the observer thread only, read after join.
  std::set<PodId> ready_set_;
  std::vector<double> ready_ms_;
  double last_ready_us_ = 0;
  std::vector<std::string> observer_errors_;

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> ready_total_{0};

  std::mutex obs_mu_;
  std::condition_variable obs_cv_;
  bool obs_signal_ = false;
  bool obs_stop_ = false;

  // Measured window and per-layer raw numbers.
  double start_us_ = 0;
  double cpu_start_ms_ = 0;
  double cpu_end_ms_ = 0;
  double syncer_cpu_start_ms_ = 0;
  int64_t super_rev_start_ = 0;
  uint64_t super_requests_start_ = 0;
  uint64_t conflicts_start_ = 0;
  size_t dws_depth_max_ = 0;
  std::vector<double> lateness_ms_;  // steady's sender only, read after join
  vcc::Syncer::ScanRound scan_;
  uint64_t restart_reconciles_ = 0;
  std::vector<vc::api::Pod> super_pods_;
};

void Round::Setup() {
  const double t0 = NowUs();
  deploy_ = std::make_unique<vcc::VcDeployment>(DeploymentOptions());
  vc::Status st = deploy_->Start();
  if (!st.ok()) {
    Violation("deployment start failed: " + st.ToString());
    return;
  }
  if (!deploy_->WaitForSync(kSyncTimeout)) Violation("super cluster never synced");
  const double t1 = NowUs();
  for (int i = 0; i < spec_.tenants; ++i) {
    auto tcp = deploy_->CreateTenant(TenantName(i), 1, "Local", kSyncTimeout);
    if (!tcp.ok()) {
      Violation("tenant provisioning failed: " + tcp.status().ToString());
      return;
    }
    auto t = std::make_unique<TenantRun>();
    t->id = TenantName(i);
    t->tcp = *tcp;
    t->ctx = t->tcp->TenantContext();
    t->rng.seed(vc::Fnv1a64(std::to_string(seed_) + "/" + std::to_string(round_) + "/" +
                            t->id));
    tenants_.push_back(std::move(t));
  }
  if (!deploy_->WaitForSync(kSyncTimeout)) Violation("tenants never synced");
  const double t2 = NowUs();
  out_.setup_s = (t2 - t0) / 1e6;
  out_.provision_ms_per_tenant = (t2 - t1) / 1e3 / spec_.tenants;
}

void Round::OpenWatches() {
  for (auto& t : tenants_) {
    vc::apiserver::ListOptions lo;
    lo.ns = "default";
    auto listed = t->tcp->server().List<Pod>(lo, t->ctx);
    vc::apiserver::WatchOptions wo;
    wo.ns = "default";
    wo.from_revision = listed.ok() ? listed->revision : 0;
    auto w = t->tcp->server().Watch<Pod>(wo, t->ctx);
    if (!w.ok()) {
      Violation("tenant watch failed: " + w.status().ToString());
      continue;
    }
    t->watch = std::move(*w);
    TenantRun* tp = t.get();
    t->watch.SetSignal([this, tp] {
      tp->dirty.store(true);
      {
        std::lock_guard<std::mutex> l(obs_mu_);
        obs_signal_ = true;
      }
      obs_cv_.notify_one();
    });
  }
}

void Round::Submit(TenantRun& t, double start_us) {
  Pod pod;
  std::string name;
  {
    std::lock_guard<std::mutex> l(t.mu);
    name = "pod-" + std::to_string(t.next_seq++);
    pod = MakePod(t.rng, name);
    t.pending[name] = start_us;
    t.created.insert(name);
  }
  attempted_.fetch_add(1);
  const double c0 = NowUs();
  vc::Result<Pod> r = t.tcp->server().Create(std::move(pod), t.ctx);
  const double c1 = NowUs();
  std::lock_guard<std::mutex> l(t.mu);
  t.create_us.push_back(c1 - c0);
  if (!r.ok()) {
    t.pending.erase(name);
    t.created.erase(name);
    if (failed_.fetch_add(1) == 0) {
      std::fprintf(stderr, "create %s/%s failed: %s\n", t.id.c_str(), name.c_str(),
                   r.status().ToString().c_str());
    }
  }
}

void Round::OnReady(TenantRun& t, const std::string& name, double now_us) {
  double start = 0;
  {
    std::lock_guard<std::mutex> l(t.mu);
    auto it = t.pending.find(name);
    if (it == t.pending.end()) return;  // a later status write of a Ready pod
    start = it->second;
    t.pending.erase(it);
  }
  ready_set_.insert({t.id, name});
  ready_ms_.push_back((now_us - start) / 1e3);
  last_ready_us_ = now_us;
  ready_total_.fetch_add(1);
}

void Round::ObserverLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> l(obs_mu_);
      obs_cv_.wait_for(l, std::chrono::milliseconds(2),
                       [this] { return obs_signal_ || obs_stop_; });
      if (obs_stop_) return;
      obs_signal_ = false;
    }
    for (auto& t : tenants_) {
      if (!t->dirty.exchange(false)) continue;
      for (;;) {
        vc::Result<vc::apiserver::WatchEvent<Pod>> ev = t->watch.TryNext();
        if (!ev.ok()) {
          if (ev.status().code() != vc::Code::kTimeout &&
              observer_errors_.size() < 4) {
            observer_errors_.push_back("tenant watch of " + t->id +
                                       " died: " + ev.status().ToString());
          }
          break;
        }
        if (ev->type != vc::apiserver::WatchEvent<Pod>::Type::kPut) continue;
        if (!ev->object.status.Ready()) continue;
        OnReady(*t, ev->object.meta.name, NowUs());
      }
    }
  }
}

void Round::Drive() {
  const int threads = GeneratorThreads();
  std::vector<std::thread> gens;
  start_us_ = NowUs();
  cpu_start_ms_ = ProcessCpuMs();
  if (spec_.steady_pods > 0) {
    // Open loop: pod i is due at start + i/rate and is timed from then, so a
    // generator stall is charged to the pods it delays.
    // One sender keeps up: a Create costs tens of µs against a 4 ms interval.
    const double interval_us = 1e6 / spec_.steady_rate;
    gens.emplace_back([this, interval_us] {
      for (int i = 0; i < spec_.steady_pods; ++i) {
        const double due = start_us_ + i * interval_us;
        const double wait = due - NowUs();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(wait));
        }
        lateness_ms_.push_back((NowUs() - due) / 1e3);
        Submit(*tenants_[static_cast<size_t>(i) % tenants_.size()], due);
      }
    });
  } else {
    // Burst: every tenant's pods are created at once, interleaved across
    // tenants, from nproc threads; each pod is timed from its submission.
    const int total = spec_.tenants * spec_.pods_per_tenant;
    for (int g = 0; g < threads; ++g) {
      gens.emplace_back([this, g, total, threads] {
        for (int i = g; i < total; i += threads) {
          Submit(*tenants_[static_cast<size_t>(i) % tenants_.size()], NowUs());
        }
      });
    }
  }
  for (std::thread& t : gens) t.join();
}

void Round::AwaitReady() {
  const double gen_end = NowUs();
  for (;;) {
    dws_depth_max_ = std::max(dws_depth_max_, deploy_->syncer().DownwardQueueLen());
    if (ready_total_.load() + failed_.load() == attempted_.load()) break;
    if (NowUs() - gen_end > kReadyTimeoutUs) {
      Violation("timed out waiting for pods to become Ready");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  cpu_end_ms_ = ProcessCpuMs();
}

void Round::RestartSyncer() {
  vc::apiserver::APIServer& super = deploy_->super().server();
  auto vcs = super.List<vcc::VirtualClusterObj>();
  if (!vcs.ok()) {
    Violation("listing VirtualClusters failed: " + vcs.status().ToString());
    return;
  }
  // Every super-store commit from here until the restart has drained.
  auto commits = super.store().Watch("/registry/", super.store().CurrentRevision(),
                                     size_t{1} << 20);
  if (!commits.ok()) {
    Violation("super store watch failed: " + commits.status().ToString());
    return;
  }
  deploy_->syncer().Stop();

  // The restart: a fresh syncer attached to the same tenants relists both
  // sides and re-reconciles every object. It is drained when its queues are
  // empty and its reconcile counters stop moving. One restart takes a few
  // hundred ms on one CPU and moves by a third from one to the next, so the
  // round restarts kRestarts times and reports the median.
  std::unique_ptr<vcc::Syncer> fresh;
  std::vector<double> took;
  RestartWrites w;
  for (int i = 0; i < kRestarts; ++i) {
    if (fresh) fresh->Stop();
    const double t0 = NowUs();
    fresh = std::make_unique<vcc::Syncer>(SyncerOptions(&super));
    for (const vcc::VirtualClusterObj& obj : vcs->items) {
      std::shared_ptr<vcc::TenantControlPlane> tcp = deploy_->Tenant(obj.meta.name);
      if (tcp) fresh->AttachTenant(obj, tcp.get());
    }
    fresh->Start();
    if (!fresh->WaitForSync(kSyncTimeout)) Violation("restarted syncer never synced");
    vcc::SyncerMetrics& m = fresh->metrics();
    auto reconciles = [&m] {
      return m.downward_creates.load() + m.downward_updates.load() +
             m.downward_deletes.load() + m.downward_noops.load() +
             m.upward_updates.load() + m.upward_noops.load();
    };
    uint64_t last = reconciles();
    double last_change = NowUs();
    while (NowUs() - last_change < 20e3) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const uint64_t now = reconciles();
      const bool idle = fresh->DownwardQueueLen() == 0 && fresh->UpwardQueueLen() == 0;
      if (now != last || !idle) {
        last = now;
        last_change = NowUs();
      }
    }
    took.push_back((last_change - t0) / 1e6);
    restart_reconciles_ = last;
    w.creates += m.downward_creates.load();
    w.updates += m.downward_updates.load() + m.upward_updates.load();
    w.deletes += m.downward_deletes.load();
  }
  out_.resync_s = Median(took);

  super.store().FlushWatchDispatch();
  while (std::optional<vc::kv::Event> e = (*commits)->TryNext()) {
    if (e->key.rfind("/registry/Node/", 0) != 0) w.super_commits++;
  }
  if (!(*commits)->ok()) Violation("super store watch died during the restart");
  (*commits)->Cancel();
  for (std::string& v : CheckRestartQuiet(w)) Violation(std::move(v));

  scan_ = fresh->ScanAllTenants();
  fresh->Stop();
}

void Round::CheckOutputs() {
  std::set<PodId> created;
  for (auto& t : tenants_) {
    std::lock_guard<std::mutex> l(t->mu);
    for (const std::string& name : t->created) created.insert({t->id, name});
  }
  vc::apiserver::APIServer& super = deploy_->super().server();
  auto pods = super.List<Pod>();
  auto nodes = super.List<vc::api::Node>();
  if (!pods.ok() || !nodes.ok()) {
    Violation("listing the super cluster failed");
    return;
  }
  std::vector<ShadowPod> shadows;
  for (const Pod& p : pods->items) {
    ShadowPod s;
    auto label = p.meta.labels.find(vcc::kTenantLabel);
    if (label != p.meta.labels.end()) s.tenant = label->second;
    s.name = p.meta.name;
    s.node = p.spec.node_name;
    const vc::api::ResourceList r = PodRequests(p);
    s.cpu_milli = r.cpu_milli;
    s.memory_bytes = r.memory_bytes;
    shadows.push_back(std::move(s));
  }
  std::vector<NodeCap> caps;
  for (const vc::api::Node& n : nodes->items) {
    const vc::api::ResourceList& a =
        n.status.allocatable.cpu_milli > 0 ? n.status.allocatable : n.status.capacity;
    caps.push_back({n.meta.name, a.cpu_milli, a.memory_bytes});
  }
  for (std::string& v : CheckAllReady(created, ready_set_)) Violation(std::move(v));
  for (std::string& v : CheckShadows(created, shadows)) Violation(std::move(v));
  for (std::string& v : CheckBindings(shadows, caps)) Violation(std::move(v));
  for (std::string& v : CheckCapacity(shadows, caps)) Violation(std::move(v));
  super_pods_ = std::move(pods->items);
}

RoundResult Round::Run() {
  const int drain_cpu = traced_ ? ReserveDrainCpu() : -1;
  Setup();
  if (!out_.violations.empty()) return out_;
  OpenWatches();

  vcc::Syncer& syncer = deploy_->syncer();
  vc::apiserver::APIServer& super = deploy_->super().server();
  syncer.metrics().ResetHistograms();
  syncer_cpu_start_ms_ = vc::ToMillis(syncer.WorkerCpuTime());
  super_rev_start_ = super.store().CurrentRevision();
  const vc::apiserver::ServerStats& ss = super.stats();
  super_requests_start_ = ss.creates + ss.gets + ss.lists + ss.updates + ss.deletes;
  conflicts_start_ = ss.conflicts;

  std::unique_ptr<TraceCollector> collector;
  if (traced_) collector = std::make_unique<TraceCollector>(drain_cpu);
  std::thread observer([this] { ObserverLoop(); });
  Drive();
  AwaitReady();
  {
    std::lock_guard<std::mutex> l(obs_mu_);
    obs_stop_ = true;
  }
  obs_cv_.notify_one();
  observer.join();
  for (auto& t : tenants_) {
    t->watch.SetSignal(nullptr);
    t->watch.Cancel();
  }
  if (collector) collector->Stop();
  for (std::string& e : observer_errors_) Violation(std::move(e));

  const double pods = static_cast<double>(ready_total_.load());
  if (pods > 0) {
    out_.throughput = pods / ((last_ready_us_ - start_us_) / 1e6);
    out_.cpu_ms_per_pod = (cpu_end_ms_ - cpu_start_ms_) / pods;
    out_.cache_kb_per_pod =
        static_cast<double>(syncer.InformerCacheBytes() + syncer.QueuedKeyBytes()) /
        1024.0 / pods;
  }
  out_.ready_ms = ready_ms_;
  out_.attempted = attempted_.load();
  out_.failed = attempted_.load() - ready_total_.load();  // refused or never Ready

  if (traced_) CollectCounters();
  RestartSyncer();
  CheckOutputs();
  if (traced_) {
    CollectTraceAndProbes(collector->summary());
    out_.registry_dump = vc::MetricsRegistry::Global().DumpText();
  }
  deploy_->Stop();
  return out_;
}

void Round::CollectCounters() {
  MetricMap& L = out_.layers;
  const double pods = std::max<double>(1, static_cast<double>(ready_total_.load()));
  auto set = [&L](const std::string& name, double v, const char* unit) {
    L[name] = {v, unit};
  };
  vcc::Syncer& syncer = deploy_->syncer();
  vcc::SyncerMetrics& m = syncer.metrics();
  vc::apiserver::APIServer& super = deploy_->super().server();
  const vc::apiserver::ServerStats& ss = super.stats();
  const double ready_mean =
      ready_ms_.empty() ? 0
                        : std::accumulate(ready_ms_.begin(), ready_ms_.end(), 0.0) /
                              static_cast<double>(ready_ms_.size());
  const std::pair<const char*, const vc::Histogram*> phases[] = {
      {"dws_queue", &m.dws_queue},     {"dws_process", &m.dws_process},
      {"super_sched", &m.super_sched}, {"uws_queue", &m.uws_queue},
      {"uws_process", &m.uws_process}};
  for (const auto& [name, h] : phases) {
    set(std::string("syncer.") + name + "_p50_ms", h->PercentileSeconds(50) * 1e3, "ms");
    set(std::string("syncer.") + name + "_share_pct",
        ready_mean > 0 ? h->MeanSeconds() * 1e3 / ready_mean * 100 : 0, "%");
  }
  set("syncer.cpu_ms_per_pod",
      (vc::ToMillis(syncer.WorkerCpuTime()) - syncer_cpu_start_ms_) / pods, "ms");
  set("kv.super_commits_per_pod",
      static_cast<double>(super.store().CurrentRevision() - super_rev_start_) / pods,
      "count");
  const uint64_t requests = ss.creates + ss.gets + ss.lists + ss.updates + ss.deletes;
  set("apiserver.super_requests_per_pod",
      static_cast<double>(requests - super_requests_start_) / pods, "count");
  set("kv.conflicts_per_pod", static_cast<double>(ss.conflicts - conflicts_start_) / pods,
      "count");
  set("client.informer_cache_objects", static_cast<double>(syncer.InformerCacheObjects()),
      "count");
  set("client.dws_queue_depth_max", static_cast<double>(dws_depth_max_), "count");

  auto blocks = LatestBlocks();
  uint64_t retries = 0;
  const std::pair<const char*, const char*> loops[] = {
      {"syncer_down", "syncer-downward"}, {"syncer_up", "syncer-upward"}};
  for (const auto& [label, block] : loops) {
    const auto& b = blocks[block];
    const std::string p = std::string("reconciler.") + label;
    set(p + ".queue_p50_ms", Get(b, "queue_latency_p50_s") * 1e3, "ms");
    set(p + ".reconcile_p50_ms", Get(b, "reconcile_latency_p50_s") * 1e3, "ms");
    set(p + ".retries_per_pod", Get(b, "retries") / pods, "count");
    retries += static_cast<uint64_t>(Get(b, "retries"));
  }
  // The super cluster's own controllers, summed over every loop the
  // controller manager runs.
  double ctl_reconciles = 0, ctl_retries = 0;
  for (const auto& [block, b] : blocks) {
    if (b.count("reconciles") == 0 || block.rfind("syncer", 0) == 0 ||
        block == "tenant-operator") {
      continue;
    }
    ctl_reconciles += Get(b, "reconciles");
    ctl_retries += Get(b, "retries");
  }
  set("reconciler.super_controllers.reconciles_per_pod", ctl_reconciles / pods, "count");
  set("reconciler.super_controllers.retries_per_pod", ctl_retries / pods, "count");

  const uint64_t useful =
      m.downward_creates + m.downward_updates + m.downward_deletes + m.upward_updates;
  const uint64_t total = useful + m.downward_noops + m.upward_noops + retries;
  set("syncer.useful_reconcile_ratio",
      total > 0 ? static_cast<double>(useful) / static_cast<double>(total) : 0, "ratio");

  vc::scheduler::Scheduler* sched = deploy_->super().sched();
  set("scheduler.bind_p50_us", sched->bind_latency().PercentileSeconds(50) * 1e6, "us");
  set("scheduler.failed_per_pod", static_cast<double>(sched->failed_attempts()) / pods,
      "count");
  vc::Histogram starts;
  for (const auto& k : deploy_->super().fleet().kubelets()) starts.Merge(k->start_latency());
  set("kubelet.start_p50_us", starts.PercentileSeconds(50) * 1e6, "us");
  set("operator.provision_ms_per_tenant", out_.provision_ms_per_tenant, "ms");

  std::vector<double> create_us;
  for (auto& t : tenants_) {
    std::lock_guard<std::mutex> l(t->mu);
    create_us.insert(create_us.end(), t->create_us.begin(), t->create_us.end());
  }
  set("apiserver.tenant_create_p50_us", Percentile(create_us, 50), "us");
  set("apiserver.tenant_create_p99_us", Percentile(create_us, 99), "us");
  set("generator.lateness_p50_ms", Percentile(lateness_ms_, 50), "ms");
  set("generator.lateness_p99_ms", Percentile(lateness_ms_, 99), "ms");
}

void Round::CollectTraceAndProbes(const TraceSummary& trace) {
  MetricMap& L = out_.layers;
  const double pods = std::max<double>(1, static_cast<double>(ready_total_.load()));
  auto set = [&L](const std::string& name, double v, const char* unit) {
    L[name] = {v, unit};
  };
  set("syncer.restart_reconciles", static_cast<double>(restart_reconciles_), "count");
  set("syncer.scan_ms", vc::ToMillis(scan_.took), "ms");
  set("syncer.scan_resent", static_cast<double>(scan_.resent), "count");

  set("trace.dropped", static_cast<double>(trace.dropped), "count");
  set("trace.records_per_pod", static_cast<double>(trace.records) / pods, "count");
  auto records = [&trace](const char* component) {
    auto it = trace.records_by_component.find(component);
    return it == trace.records_by_component.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* c : {"apiserver", "dispatch", "kv", "watch", "cache", "reconciler",
                        "syncer", "kubelet"}) {
    set(std::string("trace.records_per_pod.") + c, records(c) / pods, "count");
  }
  const double commits = std::max<double>(1, static_cast<double>(trace.commits));
  set("kv.watch_deliveries_per_commit", static_cast<double>(trace.deliveries) / commits,
      "count");
  set("kv.watch_skips_per_commit", static_cast<double>(trace.skips) / commits, "count");
  // The kubelet's only trace record is its status write.
  set("kubelet.status_writes_per_pod", records("kubelet") / pods, "count");
  set("trace.dispatch_span_p50_us", Percentile(trace.dispatch_span_us, 50), "us");
  const std::pair<const char*, const char*> loops[] = {
      {"syncer_down", "syncer-downward"}, {"syncer_up", "syncer-upward"}};
  for (const auto& [label, name] : loops) {
    const uint64_t key = vc::Fnv1a64(name);
    auto span = trace.reconcile_span_us.find(key);
    auto self = trace.reconcile_self_us.find(key);
    set(std::string("trace.reconcile_span_p50_us.") + label,
        span == trace.reconcile_span_us.end() ? 0 : Percentile(span->second, 50), "us");
    set(std::string("trace.reconcile_self_p50_us.") + label,
        self == trace.reconcile_self_us.end() ? 0 : Percentile(self->second, 50), "us");
  }
  for (const std::string& v : trace.violations) Violation("trace history: " + v);
  if (trace.dropped > 0) {
    Violation("trace window dropped " + std::to_string(trace.dropped) + " records");
  }

  // Layer probes on the round's own objects.
  const Pod* shadow = nullptr;
  std::vector<std::pair<std::string, std::string>> blobs;
  for (const Pod& p : super_pods_) {
    if (p.meta.labels.count(vcc::kTenantLabel) == 0) continue;
    if (shadow == nullptr) shadow = &p;
    blobs.emplace_back(vc::apiserver::APIServer::Key<Pod>(p.meta.ns, p.meta.name),
                       vc::api::Encode(p));
  }
  TenantRun& t0 = *tenants_.back();
  vc::apiserver::ListOptions lo;
  lo.ns = "default";
  std::vector<double> tenant_list, super_list;
  set("api.pod_encode_us", 0, "us");
  set("api.pod_decode_us", 0, "us");
  for (int i = 0; i < 5; ++i) {
    double a = NowUs();
    auto tl = t0.tcp->server().List<Pod>(lo, t0.ctx);
    double b = NowUs();
    auto sl = deploy_->super().server().List<Pod>();
    double c = NowUs();
    if (tl.ok() && sl.ok()) {
      tenant_list.push_back((b - a) / 1e3);
      super_list.push_back((c - b) / 1e3);
    }
    if (i == 0 && tl.ok() && !tl->items.empty()) {
      const CodecProbe pod = ProbeCodec(tl->items.front());
      set("api.pod_encode_us", pod.encode_us, "us");
      set("api.pod_decode_us", pod.decode_us, "us");
    }
  }
  set("apiserver.tenant_list_ms", Median(tenant_list), "ms");
  set("apiserver.super_list_ms", Median(super_list), "ms");
  const CodecProbe cp = shadow != nullptr ? ProbeCodec(*shadow) : CodecProbe{};
  set("api.shadow_encode_us", cp.encode_us, "us");
  set("api.shadow_decode_us", cp.decode_us, "us");
  set("api.pod_bytes", cp.bytes, "bytes");
  set("kv.put_1w_us", ProbeKvPut(blobs, 1), "us");
  set("kv.put_nw_us", ProbeKvPut(blobs, static_cast<int>(std::max(
                                            1u, std::thread::hardware_concurrency()))),
      "us");
}

}  // namespace

RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, int round, bool traced) {
  Round r(spec, seed, round, traced);
  return r.Run();
}

}  // namespace vcbench
