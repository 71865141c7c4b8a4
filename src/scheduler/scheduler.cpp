#include "scheduler/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace vc::scheduler {

namespace {

bool IsTerminal(const api::Pod& pod) {
  return pod.status.phase == api::PodPhase::kSucceeded ||
         pod.status.phase == api::PodPhase::kFailed;
}

bool NeedsScheduling(const api::Pod& pod) {
  return pod.spec.node_name.empty() && !pod.meta.deleting() && !IsTerminal(pod) &&
         (pod.spec.scheduler_name.empty() || pod.spec.scheduler_name == "default-scheduler");
}

bool HasAffinityTerms(const api::Pod& pod) {
  return !pod.spec.required_anti_affinity.empty() || !pod.spec.required_affinity.empty();
}

// Retry backoff for an unschedulable pod: 10 ms doubling to this cap, so a
// pod waiting for capacity is retried at least five times a second.
constexpr Duration kUnschedulableBackoffMax = Millis(200);

controllers::Reconciler::Options LoopOptions(const Scheduler::Options& opts) {
  controllers::Reconciler::Options o;
  o.name = opts.name;
  o.clock = opts.clock;
  o.workers = 1;  // sequential, like the default kube-scheduler (§IV-A)
  o.fair = false;
  o.backoff_base = Millis(10);
  o.backoff_max = kUnschedulableBackoffMax;
  return o;
}

}  // namespace

Scheduler::Scheduler(Options opts)
    : opts_(std::move(opts)),
      loop_(LoopOptions(opts_), controllers::Reconciler::SyncFn(
                                    [this](const std::string& key) { return ScheduleOne(key); })) {
  pod_informer_ = std::make_unique<client::SharedInformer<api::Pod>>(
      client::ListerWatcher<api::Pod>(opts_.server, "",
                                      apiserver::RequestContext::System("scheduler")));
  node_informer_ = std::make_unique<client::SharedInformer<api::Node>>(
      client::ListerWatcher<api::Node>(opts_.server, "",
                                       apiserver::RequestContext::System("scheduler")));

  client::EventHandlers<api::Pod> h;
  h.on_add = [this](const api::Pod& pod) {
    ObservePod(nullptr, std::make_shared<const api::Pod>(pod));
    if (NeedsScheduling(pod)) loop_.Enqueue(pod.meta.FullName());
  };
  h.on_update = [this](const api::Pod& old_pod, const api::Pod& new_pod) {
    ObservePod(std::make_shared<const api::Pod>(old_pod),
               std::make_shared<const api::Pod>(new_pod));
    if (NeedsScheduling(new_pod)) loop_.Enqueue(new_pod.meta.FullName());
  };
  h.on_delete = [this](const api::Pod& pod) {
    ObservePod(std::make_shared<const api::Pod>(pod), nullptr);
  };
  pod_informer_->AddHandlers(std::move(h));
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  node_informer_->Start();
  pod_informer_->Start();
  loop_.Start();
}

void Scheduler::Stop() {
  loop_.Stop();
  pod_informer_->Stop();
  node_informer_->Stop();
}

bool Scheduler::WaitForSync(Duration timeout) {
  return pod_informer_->WaitForSync(timeout) && node_informer_->WaitForSync(timeout);
}

size_t Scheduler::assigned_pods() const {
  std::lock_guard<std::mutex> l(cache_mu_);
  return assigned_count_;
}

void Scheduler::ObservePod(const PodPtr& old_pod, const PodPtr& new_pod) {
  auto assigned = [](const PodPtr& p) {
    return p && !p->spec.node_name.empty() && !IsTerminal(*p);
  };
  std::lock_guard<std::mutex> l(cache_mu_);
  if (assigned(old_pod)) {
    auto it = assignments_.find(old_pod->spec.node_name);
    if (it != assignments_.end()) {
      auto pit = it->second.pods.find(old_pod->meta.FullName());
      if (pit != it->second.pods.end()) {
        it->second.requested -= pit->second->spec.TotalRequests();
        it->second.pods.erase(pit);
        assigned_count_--;
      }
    }
  }
  if (assigned(new_pod)) {
    NodeState& state = assignments_[new_pod->spec.node_name];
    auto [pit, inserted] = state.pods.try_emplace(new_pod->meta.FullName(), new_pod);
    if (inserted) {
      state.requested += new_pod->spec.TotalRequests();
      assigned_count_++;
    } else {
      // Replace, adjusting the request sum in case the spec changed.
      state.requested -= pit->second->spec.TotalRequests();
      pit->second = new_pod;
      state.requested += new_pod->spec.TotalRequests();
    }
  }
}

bool Scheduler::ScheduleOne(const std::string& key) {
  PodPtr pod = pod_informer_->cache().GetByKey(key);
  if (!pod || !NeedsScheduling(*pod)) return true;

  Stopwatch cycle(opts_.clock);
  std::vector<std::shared_ptr<const api::Node>> nodes = node_informer_->cache().List();

  // Modeled CPU cost of one sequential scheduling cycle (see header).
  size_t resident;
  {
    std::lock_guard<std::mutex> l(cache_mu_);
    resident = assigned_count_;
  }
  Duration cost = opts_.cost.per_pod_base +
                  opts_.cost.per_node_filter * static_cast<int64_t>(nodes.size()) +
                  opts_.cost.per_resident_pod * static_cast<int64_t>(resident);
  opts_.clock->SleepFor(cost);

  const bool full_scan = HasAffinityTerms(*pod);
  const api::Node* best = nullptr;
  double best_score = -1;
  std::string last_reason = "no nodes available";
  {
    std::lock_guard<std::mutex> l(cache_mu_);
    for (const auto& node : nodes) {
      NodeInfo info;
      info.node = node;
      auto it = assignments_.find(node->meta.name);
      if (it != assignments_.end()) {
        info.requested = it->second.requested;
        // Resident pods are only materialized when (anti-)affinity must be
        // evaluated; symmetric anti-affinity additionally requires scanning
        // residents that carry terms, so we include all residents whenever
        // any filtering on them is possible.
        if (full_scan) {
          info.pods.reserve(it->second.pods.size());
          for (const auto& [k, p] : it->second.pods) info.pods.push_back(p);
        } else {
          for (const auto& [k, p] : it->second.pods) {
            if (!p->spec.required_anti_affinity.empty()) info.pods.push_back(p);
          }
        }
      }
      std::string reason = FilterNode(*pod, info);
      if (!reason.empty()) {
        last_reason = std::move(reason);
        continue;
      }
      double score = ScoreNode(*pod, info);
      if (score > best_score ||
          (score == best_score && best && node->meta.name < best->meta.name)) {
        best_score = score;
        best = node.get();
      }
    }
  }

  if (best == nullptr) {
    failed_attempts_.fetch_add(1);
    VLOG(2) << opts_.name << ": pod " << key << " unschedulable: " << last_reason;
    return false;
  }

  const std::string node_name = best->meta.name;
  bool bound = false;
  const apiserver::RequestContext ctx = apiserver::RequestContext::System("scheduler");
  Status st = apiserver::RetryUpdate<api::Pod>(
      *opts_.server, pod->meta.ns, pod->meta.name,
      [&](api::Pod& live) {
        if (!live.spec.node_name.empty() || live.meta.deleting()) return false;
        live.spec.node_name = node_name;
        live.status.SetCondition(api::kPodScheduled, true,
                                 opts_.clock->WallUnixMillis(), "Scheduled");
        bound = true;
        return true;
      },
      ctx);
  if (!st.ok()) {
    if (st.IsNotFound()) return true;  // pod vanished
    failed_attempts_.fetch_add(1);
    VLOG(1) << opts_.name << ": bind failed for " << key << ": " << st;
    return false;
  }
  if (bound) {
    // Assume the bind immediately (like the real scheduler's assume cache)
    // so back-to-back cycles see up-to-date occupancy before the informer
    // echo arrives.
    api::Pod assumed = *pod;
    assumed.spec.node_name = node_name;
    ObservePod(pod, std::make_shared<const api::Pod>(assumed));
    scheduled_.fetch_add(1);
    bind_latency_.Record(cycle.Elapsed());
  }
  return true;
}

}  // namespace vc::scheduler
