// CrdSyncer<T>: the paper's first future-work item, implemented (§V:
// "adding CRD support in the syncer is a legitimate request and in our
// roadmap").
//
// A per-CRD companion to the main Syncer: synchronizes one custom resource
// type between tenant control planes and the super cluster using the same
// conversion rules (namespace prefixing, origin annotations, downward
// fingerprints). The CRD type participates by providing:
//   static void ClearSuperOwned(T&)            — reset super-owned fields
//   static bool CopyStatus(const T&, T&)       — upward status propagation
// plus the usual kKind/kNamespaced/meta and a Codec<T> specialization.
//
// Header-only (templated); instantiated per CRD type. Both sync loops are
// hosted on the shared reconciler runtime (controllers::Reconciler) like the
// main syncer's, so they get the same fairness, backoff, and metrics for free.
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "client/informer.h"
#include "common/logging.h"
#include "controllers/runtime.h"
#include "vc/syncer/conversion.h"
#include "vc/tenant_control_plane.h"
#include "vc/types.h"

namespace vc::core {

// Attributed identity every CrdSyncer speaks as (leader band, rate-limit
// exempt on tenant apiservers).
inline const apiserver::RequestContext& SyncCtx() {
  static const apiserver::RequestContext ctx =
      apiserver::RequestContext::System("crd-syncer");
  return ctx;
}

template <typename T>
class CrdSyncer {
 public:
  struct Options {
    apiserver::APIServer* super_server = nullptr;
    Clock* clock = RealClock::Get();
    int downward_workers = 4;
    int upward_workers = 4;
    bool fair_queuing = true;
    Duration op_cost = Duration::zero();
  };

  explicit CrdSyncer(Options opts) : opts_(opts) {
    downward_ = std::make_unique<controllers::Reconciler>(
        [&] {
          controllers::Reconciler::Options o;
          o.name = std::string("crd-") + T::kKind + "-downward";
          o.clock = opts_.clock;
          o.workers = opts_.downward_workers;
          o.fair = opts_.fair_queuing;
          o.backoff_base = Millis(10);
          o.backoff_max = Seconds(1);
          return o;
        }(),
        [this](const client::FairQueue::Item& item,
               controllers::Reconciler::Completion done) {
          done(SyncDown(item) ? controllers::ReconcileResult::Done()
                              : controllers::ReconcileResult::Retry());
        });
    upward_ = std::make_unique<controllers::Reconciler>(
        [&] {
          controllers::Reconciler::Options o;
          o.name = std::string("crd-") + T::kKind + "-upward";
          o.clock = opts_.clock;
          o.workers = opts_.upward_workers;
          o.fair = false;
          return o;
        }(),
        [this](const client::FairQueue::Item& item,
               controllers::Reconciler::Completion done) {
          SyncUp(item.key);  // upward failures are re-driven by super events
          done(controllers::ReconcileResult::Done());
        });
    typename client::SharedInformer<T>::Options io;
    io.clock = opts_.clock;
    super_informer_ = std::make_unique<client::SharedInformer<T>>(
        client::ListerWatcher<T>(opts_.super_server, "", SyncCtx()), io);
    client::EventHandlers<T> up;
    up.on_add = [this](const T& obj) { EnqueueUpward(obj); };
    up.on_update = [this](const T&, const T& obj) { EnqueueUpward(obj); };
    super_informer_->AddHandlers(std::move(up));
  }

  ~CrdSyncer() { Stop(); }

  CrdSyncer(const CrdSyncer&) = delete;
  CrdSyncer& operator=(const CrdSyncer&) = delete;

  void AttachTenant(const VirtualClusterObj& vc, TenantControlPlane* tcp) {
    auto ts = std::make_shared<TenantState>();
    ts->map = TenantMapping::ForVc(vc.meta.name, vc.meta.uid);
    ts->tcp = tcp;
    typename client::SharedInformer<T>::Options io;
    io.clock = opts_.clock;
    ts->informer = std::make_unique<client::SharedInformer<T>>(
        client::ListerWatcher<T>(&tcp->server(), "", SyncCtx()), io);
    const std::string tenant = vc.meta.name;
    client::EventHandlers<T> h;
    h.on_add = [this, tenant](const T& obj) {
      downward_->Enqueue(tenant, obj.meta.FullName());
    };
    h.on_update = [this, tenant](const T&, const T& obj) {
      downward_->Enqueue(tenant, obj.meta.FullName());
    };
    h.on_delete = [this, tenant](const T& obj) {
      downward_->Enqueue(tenant, obj.meta.FullName());
    };
    ts->informer->AddHandlers(std::move(h));
    downward_->RegisterTenant(tenant, std::max(1, vc.weight));
    bool live;
    {
      std::lock_guard<std::mutex> l(mu_);
      tenants_[tenant] = ts;
      live = started_;
    }
    if (live) ts->informer->Start();
  }

  void DetachTenant(const std::string& tenant_id) {
    TenantPtr ts;
    {
      std::lock_guard<std::mutex> l(mu_);
      auto it = tenants_.find(tenant_id);
      if (it == tenants_.end()) return;
      ts = it->second;
      tenants_.erase(it);
    }
    downward_->UnregisterTenant(tenant_id);
    ts->informer->Stop();
  }

  void Start() {
    if (started_.exchange(true)) return;
    super_informer_->Start();
    std::vector<TenantPtr> snapshot = Snapshot();
    for (TenantPtr& ts : snapshot) ts->informer->Start();
    downward_->Start();
    upward_->Start();
  }

  void Stop() {
    if (!started_.exchange(false)) return;
    // Reconciler::Stop drains in-flight work and sweeps retry timers.
    downward_->Stop();
    upward_->Stop();
    for (TenantPtr& ts : Snapshot()) ts->informer->Stop();
    super_informer_->Stop();
  }

  bool WaitForSync(Duration timeout) {
    if (!super_informer_->WaitForSync(timeout)) return false;
    for (TenantPtr& ts : Snapshot()) {
      if (!ts->informer->WaitForSync(timeout)) return false;
    }
    return true;
  }

  uint64_t downward_syncs() const { return downward_syncs_.load(); }
  uint64_t upward_syncs() const { return upward_syncs_.load(); }

 private:
  struct TenantState {
    TenantMapping map;
    TenantControlPlane* tcp = nullptr;
    std::unique_ptr<client::SharedInformer<T>> informer;
  };
  using TenantPtr = std::shared_ptr<TenantState>;

  std::vector<TenantPtr> Snapshot() {
    std::lock_guard<std::mutex> l(mu_);
    std::vector<TenantPtr> out;
    for (auto& [id, ts] : tenants_) out.push_back(ts);
    return out;
  }

  TenantPtr GetTenant(const std::string& id) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : it->second;
  }

  void EnqueueUpward(const T& super_obj) {
    std::optional<Origin> origin = OriginOf(super_obj);
    if (!origin) return;
    upward_->Enqueue(origin->tenant_id, super_obj.meta.FullName());
  }

  bool SyncDown(const client::FairQueue::Item& item) {
    TenantPtr ts = GetTenant(item.tenant);
    if (!ts) return true;
    auto tenant_obj = ts->informer->cache().GetByKey(item.key);
    size_t slash = item.key.find('/');
    const std::string tenant_ns = item.key.substr(0, slash);
    const std::string name = item.key.substr(slash + 1);
    const std::string super_ns = ts->map.SuperNamespace(tenant_ns);

    if (!tenant_obj || tenant_obj->meta.deleting()) {
      Status st = opts_.super_server->template Delete<T>(super_ns, name);
      return st.ok() || st.IsNotFound();
    }
    T desired = ToSuper(ts->map, *tenant_obj);
    auto existing = super_informer_->cache().GetByKey(super_ns + "/" + name);
    opts_.clock->SleepFor(opts_.op_cost);
    if (!existing) {
      // Ensure the prefixed namespace exists (the main syncer usually has
      // created it; CRDs may sync before any pod does).
      if (!opts_.super_server->template Get<api::NamespaceObj>("", super_ns).ok()) {
        api::NamespaceObj tenant_view;
        tenant_view.meta.name = tenant_ns;
        (void)opts_.super_server->Create(ToSuper(ts->map, tenant_view), SyncCtx());
      }
      Result<T> created = opts_.super_server->Create(desired, SyncCtx());
      if (created.ok()) {
        downward_syncs_.fetch_add(1);
        return true;
      }
      // AlreadyExists == informer lag; other failures are transient. Retry.
      return false;
    }
    if (DownwardNormalize(*existing) == DownwardNormalize(desired)) return true;
    T updated = desired;
    updated.meta.uid = existing->meta.uid;
    updated.meta.resource_version = existing->meta.resource_version;
    updated.meta.creation_timestamp_ms = existing->meta.creation_timestamp_ms;
    // Preserve the super-owned fields currently on the shadow.
    (void)T::CopyStatus(*existing, updated);
    Result<T> res = opts_.super_server->Update(std::move(updated), SyncCtx());
    if (res.ok()) downward_syncs_.fetch_add(1);
    return res.ok();
  }

  void SyncUp(const std::string& key) {
    auto super_obj = super_informer_->cache().GetByKey(key);
    if (!super_obj) return;
    std::optional<Origin> origin = OriginOf(*super_obj);
    TenantPtr ts = origin ? GetTenant(origin->tenant_id) : nullptr;
    if (!ts) return;
    bool wrote = false;
    Status st = apiserver::RetryUpdate<T>(
        ts->tcp->server(), origin->tenant_ns, super_obj->meta.name,
        [&](T& tenant_obj) {
          wrote = T::CopyStatus(*super_obj, tenant_obj);
          return wrote;
        });
    if (st.ok() && wrote) {
      opts_.clock->SleepFor(opts_.op_cost);
      upward_syncs_.fetch_add(1);
    }
  }

  Options opts_;
  std::unique_ptr<client::SharedInformer<T>> super_informer_;
  std::atomic<bool> started_{false};
  mutable std::mutex mu_;
  std::map<std::string, TenantPtr> tenants_;
  std::atomic<uint64_t> downward_syncs_{0};
  std::atomic<uint64_t> upward_syncs_{0};
  // Last: the reconcile fns touch everything above; ~CrdSyncer stops them
  // (via Stop()) before any member is torn down.
  std::unique_ptr<controllers::Reconciler> downward_;
  std::unique_ptr<controllers::Reconciler> upward_;
};

}  // namespace vc::core
